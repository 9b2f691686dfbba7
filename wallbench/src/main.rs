//! Wall-clock benchmark of the LXFI kernel.
//!
//! ```text
//! lxfi-wallbench --workload <tx_stream|echo_open|module_churn> \
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures one untraced pass of `--seconds`, sets the
//! kernel up several times around it, and prints the end-to-end
//! metrics. `--trace 1` measures an untraced pass of half the time,
//! then a traced pass of the same work, and prints the per-layer
//! metrics; the spans go to `out/trace-<workload>.csv` beside this
//! package's manifest. Both
//! check every op's outputs, the leak gauges, and a prefix replayed
//! under `Backend::Interp`. Each metric is printed as a line, and the
//! last line is one JSON object with every metric, its unit, and
//! whether the outputs were correct. See `README.md` for what the
//! workloads and metrics mean.

mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use lxfi_core::GuardKind;
use lxfi_kernel::Backend;

use stats::{growth, median, quantile};
use trace::{Tracer, CALL_LAYERS};
use workloads::{churn_rotation, run_pass, setup, Pass, Rig, Stop, WindowStats, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 41;
/// Most ops a traced pass runs; spans take about 40 bytes each.
const TRACED_OPS: u64 = 100_000;
/// Rounds of the rewriter/verifier side measurement in traced runs.
const SIDE_ROUNDS: u64 = 5;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let name = get("--workload")?.clone();
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed output checks; empty when every output was correct.
    checks: Vec<String>,
    metrics: Vec<Metric>,
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Output checks that must hold after a pass: the kernel is quiescent
/// and consistent with this code's bookkeeping, no op failed a check,
/// the leak gauges are back at their warm level, and the pass reached
/// the prefix the replay needs.
fn check_pass(rig: &Rig, pass: &Pass, warm: workloads::Gauges, checks: &mut Vec<String>) {
    checks.extend(rig.quiescent_checks());
    checks.extend(rig.errors.iter().cloned());
    let now = rig.gauges();
    if now != warm {
        checks.push(format!("leak gauges moved: warm {warm:?}, end {now:?}"));
    }
    if pass.prefix.is_none() {
        checks.push("the pass ended before the replayed prefix".into());
    }
}

/// Replays the pass's prefix under the interpreter and compares.
fn check_replay(
    w: Workload,
    seed: u64,
    pass: &Pass,
    checks: &mut Vec<String>,
) -> Result<(), String> {
    if let Some((inputs, measured)) = &pass.prefix {
        let replayed = workloads::replay(w, seed, inputs)?;
        if replayed.outputs != measured.outputs {
            checks.push("Interp replay: functional outputs differ".into());
        }
        if replayed.counters != measured.counters {
            checks.push(format!(
                "Interp replay: counters differ: {:?} vs {:?}",
                replayed.counters, measured.counters
            ));
        }
    }
    Ok(())
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn untraced(a: &Args) -> Result<Outcome, String> {
    let rotation = churn_rotation(a.seed);
    let mut checks = Vec::new();
    // Set-ups run before and after the pass, so that they see two
    // phases of the host; `setup_s` is their median.
    let timed_setup = || -> Result<(Rig, f64), String> {
        let t0 = Instant::now();
        let rig = setup(Backend::Compiled, &mut Tracer::off(), rotation)?;
        Ok((rig, t0.elapsed().as_secs_f64()))
    };
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS / 2 + 1 {
        drop(rig.take());
        let (r, t) = timed_setup()?;
        setup_times.push(t);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let warm = rig.gauges();
    let secs = Duration::from_secs_f64(a.seconds);
    let mut pass = run_pass(
        a.workload,
        &mut rig,
        &mut Tracer::off(),
        a.seed,
        Stop::after(secs),
    );
    check_pass(&rig, &pass, warm, &mut checks);
    let rss = peak_rss_mb()?;
    drop(rig);
    for _ in 0..SETUPS / 2 {
        setup_times.push(timed_setup()?.1);
    }
    check_replay(a.workload, a.seed, &pass, &mut checks)?;

    if pass.windows.is_empty() {
        return Err("no full window: run longer".into());
    }
    // The host takes the process off the CPU for 0.1-20 ms tens of
    // times a second. A closed loop loses one op's time to each stall,
    // so its medians and rates read through them; an open loop queues
    // every request due during a stall behind it, so its p99 is taken
    // in the quietest quarter of its 10 ms windows, where the queueing
    // is the kernel's own. module_churn's op time rises through the
    // run (the growth defect), so it is summarised over all its ops
    // rather than across windows of a trend.
    let over = |f: fn(&WindowStats) -> f64| pass.windows.iter().map(f).collect::<Vec<_>>();
    let ok = (pass.attempted - pass.failed) as f64;
    let (ops_per_s, p50, p99, tx_pps) = match a.workload {
        Workload::TxStream => (
            median(&mut over(|w| w.ops_per_s)),
            median(&mut over(|w| w.p50_us)),
            median(&mut over(|w| w.p99_us)),
            median(&mut over(|w| w.tx_pps)),
        ),
        // An open loop's throughput is its offered rate less its
        // failures, so it is taken over the whole pass.
        Workload::EchoOpen => (
            ok / pass.elapsed_s,
            median(&mut over(|w| w.p50_us)),
            quantile(&mut over(|w| w.p99_us), 0.25),
            median(&mut over(|w| w.tx_pps)),
        ),
        Workload::ModuleChurn => {
            let lat = pass.lat_us.as_mut().ok_or("no op latencies kept")?;
            (
                ok / pass.elapsed_s,
                quantile(lat, 0.50),
                quantile(lat, 0.99),
                pass.tx_pkts as f64 / pass.tx_s,
            )
        }
    };
    let metrics = vec![
        metric("setup_s", median(&mut setup_times), "s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("p50_us", p50, "us"),
        metric("p99_us", p99, "us"),
        metric("peak_rss_mb", rss, "MB"),
        metric("churn_tx_pps", tx_pps, "1/s"),
    ];
    Ok(Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        checks,
        metrics,
    })
}

fn traced(a: &Args) -> Result<Outcome, String> {
    let rotation = churn_rotation(a.seed);
    let mut checks = Vec::new();
    let half = Duration::from_secs_f64(a.seconds / 2.0);

    // Untraced pass: the reference for the tracing overhead.
    let mut rig = setup(Backend::Compiled, &mut Tracer::off(), rotation)?;
    let warm = rig.gauges();
    let plain = run_pass(
        a.workload,
        &mut rig,
        &mut Tracer::off(),
        a.seed,
        Stop::after(half),
    );
    check_pass(&rig, &plain, warm, &mut checks);
    drop(rig);

    // Traced pass over the same work (the same seed gives the same
    // arrival schedule and rotation), capped so the spans stay small.
    let stop = Stop {
        time: 2 * half,
        ops: plain.attempted.min(TRACED_OPS),
    };
    let mut tr = Tracer::on();
    let mut rig = setup(Backend::Compiled, &mut tr, rotation)?;
    let warm = rig.gauges();
    let mut pass = run_pass(a.workload, &mut rig, &mut tr, a.seed, stop);
    check_pass(&rig, &pass, warm, &mut checks);
    let frames = rig.k.net().rx_total;
    let rx_dropped = rig.k.net().rx_dropped();
    let (dispatched, overflow, _) = rig.k.deferred_stats();
    let mag_hit_rate = rig.k.mags.hit_rate();
    drop(rig);
    workloads::side_measure(&mut tr, SIDE_ROUNDS)?;
    let wall_ns = tr.ns(Instant::now()) as f64;

    let mut metrics = Vec::new();
    let mut layer_ns = 0u64;
    for l in CALL_LAYERS {
        let (total, median_us) = tr.calls(l);
        layer_ns += total;
        metrics.push(metric(format!("{}_us", l.name()), median_us, "us"));
        metrics.push(metric(
            format!("{}_self_pct", l.name()),
            100.0 * total as f64 / wall_ns,
            "%",
        ));
    }
    metrics.push(metric(
        "bench.residual_pct",
        100.0 * (wall_ns - layer_ns as f64) / wall_ns,
        "%",
    ));

    let ops = pass.attempted as f64;
    let w = &pass.counters;
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let per_op = |n: u64| n as f64 / ops;
    metrics.extend([
        metric("net.rx_dropped", rx_dropped as f64, "count"),
        metric(
            "deferred.dispatched_per_frame",
            dispatched as f64 / frames as f64,
            "count",
        ),
        metric("deferred.overflow", overflow as f64, "count"),
        metric("magazine.hit_rate", mag_hit_rate, "ratio"),
        metric(
            "guard.mem_write",
            per_op(w.guard(GuardKind::MemWrite)),
            "count",
        ),
        metric(
            "guard.kernel_indcall",
            per_op(w.guard(GuardKind::KernelIndCall)),
            "count",
        ),
        metric(
            "guard.fn_entry",
            per_op(w.guard(GuardKind::FunctionEntry)),
            "count",
        ),
        metric(
            "guard.fn_exit",
            per_op(w.guard(GuardKind::FunctionExit)),
            "count",
        ),
        metric(
            "guard.annotation_action",
            per_op(w.guard(GuardKind::AnnotationAction)),
            "count",
        ),
        metric(
            "guard.write_cache_hit_rate",
            rate(w.write_cache_hits, w.write_cache_misses),
            "ratio",
        ),
        metric("guard.epoch_bumps", per_op(w.epoch_bumps), "count"),
        metric(
            "guard.transfer_fast_share",
            rate(w.transfer_fast, w.transfer_slow),
            "ratio",
        ),
        metric("machine.modeled_cycles_per_op", per_op(w.cycles), "cycles"),
        metric("loader.cycle_growth", growth(&plain.windows), "ratio"),
        metric("gen.late_p99_us", quantile(&mut pass.late_us, 0.99), "us"),
        metric(
            "echo.queue_wait_p50_us",
            quantile(&mut pass.qwait_us, 0.50),
            "us",
        ),
    ]);
    let busy_per_op = |p: &Pass| (p.elapsed_s - p.wait_s) / p.attempted as f64;
    metrics.push(metric(
        "trace.overhead_pct",
        100.0 * (busy_per_op(&pass) / busy_per_op(&plain) - 1.0),
        "%",
    ));

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let csv = out.join(format!("trace-{}.csv", a.name));
    tr.write_csv(&csv)
        .map_err(|e| format!("{}: {e}", csv.display()))?;
    println!("spans: {} written to {}", tr.spans.len(), csv.display());

    check_replay(a.workload, a.seed, &plain, &mut checks)?;
    Ok(Outcome {
        attempted: plain.attempted + pass.attempted,
        failed: plain.failed + pass.failed,
        checks,
        metrics,
    })
}

/// A time or rate must be a positive finite reading; anything else
/// means the measurement broke, and the run reports no result.
fn validate(metrics: &[Metric]) -> Result<(), String> {
    for m in metrics {
        let timed = matches!(m.unit, "s" | "us" | "1/s" | "MB");
        if !m.value.is_finite() || (timed && m.value <= 0.0) {
            return Err(format!(
                "invalid reading {} = {} {}",
                m.name, m.value, m.unit
            ));
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lxfi-wallbench: {e}");
            eprintln!(
                "usage: lxfi-wallbench --workload <tx_stream|echo_open|module_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let o = match outcome.and_then(|o| validate(&o.metrics).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lxfi-wallbench: {e}");
            std::process::exit(1);
        }
    };

    for c in &o.checks {
        println!("check failed: {c}");
    }
    println!(
        "{} ops attempted, {} failed (failed_pct {})",
        o.attempted,
        o.failed,
        100.0 * o.failed as f64 / o.attempted as f64
    );
    for m in &o.metrics {
        println!("{:<32} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.is_empty(),
        o.attempted,
        o.failed,
        body.join(", ")
    );
}
