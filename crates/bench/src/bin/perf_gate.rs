//! CI perf-regression gate for the guard-path latencies.
//!
//! Usage: `perf_gate <baseline.json> <current.json>`
//!
//! Both files are flat JSON objects of `"key": value` pairs as emitted
//! by `table_guard_costs --json`. Every check is evaluated and printed
//! as one row of a pass/fail table (no first-failure bailout); the exit
//! status reflects the whole set.
//!
//! Two kinds of checks run:
//!
//! - **Ratio checks** are hostname-tolerant: for each optimized
//!   structure the *speedup ratio* `optimized_ns / baseline_structure_ns`
//!   measured now is compared against the same ratio recorded in
//!   `baseline.json`, failing when it regresses more than
//!   [`REGRESSION_FACTOR`]× — a slower machine scales numerator and
//!   denominator together, but a code regression moves the ratio.
//! - **Absolute floors** hold regardless of the recorded baseline: the
//!   interval WRITE table beats the linear scan; the reverse writer
//!   index beats the 512-principal walk by ≥5x; the post-unrelated-
//!   revoke cached store stays under the uncached probe *and* within
//!   1.5x of the steady-state cached store (+2 ns noise allowance at
//!   single-digit-ns scale); the revoke-heavy cache hit rate stays
//!   ≥95%; the 4-shard splice beats the unsharded splice at 512
//!   principals; and the multi-threaded netperf contention rows hold —
//!   contended per-store ≤2x uncontended at 2 workers (+5 ns slack),
//!   churn leaves the cache hit rate ≥50%, and the 4-thread aggregate
//!   reaches ≥2.5x single-thread. The scaling row is **CPU-count
//!   aware**: parallel speedup cannot exist on fewer than 4 CPUs, so on
//!   such hosts (`mt_cpus` in the measured JSON) the row degrades to a
//!   collapse guard (4 threads must keep ≥½ the single-thread
//!   aggregate). The kernel-path rows (`kmt_*`, real interpreted module
//!   code on `KernelCpu`s) mirror the guard-path ones with proportional
//!   slack: contended per-packet ≤1.3x uncontended at 2 CPUs (the
//!   lock-free data plane leaves churn little to collide with), churn
//!   really landed, and 4-CPU aggregate ≥1.3x single-CPU (collapse
//!   guard below 4 host CPUs). The data-plane rows hold the hot path
//!   lock-free in fact, not just by construction: per-CPU slab magazine
//!   hit rate ≥90%, the single-holder grant transfer's splice fast path
//!   taken ≥1 time, and the `note_zeroed` maybe-marked pre-check
//!   skipping the stripe lock ≥1 time. The execution-backend rows hold the compiled
//!   backend's edge: compiled netperf per-packet wall time stays ≤0.95x
//!   the interpreter's, the compiled e1000 kernel reports ≥1 fused
//!   guard site, and no function falls back to interpretation. The
//!   guard-soundness rows gate exactly (deterministic counters): the
//!   verifier proves every shipped module plus the kernel thunks
//!   (rejects = 0), catches every canary mutant, and the
//!   verifier-gated loop-guard hoisting pass hoists ≥1 static site and
//!   strictly lowers dynamic mem-write guards per TX packet. The
//!   request-server rows hold the async I/O plane's tail (cycle-derived,
//!   exact): p99 ≤ 4x p50, zero RX ring drops, one TX reply per
//!   request, and ≥1 dispatch through the deferred-call mux. The
//!   rx-chaos rows gate the RX plane's recovery story: faults seeded
//!   inside the poll/deferred path must yield ≥10 supervised
//!   recoveries with traffic resuming after each re-probe, all
//!   resource gauges flat, and zero kernel panics.
//!
//! Exit status: 0 = pass, 1 = regression, 2 = bad input. A value that
//! is not finite, or a wall-clock measurement (`*_ns`, `*_mops`,
//! `*_kpps`) that reads exactly zero, is bad input: it means the
//! measurement broke (e.g. a timer overhead subtracted below zero and
//! clamped), and a floor compared against it would pass vacuously.

use std::collections::HashMap;
use std::process::ExitCode;

/// A measured ratio may regress up to this factor over the recorded
/// baseline ratio before the gate fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// Absolute tolerance (ns) added to the post-revoke-vs-steady floor:
/// both quantities are single-digit cache hits, where per-call timing
/// noise is a meaningful fraction of the value.
const POST_REVOKE_SLACK_NS: f64 = 2.0;

/// Absolute tolerance (ns) added to the contended-vs-uncontended
/// multi-threaded store floor (batch-timed tens-of-ns quantities on a
/// machine that is, by construction, busy).
const MT_CONTENTION_SLACK_NS: f64 = 5.0;

/// Absolute tolerance (ns) added to the contended-vs-uncontended
/// kernel-path per-packet floor. A packet is a microsecond-scale
/// operation (interpretation + slab + capability transfers), and the
/// churn CPU write-locks the module registry during its load/unload
/// cycles, so the noise floor is proportionally larger.
const KMT_CONTENTION_SLACK_NS: f64 = 2_000.0;

/// `(label, optimized key, reference key)` — the ratio-gated structures.
const GATED: [(&str, &str, &str); 20] = [
    ("write-table hit", "interval_hit_ns", "linear_hit_ns"),
    ("write-table miss", "interval_miss_ns", "linear_miss_ns"),
    (
        "write-guard cache (repeated/rotating)",
        "guard_repeated_ns",
        "guard_rotating_ns",
    ),
    ("writer index @8", "writer_index_8_ns", "writer_linear_8_ns"),
    (
        "writer index @64",
        "writer_index_64_ns",
        "writer_linear_64_ns",
    ),
    (
        "writer index @512",
        "writer_index_512_ns",
        "writer_linear_512_ns",
    ),
    (
        "writer index scaling (512/8)",
        "writer_index_512_ns",
        "writer_index_8_ns",
    ),
    (
        "revoke-heavy @8 (post/uncached)",
        "revoke_heavy_8_post_revoke_ns",
        "revoke_heavy_8_uncached_ns",
    ),
    (
        "revoke-heavy @64 (post/uncached)",
        "revoke_heavy_64_post_revoke_ns",
        "revoke_heavy_64_uncached_ns",
    ),
    (
        "revoke-heavy @512 (post/uncached)",
        "revoke_heavy_512_post_revoke_ns",
        "revoke_heavy_512_uncached_ns",
    ),
    (
        "splice 4-shard/unsharded @512",
        "splice_512p_4shard_ns",
        "splice_512p_1shard_ns",
    ),
    (
        "splice 16-shard/unsharded @512",
        "splice_512p_16shard_ns",
        "splice_512p_1shard_ns",
    ),
    (
        // Deterministic simulated cycles: identical on every host, so a
        // drift here is a real guard-path change on the playback path.
        "sound playback lxfi/stock cycles",
        "sound_lxfi_period_cycles",
        "sound_stock_period_cycles",
    ),
    (
        // Same determinism argument for the device-mapper request round
        // (crypt write + crypt read + snapshot COW write).
        "dm request lxfi/stock cycles",
        "dm_lxfi_round_cycles",
        "dm_stock_round_cycles",
    ),
    (
        // Capture period: the deferred-dispatch receive path.
        "sound capture lxfi/stock cycles",
        "sound_capture_lxfi_cycles",
        "sound_capture_stock_cycles",
    ),
    // Execution-backend rows: the compiled backend's wall-clock
    // advantage over the interpreter on the same workload. Ratios, so
    // host speed cancels; a regression means block compilation stopped
    // paying for itself.
    (
        "netperf compiled/interp pkt ns",
        "netperf_pkt_compiled_ns",
        "netperf_pkt_interp_ns",
    ),
    (
        "sound compiled/interp period ns",
        "sound_period_compiled_ns",
        "sound_period_interp_ns",
    ),
    (
        "kernel 1cpu compiled/interp pkt ns",
        "kmt_pkt_1t_compiled_ns",
        "kmt_pkt_1t_ns",
    ),
    // Request-server latencies are cycle-derived (deterministic on
    // every host): a ratio drift is a real change on the RX/deferred/
    // reply path, not noise.
    (
        "server p50 lxfi/stock ns",
        "server_p50_ns",
        "server_stock_p50_ns",
    ),
    (
        "server p99 lxfi/stock ns",
        "server_p99_ns",
        "server_stock_p99_ns",
    ),
];

/// One evaluated gate row.
struct Check {
    label: String,
    /// Baseline quantity (`None` for absolute floors).
    baseline: Option<f64>,
    current: f64,
    /// Upper bound `current` must stay at or below.
    limit: f64,
    pass: bool,
}

/// Parses a flat JSON object of string→number pairs. Deliberately
/// minimal (the workspace vendors no serde): accepts exactly the shape
/// `table_guard_costs --json` emits, rejects anything nested.
fn parse_flat_json(text: &str) -> Result<HashMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a top-level JSON object")?;
    let mut map = HashMap::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected \"key\": value", ln + 1))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: key must be quoted", ln + 1))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad number ({e})", ln + 1))?;
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

/// Key suffixes of wall-clock measurements, which can never be zero.
const MEASURED_SUFFIXES: [&str; 3] = ["_ns", "_mops", "_kpps"];

/// Rejects non-finite values and zero wall-clock measurements.
fn validate(m: &HashMap<String, f64>) -> Result<(), String> {
    let mut keys: Vec<&String> = m.keys().collect();
    keys.sort();
    for key in keys {
        let v = m[key];
        if !v.is_finite() {
            return Err(format!("{key} is not finite ({v})"));
        }
        if v == 0.0 && MEASURED_SUFFIXES.iter().any(|s| key.ends_with(s)) {
            return Err(format!("{key} measured 0.0: a broken measurement"));
        }
    }
    Ok(())
}

fn load(path: &str) -> Result<HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let m = parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))?;
    validate(&m).map_err(|e| format!("{path}: {e}"))?;
    Ok(m)
}

fn get(m: &HashMap<String, f64>, key: &str, src: &str) -> Result<f64, String> {
    m.get(key)
        .copied()
        .ok_or_else(|| format!("{src}: missing {key}"))
}

fn ratio(m: &HashMap<String, f64>, num: &str, den: &str, src: &str) -> Result<f64, String> {
    let n = get(m, num, src)?;
    let d = get(m, den, src)?;
    if d <= 0.0 {
        return Err(format!("{src}: {den} must be positive"));
    }
    Ok(n / d)
}

fn run(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let mut checks: Vec<Check> = Vec::new();

    // Ratio checks: current ratio vs recorded ratio, REGRESSION_FACTOR.
    for (label, num, den) in GATED {
        let base = ratio(&baseline, num, den, baseline_path)?;
        let cur = ratio(&current, num, den, current_path)?;
        checks.push(Check {
            label: label.to_string(),
            baseline: Some(base),
            current: cur,
            limit: base * REGRESSION_FACTOR,
            pass: cur <= base * REGRESSION_FACTOR,
        });
    }

    // Absolute floors, independent of the recorded baseline.
    let mut floor = |label: String, current: f64, limit: f64| {
        checks.push(Check {
            label,
            baseline: None,
            current,
            limit,
            pass: current <= limit,
        });
    };

    let interval = ratio(&current, "interval_hit_ns", "linear_hit_ns", current_path)?;
    floor("floor: interval/linear hit < 1".into(), interval, 1.0);
    let wi512 = ratio(
        &current,
        "writer_index_512_ns",
        "writer_linear_512_ns",
        current_path,
    )?;
    floor(
        "floor: writer index ≥5x @512 (ratio ≤0.2)".into(),
        wi512,
        0.2,
    );

    for n in [8u32, 64, 512] {
        let steady = get(
            &current,
            &format!("revoke_heavy_{n}_steady_ns"),
            current_path,
        )?;
        let post = get(
            &current,
            &format!("revoke_heavy_{n}_post_revoke_ns"),
            current_path,
        )?;
        let uncached = get(
            &current,
            &format!("revoke_heavy_{n}_uncached_ns"),
            current_path,
        )?;
        let hit_rate = get(
            &current,
            &format!("revoke_heavy_{n}_hit_rate"),
            current_path,
        )?;
        // The tentpole acceptance bar: an unrelated revoke between two
        // guarded stores must not degrade the second store to uncached
        // cost…
        floor(
            format!("floor: post-revoke < uncached @{n}"),
            post,
            uncached,
        );
        // …and must stay within 1.5x of the steady-state cached hit.
        floor(
            format!("floor: post-revoke ≤ 1.5x steady @{n}"),
            post,
            1.5 * steady + POST_REVOKE_SLACK_NS,
        );
        // Deterministic half of the same claim: the epoch cache keeps
        // hitting (expressed as miss rate ≤ 5% so the row reads as an
        // upper bound like every other).
        floor(
            format!("floor: churn miss rate ≤5% @{n}"),
            1.0 - hit_rate,
            0.05,
        );
    }
    let splice4 = ratio(
        &current,
        "splice_512p_4shard_ns",
        "splice_512p_1shard_ns",
        current_path,
    )?;
    floor(
        "floor: 4-shard splice < unsharded @512".into(),
        splice4,
        1.0,
    );

    // Multi-threaded netperf contention rows (tentpole acceptance bar).
    let contended = get(&current, "mt_store_2t_contended_ns", current_path)?;
    let uncontended = get(&current, "mt_store_2t_uncontended_ns", current_path)?;
    floor(
        "floor: mt contended ≤2x uncontended @2t".into(),
        contended,
        2.0 * uncontended + MT_CONTENTION_SLACK_NS,
    );
    let mt_hit = get(&current, "mt_contended_2t_hit_rate", current_path)?;
    floor(
        "floor: mt contended miss rate ≤50% @2t".into(),
        1.0 - mt_hit,
        0.5,
    );
    // Scaling: 4-thread aggregate ≥2.5x single-thread — expressed as the
    // inverse ratio so the row reads as an upper bound. Parallel speedup
    // is physically impossible below 4 CPUs, so there the row only
    // guards against collapse (4 threads ≥ half the 1-thread aggregate).
    let cpus = get(&current, "mt_cpus", current_path)?;
    let inv_scaling = ratio(
        &current,
        "mt_aggregate_1t_mops",
        "mt_aggregate_4t_mops",
        current_path,
    )?;
    if cpus >= 4.0 {
        floor(
            "floor: mt 4t aggregate ≥2.5x 1t (ratio ≤0.4)".into(),
            inv_scaling,
            0.4,
        );
    } else {
        floor(
            format!("floor: mt 4t no collapse ({cpus:.0} cpus: ratio ≤2)"),
            inv_scaling,
            2.0,
        );
    }

    // Kernel-path multi-CPU rows: real interpreted module code on
    // KernelCpus (the SMP kernel redesign's acceptance bar).
    let kcontended = get(&current, "kmt_pkt_2t_contended_ns", current_path)?;
    let kuncontended = get(&current, "kmt_pkt_2t_uncontended_ns", current_path)?;
    floor(
        "floor: kernel contended ≤1.3x uncontended @2cpu".into(),
        kcontended,
        1.3 * kuncontended + KMT_CONTENTION_SLACK_NS,
    );
    // Churn must actually have landed for the row above to mean
    // anything (expressed as an upper bound on the negated count).
    let kchurn = get(&current, "kmt_contended_2t_churn_ops", current_path)?;
    floor(
        "floor: kernel churn ops ≥1 (neg ≤ -1)".into(),
        -kchurn,
        -1.0,
    );
    // Data-plane rows: the per-CPU slab magazines must absorb ≥90% of
    // kmalloc calls (steady-state LIFO reuse), the single-holder grant
    // transfer must actually take its splice fast path on the TX
    // workload, and the note_zeroed maybe-marked pre-check must skip
    // the stripe lock at least once (all-clean ranges touch no lock).
    let mag_hit = get(&current, "kmt_magazine_hit_rate", current_path)?;
    floor("floor: magazine miss rate ≤10%".into(), 1.0 - mag_hit, 0.10);
    let xfer_fast = get(&current, "kmt_transfer_fast", current_path)?;
    floor(
        "floor: transfer fast path ≥1 (neg ≤ -1)".into(),
        -xfer_fast,
        -1.0,
    );
    let nz_skips = get(&current, "kmt_note_zeroed_fast_skips", current_path)?;
    floor(
        "floor: note_zeroed fast skips ≥1 (neg ≤ -1)".into(),
        -nz_skips,
        -1.0,
    );
    // CPU-count-aware kernel scaling. Per-packet work shares the slab,
    // the writer map, and per-packet capability transfers (locked), so
    // the bar is lower than the lock-free guard workload's: with ≥4
    // CPUs the 4-CPU aggregate must reach ≥1.3x single-CPU; below
    // that, adding CPUs must at least not collapse throughput.
    let kinv = ratio(
        &current,
        "kmt_aggregate_1t_kpps",
        "kmt_aggregate_4t_kpps",
        current_path,
    )?;
    if cpus >= 4.0 {
        floor(
            "floor: kernel 4cpu aggregate ≥1.3x 1cpu (ratio ≤0.77)".into(),
            kinv,
            0.77,
        );
    } else {
        floor(
            format!("floor: kernel 4cpu no collapse ({cpus:.0} cpus: ratio ≤2)"),
            kinv,
            2.0,
        );
    }

    // Execution-backend floors. The compiled backend must actually beat
    // the interpreter on the packet path — by at least 5% after noise
    // (measured headroom is ~25-30%; see README "Execution backends"
    // for why the gap is bounded: the interpreter is already
    // monomorphized per environment, and guard costs are
    // backend-invariant). The counters are deterministic, so they gate
    // exactly: guard fusion must have fired, and no module function may
    // silently fall back to the interpreter.
    let backend_ratio = ratio(
        &current,
        "netperf_pkt_compiled_ns",
        "netperf_pkt_interp_ns",
        current_path,
    )?;
    floor(
        "floor: netperf compiled ≥1.05x faster (ratio ≤0.95)".into(),
        backend_ratio,
        0.95,
    );
    let fused = get(&current, "compiled_fused_guard_sites", current_path)?;
    floor(
        "floor: fused guard sites ≥1 (neg ≤ -1)".into(),
        -fused,
        -1.0,
    );
    let fallback = get(&current, "compiled_fallback_funcs", current_path)?;
    floor("floor: compiled fallback funcs = 0".into(), fallback, 0.0);

    // Guard-soundness rows (deterministic counters, exact gates): the
    // verifier must prove every shipped module and the kernel thunks,
    // catch every canary mutant, and the verifier-gated hoisting pass
    // must both fire (≥1 static site) and pay off (strictly fewer
    // dynamic mem-write guards per packet than the unhoisted rewrite).
    let rejects = get(&current, "soundness_rejects", current_path)?;
    floor("floor: soundness rejects = 0".into(), rejects, 0.0);
    let missed = get(&current, "soundness_canaries_missed", current_path)?;
    floor("floor: soundness canaries missed = 0".into(), missed, 0.0);
    let hoisted = get(&current, "rewrite_guards_hoisted", current_path)?;
    floor(
        "floor: hoisted guard sites ≥1 (neg ≤ -1)".into(),
        -hoisted,
        -1.0,
    );
    let memw_hoist_ratio = ratio(
        &current,
        "netperf_memw_per_pkt_hoisted",
        "netperf_memw_per_pkt_unhoisted",
        current_path,
    )?;
    floor(
        "floor: hoisting cuts mem-write guards/pkt".into(),
        memw_hoist_ratio,
        0.999,
    );

    // Fault-containment rows (deterministic: seeded faults, tick time,
    // simulated cycles). After ≥100 supervised crash/recover cycles of
    // one module under concurrent healthy traffic: every resource gauge
    // back at steady state, the healthy path within 0.7x throughput
    // (cycles ≤ 1/0.7 ≈ 1.43x), recovery bounded, the crash loop
    // detected, and the kernel-wide panic flag never set.
    let recov = get(&current, "chaos_recoveries", current_path)?;
    floor(
        "floor: chaos recoveries ≥100 (neg ≤ -100)".into(),
        -recov,
        -100.0,
    );
    let looped = get(&current, "chaos_crash_loop_detected", current_path)?;
    floor(
        "floor: chaos crash loop detected ≥1 (neg ≤ -1)".into(),
        -looped,
        -1.0,
    );
    let recov_ticks = get(&current, "chaos_recovery_ticks_max", current_path)?;
    floor("floor: chaos recovery ≤16 ticks".into(), recov_ticks, 16.0);
    let overhead = get(&current, "chaos_overhead_ratio", current_path)?;
    floor(
        "floor: chaos healthy path ≤1.43x baseline".into(),
        overhead,
        1.43,
    );
    for key in [
        "chaos_leak_principals",
        "chaos_leak_slab",
        "chaos_leak_writer_sets",
        "chaos_leak_intervals",
    ] {
        let leak = get(&current, key, current_path)?;
        // abs(): a gauge drifting negative is as broken as a leak.
        floor(
            format!("floor: {} = 0", key.replace('_', " ")),
            leak.abs(),
            0.0,
        );
    }
    let panics = get(&current, "chaos_panics", current_path)?;
    floor("floor: chaos kernel panics = 0".into(), panics, 0.0);

    // Request-server rows (async I/O plane; cycle-derived, so exact):
    // the tail stays bounded (p99 ≤ 4x p50 — head-of-line queueing
    // across mixed bursts, not collapse), no RX frame is ever dropped
    // to ring overrun, every request gets its TX reply, and the NAPI
    // polls really went through the deferred-call mux.
    let srv_tail = ratio(&current, "server_p99_ns", "server_p50_ns", current_path)?;
    floor("floor: server p99 ≤ 4x p50".into(), srv_tail, 4.0);
    let srv_drop = get(&current, "server_dropped", current_path)?;
    floor("floor: server dropped packets = 0".into(), srv_drop, 0.0);
    let srv_rx = get(&current, "server_rx_pkts", current_path)?;
    let srv_tx = get(&current, "server_tx_replies", current_path)?;
    floor(
        "floor: server replies = requests".into(),
        (srv_rx - srv_tx).abs(),
        0.0,
    );
    let srv_disp = get(&current, "deferred_dispatched", current_path)?;
    floor(
        "floor: deferred dispatches ≥1 (neg ≤ -1)".into(),
        -srv_disp,
        -1.0,
    );

    // RX-plane chaos rows (deterministic: seeded faults fired inside the
    // NAPI poll / deferred-dispatch path). The supervised driver must
    // keep recovering, traffic must resume after every re-probe
    // (delivered ≥ recoveries: at least one post-recovery burst lands
    // per cycle), every resource gauge must return to steady state —
    // including the alloc_etherdev grant, which teardown alone cannot
    // see — and the kernel must never panic.
    let rx_recov = get(&current, "rx_chaos_recoveries", current_path)?;
    floor(
        "floor: rx chaos recoveries ≥10 (neg ≤ -10)".into(),
        -rx_recov,
        -10.0,
    );
    let rx_delivered = get(&current, "rx_chaos_delivered", current_path)?;
    floor(
        "floor: rx chaos delivered ≥ recoveries".into(),
        rx_recov - rx_delivered,
        0.0,
    );
    let rx_injected = get(&current, "rx_chaos_injected", current_path)?;
    floor(
        "floor: rx chaos delivered ≤ injected".into(),
        rx_delivered - rx_injected,
        0.0,
    );
    for key in [
        "rx_chaos_leak_principals",
        "rx_chaos_leak_slab",
        "rx_chaos_leak_writer_sets",
        "rx_chaos_leak_intervals",
    ] {
        let leak = get(&current, key, current_path)?;
        floor(
            format!("floor: {} = 0", key.replace('_', " ")),
            leak.abs(),
            0.0,
        );
    }
    let rx_panics = get(&current, "rx_chaos_panics", current_path)?;
    floor("floor: rx chaos kernel panics = 0".into(), rx_panics, 0.0);

    // Report: one row per check, no first-failure bailout.
    println!(
        "perf gate: {current_path} vs {baseline_path} \
         (ratio rows fail beyond {REGRESSION_FACTOR}x of baseline)\n"
    );
    println!(
        "{:<42} {:>10} {:>10} {:>10}  verdict",
        "check", "baseline", "current", "limit"
    );
    let mut ok = true;
    for c in &checks {
        ok &= c.pass;
        let base = c
            .baseline
            .map(|b| format!("{b:>10.4}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        println!(
            "{:<42} {} {:>10.4} {:>10.4}  {}",
            c.label,
            base,
            c.current,
            c.limit,
            if c.pass { "ok" } else { "FAIL" }
        );
    }
    let failed = checks.iter().filter(|c| !c.pass).count();
    println!("\n{} checks, {} failed", checks.len(), failed);
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline, current] = &args[..] else {
        eprintln!("usage: perf_gate <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    match run(baseline, current) {
        Ok(true) => {
            println!("perf gate: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("perf gate: FAIL");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitted_shape() {
        let m = parse_flat_json("{\n  \"a_ns\": 1.5,\n  \"b_ns\": 2\n}").unwrap();
        assert_eq!(m["a_ns"], 1.5);
        assert_eq!(m["b_ns"], 2.0);
    }

    #[test]
    fn rejects_non_objects() {
        assert!(parse_flat_json("[1, 2]").is_err());
        assert!(parse_flat_json("{\"k\": \"str\"}").is_err());
    }

    #[test]
    fn rejects_zero_and_non_finite_measurements() {
        let ok = parse_flat_json("{\n  \"a_ns\": 1.5,\n  \"misses\": 0\n}").unwrap();
        assert!(validate(&ok).is_ok(), "a zero counter is fine");
        for bad in [
            "{\"a_ns\": 0.0}",
            "{\"mt_aggregate_1t_mops\": 0}",
            "{\"kmt_aggregate_1t_kpps\": 0}",
            "{\"a_ns\": NaN}",
            "{\"ratio\": inf}",
        ] {
            let m = parse_flat_json(bad).unwrap();
            assert!(validate(&m).is_err(), "{bad} must be rejected");
        }
    }
}
