//! The booted kernel the workloads drive, and the three workloads.
//!
//! Every workload runs on one thread, in `IsolationMode::Lxfi`, and
//! reaches the kernel only through its public calls. Each op's outputs
//! are checked against the benchmark's own bookkeeping as it runs:
//! wire sequence numbers are counted here, not read back from the
//! kernel's counters, and the TX counter is compared with the number of
//! packets this code sent.

use std::time::{Duration, Instant};

use lxfi_bench::server::{echod_spec, ECHO_FAMILY, ECHO_WORK};
use lxfi_core::{GuardKind, ALL_GUARD_KINDS};
use lxfi_kernel::net::{free_skb_raw, RX_RING_SLOTS};
use lxfi_kernel::types::sk_buff;
use lxfi_kernel::{Backend, IsolationMode, Kernel, ModuleSpec};
use lxfi_machine::{verify_soundness, SoundnessPolicy, Word};
use lxfi_modules as mods;
use lxfi_rewriter::{rewrite_module, RewriteOptions};

use crate::stats::quantile;
use crate::trace::{Layer, Tracer, NO_PARENT};

/// TX packet size: the smallest netperf size, where per-packet cost
/// dominates.
pub const PKT_BYTES: u64 = 64;
/// `echo_open`'s offered rate, requests per second: a quarter of the
/// closed-loop capacity, so queueing stays short except after a stall.
pub const ECHO_RATE: f64 = 15_000.0;
/// Most requests one `net_rx_wire` call carries: the RX ring's
/// capacity. When the generator falls behind, because the host stalled
/// the process, its backlog goes onto the wire one ring-full at a time,
/// each served before the next, so a stall of the benchmark's own
/// thread is seen as latency and never overruns the ring.
pub const WIRE_BATCH: u64 = RX_RING_SLOTS;
/// TX packets through the resident e1000 between two churn cycles.
pub const CHURN_TX: u64 = 32;
/// The modules `module_churn` loads and unloads.
pub const CHURN_SPECS: [fn() -> ModuleSpec; 6] = [
    mods::econet::spec,
    mods::can_bcm::spec,
    mods::rds::spec,
    mods::can::spec,
    mods::dm_zero::spec,
    mods::dm_crypt::spec,
];

/// Consumed RX skbs are freed in groups of this many, as a driver
/// recycles buffers, so that `free_skb_raw` (well under a microsecond)
/// is never timed one call at a time.
const FREE_GROUP: usize = 16;

/// Warm-up traffic in set-up: TX packets, and echo requests wired in
/// bursts of [`WARM_BURST`].
const WARM_PKTS: u64 = 64;
const WARM_REQS: u64 = 64;
const WARM_BURST: u64 = 4;

/// Ops replayed under `Backend::Interp` against the measured run.
const PREFIX_PKTS: u64 = 2_000;
const PREFIX_REQS: u64 = 1_000;
const PREFIX_CYCLES: u64 = 24;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: 64-byte packets back to back through `net_send_packet`.
    TxStream,
    /// Open loop: Poisson arrivals through RX ring, NAPI poll, echod, TX reply.
    EchoOpen,
    /// Closed loop: load+unload of one churn module, then [`CHURN_TX`] packets.
    ModuleChurn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tx_stream" => Some(Workload::TxStream),
            "echo_open" => Some(Workload::EchoOpen),
            "module_churn" => Some(Workload::ModuleChurn),
            _ => None,
        }
    }
}

/// SplitMix64: the seeded source of every generated input.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// `module_churn`'s rotation: the six modules in a seeded order. A
/// pass ends on a whole rotation, after the same module as set-up's
/// warm-up: the writer index parks a dead module's window on the
/// tombstone until the window is reused, so its interval count depends
/// on which module was unloaded last.
pub fn churn_rotation(seed: u64) -> [usize; 6] {
    let mut rng = Rng::new(seed);
    let mut order = [0, 1, 2, 3, 4, 5];
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Leak gauges that must return to their warm level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauges {
    /// Principals registered and not retired.
    pub principals_live: u64,
    /// Interned writer sets.
    pub writer_sets_live: u64,
    /// Live slab objects.
    pub slab_live: u64,
    /// Writer-index intervals.
    pub index_intervals: u64,
}

/// What the differential replay compares: the functional outputs of a
/// prefix of ops, and the modeled cycles they cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Each op's outputs, in order.
    pub outputs: Vec<u64>,
    /// Counters after the prefix, set-up included.
    pub counters: Counters,
}

/// A booted, warmed kernel: e1000 bound to one NIC with its RX ring,
/// echod registered, one echo socket open.
pub struct Rig {
    /// The kernel.
    pub k: Kernel,
    dev: Word,
    sck: Word,
    /// Wire sequence number the next accepted frame must carry: this
    /// code's own count of frames the ring accepted.
    next_seq: u64,
    /// Frames the ring must have dropped: those past its capacity.
    dropped: u64,
    /// Packets this code sent through `dev`.
    sent: u64,
    /// Outputs recorded for the differential replay, while `Some`.
    transcript: Option<Vec<u64>>,
    /// Answered requests' skbs, not yet freed.
    to_free: Vec<Word>,
    /// First failure messages, for the report.
    pub errors: Vec<String>,
}

/// Boots and warms a kernel; the warm-up churns the modules in
/// `rotation` order. Set-up is what `setup_s` times.
pub fn setup(backend: Backend, tr: &mut Tracer, rotation: [usize; 6]) -> Result<Rig, String> {
    let mut k = tr.call(Layer::Boot, 0, NO_PARENT, || {
        Kernel::boot_with_backend(IsolationMode::Lxfi, backend)
    });
    k.pci_add_device(0x8086, 0x100e, 11);
    for spec in [mods::e1000::spec(), echod_spec()] {
        let name = spec.name.clone();
        tr.call(Layer::LoaderLoad, 0, NO_PARENT, || k.load_module(spec))
            .map_err(|e| format!("load {name}: {e:?}"))?;
    }
    let probed = tr.call(Layer::PciProbe, 0, NO_PARENT, || {
        k.enter(|k| k.pci_probe_all())
    });
    if probed != Ok(1) {
        return Err(format!("pci_probe_all: {probed:?}"));
    }
    let dev = *k.net().devices.last().ok_or("no net device")?;
    let sck = k
        .enter(|k| k.sys_socket(ECHO_FAMILY))
        .map_err(|e| format!("sys_socket: {e:?}"))?;
    let mut rig = Rig {
        k,
        dev,
        sck,
        next_seq: 0,
        dropped: 0,
        sent: 0,
        transcript: None,
        to_free: Vec::new(),
        errors: Vec::new(),
    };
    // Warm-up: fill slab magazines, writer sets and guard caches on
    // every path a workload takes, and let lazy state settle.
    let mut ok = true;
    for i in 0..WARM_PKTS {
        ok &= rig.tx(tr, i, NO_PARENT);
    }
    for _ in 0..WARM_REQS / WARM_BURST {
        let now = Instant::now();
        ok &= rig.serve(tr, &[now; WARM_BURST as usize], |_, _, _, _| {}) == WARM_BURST;
    }
    for (i, &which) in rotation.iter().enumerate() {
        ok &= rig.churn_cycle(tr, i as u64, CHURN_SPECS[which](), Instant::now());
    }
    rig.free_consumed(tr, 0);
    if !ok || !rig.errors.is_empty() {
        return Err(format!("warm-up failed: {:?}", rig.errors));
    }
    Ok(rig)
}

impl Rig {
    fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn note(&mut self, out: u64) {
        if let Some(t) = &mut self.transcript {
            t.push(out);
        }
    }

    /// Frees the consumed skbs once at least `min` (and at least one)
    /// are waiting.
    fn free_consumed(&mut self, tr: &mut Tracer, min: usize) {
        let n = self.to_free.len();
        if n == 0 || n < min {
            return;
        }
        let skbs = std::mem::take(&mut self.to_free);
        let freed = tr.call_n(Layer::SlabFree, self.next_seq, NO_PARENT, n as u32, || {
            skbs.iter().try_for_each(|&skb| {
                self.k
                    .enter(|k| free_skb_raw(k, skb).map(|()| 0u64))
                    .map(drop)
            })
        });
        if let Err(e) = freed {
            self.fail(format!("free_skb_raw: {e:?}"));
        }
    }

    /// The leak gauges now.
    pub fn gauges(&self) -> Gauges {
        let core = self.k.runtime_core();
        Gauges {
            principals_live: core.principal_gauges().0,
            writer_sets_live: core.index_set_count() as u64,
            slab_live: self.k.slab().live_count() as u64,
            index_intervals: self.k.rt.index_interval_count() as u64,
        }
    }

    /// Checks that must hold whenever no op is in flight: the TX
    /// counter matches the packets sent, every accepted frame was
    /// served, no module faulted and the kernel did not panic.
    pub fn quiescent_checks(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let tx = self.k.net_tx_packets(self.dev);
        if tx != self.sent {
            bad.push(format!("TX counter {tx} != {} packets sent", self.sent));
        }
        let (served, dropped) = {
            let net = self.k.net();
            (net.rx_total, net.rx_dropped())
        };
        if served != self.next_seq || dropped != self.dropped {
            bad.push(format!(
                "{served} frames reached netif_rx and {dropped} were dropped; \
                 expected {} and {}",
                self.next_seq, self.dropped
            ));
        }
        if self.k.fault_count() != 0 {
            bad.push(format!("fault records: {:?}", self.k.last_fault()));
        }
        if let Some(p) = self.k.panic_reason() {
            bad.push(format!("kernel panic: {p}"));
        }
        bad
    }

    /// Starts recording outputs for the differential replay.
    fn start_transcript(&mut self) {
        self.transcript = Some(Vec::new());
    }

    /// Stops recording and returns what the replay must reproduce.
    fn finish_transcript(&mut self) -> Replay {
        Replay {
            outputs: self.transcript.take().unwrap_or_default(),
            counters: Counters::read(&self.k),
        }
    }

    /// One TX packet through the resident e1000; `true` when the driver
    /// took it.
    fn tx(&mut self, tr: &mut Tracer, op: u64, parent: u32) -> bool {
        let dev = self.dev;
        let r = tr.call(Layer::NetTx, op, parent, || {
            self.k.enter(|k| k.net_send_packet(dev, PKT_BYTES))
        });
        self.sent += 1;
        self.note(*r.as_ref().unwrap_or(&u64::MAX));
        let ok = r == Ok(0);
        if !ok {
            self.fail(format!("tx op {op}: {r:?}"));
        }
        ok
    }

    /// Wires one request per entry of `dues` (their due times) onto the
    /// RX ring, then serves each frame the ring accepted: `recvmsg` into
    /// echod, then the TX reply, which answers it. Its skb joins the
    /// group freed later. `done(i, queue_wait_us, tx_time, end)`
    /// runs for each request `i` answered correctly; the queue wait,
    /// from due time to the start of `recvmsg`, is known only when
    /// tracing. Returns the requests answered correctly.
    fn serve(
        &mut self,
        tr: &mut Tracer,
        dues: &[Instant],
        mut done: impl FnMut(usize, f32, Duration, Instant),
    ) -> u64 {
        let (dev, sck) = (self.dev, self.sck);
        let n = dues.len() as u64;
        let first = self.next_seq;
        let wired = tr.call(Layer::NetRxWire, first, NO_PARENT, || {
            self.k.enter(|k| k.net_rx_wire(dev, n))
        });
        // The previous batch was served in full, so the ring is empty
        // and takes exactly its capacity; the rest is overrun.
        let accepted = n.min(RX_RING_SLOTS);
        self.dropped += n - accepted;
        if wired != Ok(accepted) {
            self.fail(format!("net_rx_wire({n}) at seq {first}: {wired:?}"));
        }
        self.note(*wired.as_ref().unwrap_or(&u64::MAX));
        let skbs = std::mem::take(&mut self.k.net().rx_queue);
        if skbs.len() as u64 != accepted {
            self.fail(format!("{} of {accepted} frames delivered", skbs.len()));
        }
        let mut answered = 0;
        for (i, skb) in skbs.into_iter().enumerate() {
            let want = self.next_seq;
            self.next_seq += 1;
            let seq = self
                .k
                .mem
                .read_word(skb + sk_buff::DATA as u64)
                .and_then(|data| self.k.mem.read_word(data + 8))
                .unwrap_or(u64::MAX);
            let due = dues.get(i).copied().unwrap_or_else(Instant::now);
            let op = tr.open(want, due);
            let echoed = tr.call(Layer::SocketRecvmsg, want, op, || {
                self.k.enter(|k| k.sys_recvmsg(sck, seq, ECHO_WORK))
            });
            let qwait_us = tr.last_start().saturating_sub(tr.ns(due)) as f32 / 1e3;
            let t_tx = Instant::now();
            let replied = tr.call(Layer::NetTx, want, op, || {
                self.k.enter(|k| k.net_send_packet(dev, PKT_BYTES))
            });
            let end = Instant::now();
            tr.close(op, end);
            self.sent += 1;
            self.to_free.push(skb);
            self.note(seq);
            self.note(*echoed.as_ref().unwrap_or(&u64::MAX));
            self.note(*replied.as_ref().unwrap_or(&u64::MAX));
            if seq == want && echoed == Ok(seq) && replied == Ok(0) {
                answered += 1;
                done(i, qwait_us, end - t_tx, end);
            } else {
                self.fail(format!(
                    "request {want}: seq {seq}, echo {echoed:?}, reply {replied:?}"
                ));
            }
        }
        self.free_consumed(tr, FREE_GROUP);
        answered
    }

    /// One churn cycle: load `spec`, then unload it. `true` when both
    /// succeed.
    fn churn_cycle(&mut self, tr: &mut Tracer, i: u64, spec: ModuleSpec, due: Instant) -> bool {
        let name = spec.name.clone();
        let op = tr.open(i, due);
        let loaded = tr.call(Layer::LoaderLoad, i, op, || self.k.load_module(spec));
        let unloaded = match &loaded {
            Ok(id) => tr.call(Layer::LoaderUnload, i, op, || self.k.unload_module(*id)),
            Err(_) => Ok(()),
        };
        tr.close(op, Instant::now());
        let ok = loaded.is_ok() && unloaded.is_ok();
        self.note(u64::from(ok));
        if !ok {
            self.fail(format!(
                "cycle {i} ({name}): load {loaded:?}, unload {unloaded:?}"
            ));
        }
        ok
    }
}

/// When a pass stops: after `time`, or once `ops` ops were attempted,
/// whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Wall time.
    pub time: Duration,
    /// Ops attempted.
    pub ops: u64,
}

impl Stop {
    /// Stops after `time`.
    pub fn after(time: Duration) -> Self {
        Stop {
            time,
            ops: u64::MAX,
        }
    }

    fn reached(&self, start: Instant, now: Instant, ops: u64) -> bool {
        now.duration_since(start) >= self.time || ops >= self.ops
    }
}

/// Guard-runtime and modeled-cycle counters of the CPU the workload
/// runs on. Cycles are *modeled*: interpreted instructions plus guards
/// priced with `GuardCosts::default()`, not measured time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Guards executed, in `ALL_GUARD_KINDS` order.
    pub guards: [u64; 5],
    /// Mem-write checks the write-guard cache answered.
    pub write_cache_hits: u64,
    /// Mem-write checks that consulted the cache and missed.
    pub write_cache_misses: u64,
    /// Write-epoch bumps caused by revocation.
    pub epoch_bumps: u64,
    /// Transfers by the single-holder fast path.
    pub transfer_fast: u64,
    /// Transfers by the full sweep.
    pub transfer_slow: u64,
    /// Modeled cycles.
    pub cycles: u64,
}

impl Counters {
    /// The counters of `k`'s CPU now.
    pub fn read(k: &Kernel) -> Self {
        let s = &k.rt.stats;
        Counters {
            guards: ALL_GUARD_KINDS.map(|g| s.count(g)),
            write_cache_hits: s.write_cache_hits,
            write_cache_misses: s.write_cache_misses,
            epoch_bumps: s.epoch_bumps,
            transfer_fast: s.transfer_fast,
            transfer_slow: s.transfer_slow,
            cycles: k.total_cycles(),
        }
    }

    /// Counts accrued since `before`.
    pub fn since(self, before: Counters) -> Self {
        Counters {
            guards: std::array::from_fn(|i| self.guards[i] - before.guards[i]),
            write_cache_hits: self.write_cache_hits - before.write_cache_hits,
            write_cache_misses: self.write_cache_misses - before.write_cache_misses,
            epoch_bumps: self.epoch_bumps - before.epoch_bumps,
            transfer_fast: self.transfer_fast - before.transfer_fast,
            transfer_slow: self.transfer_slow - before.transfer_slow,
            cycles: self.cycles - before.cycles,
        }
    }

    /// Guards of `kind`.
    pub fn guard(&self, kind: GuardKind) -> u64 {
        self.guards[ALL_GUARD_KINDS
            .iter()
            .position(|&g| g == kind)
            .expect("listed kind")]
    }
}

/// A window closes once it spans [`WINDOW_S`] and holds at least
/// [`WINDOW_OPS`] answered ops. A shared host takes the process off
/// the CPU for 0.1-20 ms tens of times a second; short windows keep
/// most windows clear of those stalls, so that statistics across
/// windows read the kernel rather than the host.
pub const WINDOW_S: f64 = 0.01;
/// See [`WINDOW_S`].
pub const WINDOW_OPS: usize = 100;

/// What one window measured.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Answered ops per second of wall time.
    pub ops_per_s: f64,
    /// Median op latency, µs, from due time.
    pub p50_us: f64,
    /// 99th-percentile op latency, µs.
    pub p99_us: f64,
    /// Mean op latency, µs.
    pub mean_us: f64,
    /// e1000 TX packets per second of time spent sending them.
    pub tx_pps: f64,
}

/// The window being filled.
#[derive(Debug)]
struct OpenWindow {
    since: Instant,
    lat_us: Vec<f32>,
    tx_pkts: u64,
    tx_s: f64,
}

impl OpenWindow {
    fn new(since: Instant) -> Self {
        OpenWindow {
            since,
            lat_us: Vec::new(),
            tx_pkts: 0,
            tx_s: 0.0,
        }
    }
}

/// One measured pass of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Ops attempted (packets, requests offered, churn cycles).
    pub attempted: u64,
    /// Ops that failed or were dropped.
    pub failed: u64,
    /// Closed windows, in order; the partial window at the end of the
    /// pass is left out.
    pub windows: Vec<WindowStats>,
    open: OpenWindow,
    /// Every answered op's latency, µs, in order; kept for
    /// `module_churn` only, whose ops are few.
    pub lat_us: Option<Vec<f32>>,
    /// TX packets sent by the pass, and the time spent sending them, s.
    pub tx_pkts: u64,
    /// See [`Pass::tx_pkts`].
    pub tx_s: f64,
    /// Wall time of the pass, s.
    pub elapsed_s: f64,
    /// Time the generator spent waiting for the next due request, s.
    pub wait_s: f64,
    /// Traced passes: generator lateness per request, µs (from due to
    /// the wire call that carried it; closed loops: to the op's first
    /// call).
    pub late_us: Vec<f32>,
    /// Traced passes: from due to the start of the op's service call
    /// (`recvmsg`, `net_send_packet` or `load_module`), µs.
    pub qwait_us: Vec<f32>,
    /// Counters accrued during the pass.
    pub counters: Counters,
    /// Inputs of the replayed prefix and the outputs it must reproduce.
    pub prefix: Option<(Vec<u64>, Replay)>,
}

impl Pass {
    fn new(start: Instant, keep_lat: bool) -> Self {
        Pass {
            attempted: 0,
            failed: 0,
            windows: Vec::new(),
            open: OpenWindow::new(start),
            lat_us: keep_lat.then(Vec::new),
            tx_pkts: 0,
            tx_s: 0.0,
            elapsed_s: 0.0,
            wait_s: 0.0,
            late_us: Vec::new(),
            qwait_us: Vec::new(),
            counters: Counters::default(),
            prefix: None,
        }
    }

    /// Records an op answered correctly at `end`, `lat` after it was due.
    fn answered(&mut self, lat: Duration, end: Instant) {
        if let Some(all) = &mut self.lat_us {
            all.push(us(lat));
        }
        let w = &mut self.open;
        w.lat_us.push(us(lat));
        let wall_s = (end - w.since).as_secs_f64();
        if wall_s >= WINDOW_S && w.lat_us.len() >= WINDOW_OPS {
            let n = w.lat_us.len() as f64;
            self.windows.push(WindowStats {
                ops_per_s: n / wall_s,
                p50_us: quantile(&mut w.lat_us, 0.50),
                p99_us: quantile(&mut w.lat_us, 0.99),
                mean_us: w.lat_us.iter().map(|&l| f64::from(l)).sum::<f64>() / n,
                tx_pps: w.tx_pkts as f64 / w.tx_s,
            });
            self.open = OpenWindow::new(end);
        }
    }

    /// Records `pkts` TX packets that took `d` to send.
    fn sent(&mut self, pkts: u64, d: Duration) {
        self.open.tx_pkts += pkts;
        self.open.tx_s += d.as_secs_f64();
        self.tx_pkts += pkts;
        self.tx_s += d.as_secs_f64();
    }
}

fn us(d: Duration) -> f32 {
    d.as_secs_f64() as f32 * 1e6
}

/// Wait from an op span's start (its due time) to its first call.
fn first_call_wait(tr: &Tracer, op: u32) -> f32 {
    let spans = &tr.spans;
    match (spans.get(op as usize), spans.get(op as usize + 1)) {
        (Some(o), Some(c)) => c.start.saturating_sub(o.start) as f32 / 1e3,
        _ => 0.0,
    }
}

/// Runs one measured pass of `w` on a set-up rig.
pub fn run_pass(w: Workload, rig: &mut Rig, tr: &mut Tracer, seed: u64, stop: Stop) -> Pass {
    let before = Counters::read(&rig.k);
    rig.start_transcript();
    let start = Instant::now();
    let mut p = Pass::new(start, w == Workload::ModuleChurn);
    match w {
        Workload::TxStream => tx_stream(rig, tr, stop, start, &mut p),
        Workload::EchoOpen => echo_open(rig, tr, seed, stop, start, &mut p),
        Workload::ModuleChurn => module_churn(rig, tr, seed, stop, start, &mut p),
    }
    rig.free_consumed(tr, 0);
    p.elapsed_s = start.elapsed().as_secs_f64();
    rig.transcript = None;
    p.counters = Counters::read(&rig.k).since(before);
    p
}

fn tx_stream(rig: &mut Rig, tr: &mut Tracer, stop: Stop, start: Instant, p: &mut Pass) {
    let mut due = start;
    let mut i = 0;
    while !stop.reached(start, due, i) {
        let op = tr.open(i, due);
        let ok = rig.tx(tr, i, op);
        let end = Instant::now();
        tr.close(op, end);
        p.attempted += 1;
        p.sent(1, end - due);
        if ok {
            p.answered(end - due, end);
        } else {
            p.failed += 1;
        }
        if tr.is_on() {
            let wait = first_call_wait(tr, op);
            p.late_us.push(wait);
            p.qwait_us.push(wait);
        }
        due = end;
        i += 1;
        if i == PREFIX_PKTS {
            p.prefix = Some((vec![i], rig.finish_transcript()));
        }
    }
}

/// Seeded Poisson arrivals at [`ECHO_RATE`], as offsets from the start
/// of the pass.
struct Arrivals {
    rng: Rng,
    t: f64,
}

impl Arrivals {
    fn next(&mut self) -> Duration {
        self.t += -self.rng.unit().ln() / ECHO_RATE;
        Duration::from_secs_f64(self.t)
    }
}

fn echo_open(rig: &mut Rig, tr: &mut Tracer, seed: u64, stop: Stop, start: Instant, p: &mut Pass) {
    let mut arrivals = Arrivals {
        rng: Rng::new(seed),
        t: 0.0,
    };
    let mut next = arrivals.next();
    let mut batches = Vec::new();
    let mut dues = Vec::new();
    let tracing = tr.is_on();
    while next < stop.time && p.attempted < stop.ops {
        let now = start.elapsed();
        if next > now {
            let w0 = Instant::now();
            while start.elapsed() < next {
                std::hint::spin_loop();
            }
            let w1 = Instant::now();
            tr.record(Layer::BenchWait, p.attempted, w0, w1);
            p.wait_s += (w1 - w0).as_secs_f64();
            continue;
        }
        dues.clear();
        while next <= now
            && next < stop.time
            && p.attempted + (dues.len() as u64) < stop.ops
            && (dues.len() as u64) < WIRE_BATCH
        {
            dues.push(start + next);
            next = arrivals.next();
        }
        let n = dues.len() as u64;
        p.attempted += n;
        let wire_span = tr.spans.len();
        let answered = rig.serve(tr, &dues, |i, qwait_us, tx_time, end| {
            p.sent(1, tx_time);
            p.answered(end - dues[i], end);
            if tracing {
                p.qwait_us.push(qwait_us);
            }
        });
        if let Some(wire) = tr.spans.get(wire_span) {
            for &due in &dues {
                p.late_us
                    .push(wire.start.saturating_sub(tr.ns(due)) as f32 / 1e3);
            }
        }
        p.failed += n - answered;
        if p.prefix.is_none() {
            batches.push(n);
            if p.attempted >= PREFIX_REQS {
                p.prefix = Some((std::mem::take(&mut batches), rig.finish_transcript()));
            }
        }
    }
}

fn module_churn(
    rig: &mut Rig,
    tr: &mut Tracer,
    seed: u64,
    stop: Stop,
    start: Instant,
    p: &mut Pass,
) {
    let order = churn_rotation(seed);
    let mut i = 0;
    let mut now = start;
    let mut inputs = Vec::new();
    while i % 6 != 0 || !stop.reached(start, now, i) {
        let which = order[(i % 6) as usize];
        let spec = CHURN_SPECS[which]();
        let op = tr.spans.len() as u32;
        let due = Instant::now();
        let mut ok = rig.churn_cycle(tr, i, spec, due);
        let end = Instant::now();
        if tr.is_on() {
            let wait = first_call_wait(tr, op);
            p.late_us.push(wait);
            p.qwait_us.push(wait);
        }
        for _ in 0..CHURN_TX {
            ok &= rig.tx(tr, i, NO_PARENT);
        }
        now = Instant::now();
        p.sent(CHURN_TX, now - end);
        p.attempted += 1;
        if ok {
            p.answered(end - due, now);
        } else {
            p.failed += 1;
        }
        i += 1;
        if p.prefix.is_none() {
            inputs.push(which as u64);
            if i == PREFIX_CYCLES {
                p.prefix = Some((std::mem::take(&mut inputs), rig.finish_transcript()));
            }
        }
    }
}

/// Replays a measured prefix under `Backend::Interp` on a fresh kernel.
pub fn replay(w: Workload, seed: u64, inputs: &[u64]) -> Result<Replay, String> {
    let mut tr = Tracer::off();
    let mut rig = setup(Backend::Interp, &mut tr, churn_rotation(seed))?;
    rig.start_transcript();
    match w {
        Workload::TxStream => {
            for i in 0..inputs[0] {
                rig.tx(&mut tr, i, NO_PARENT);
            }
        }
        Workload::EchoOpen => {
            for &n in inputs {
                let dues = vec![Instant::now(); n as usize];
                rig.serve(&mut tr, &dues, |_, _, _, _| {});
            }
        }
        Workload::ModuleChurn => {
            for (i, &which) in inputs.iter().enumerate() {
                let spec = CHURN_SPECS[which as usize]();
                rig.churn_cycle(&mut tr, i as u64, spec, Instant::now());
                for _ in 0..CHURN_TX {
                    rig.tx(&mut tr, i as u64, NO_PARENT);
                }
            }
        }
    }
    Ok(rig.finish_transcript())
}

/// Times `rewrite_module` and `verify_soundness` directly on each churn
/// spec, `rounds` times over (traced runs only).
pub fn side_measure(tr: &mut Tracer, rounds: u64) -> Result<(), String> {
    for r in 0..rounds {
        for f in CHURN_SPECS {
            let spec = f();
            let rw = tr.call(Layer::RewriterRewrite, r, NO_PARENT, || {
                rewrite_module(&spec.program, RewriteOptions::default())
            });
            tr.call(Layer::VerifierVerify, r, NO_PARENT, || {
                verify_soundness(&rw.program, SoundnessPolicy::module())
            })
            .map_err(|e| format!("soundness of {}: {:?}", spec.name, e.first()))?;
        }
    }
    Ok(())
}
