//! Spans for the traced run: one span around each public kernel call
//! the benchmark makes, kept in memory and written out when the run
//! ends. Spans come from the benchmark's own code only; nothing inside
//! the kernel is instrumented.

use std::io::{BufWriter, Write};
use std::time::Instant;

/// What a span covers: a layer's public call, the benchmark's own
/// waiting, or a whole op (the root the layer calls hang under).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Kernel::boot_with_backend`.
    Boot,
    /// `pci_probe_all`: driver probe and RX-ring binding.
    PciProbe,
    /// `net_send_packet`: skb alloc, TX thunk, e1000 xmit.
    NetTx,
    /// `net_rx_wire`, including the NAPI poll the enter epilogue runs.
    NetRxWire,
    /// `sys_recvmsg` into echod.
    SocketRecvmsg,
    /// `free_skb_raw`, over a group of consumed skbs.
    SlabFree,
    /// `load_module`.
    LoaderLoad,
    /// `unload_module`.
    LoaderUnload,
    /// `rewrite_module`, timed directly (side measurement).
    RewriterRewrite,
    /// `verify_soundness`, timed directly (side measurement).
    VerifierVerify,
    /// The open-loop generator spinning until the next request is due.
    BenchWait,
    /// One op, from its due time to its completion.
    Op,
}

/// Every layer whose calls are timed, in report order.
pub const CALL_LAYERS: [Layer; 10] = [
    Layer::Boot,
    Layer::PciProbe,
    Layer::NetTx,
    Layer::NetRxWire,
    Layer::SocketRecvmsg,
    Layer::SlabFree,
    Layer::LoaderLoad,
    Layer::LoaderUnload,
    Layer::RewriterRewrite,
    Layer::VerifierVerify,
];

impl Layer {
    /// The span name, `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Boot => "kernel.boot",
            Layer::PciProbe => "pci.probe",
            Layer::NetTx => "net.tx",
            Layer::NetRxWire => "net.rx_wire",
            Layer::SocketRecvmsg => "socket.recvmsg",
            Layer::SlabFree => "slab.free",
            Layer::LoaderLoad => "loader.load",
            Layer::LoaderUnload => "loader.unload",
            Layer::RewriterRewrite => "rewriter.rewrite",
            Layer::VerifierVerify => "verifier.verify",
            Layer::BenchWait => "bench.wait",
            Layer::Op => "op",
        }
    }
}

/// Parent of a span that hangs under no op.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub layer: Layer,
    /// Index of the enclosing op span, or [`NO_PARENT`].
    pub parent: u32,
    /// Op id: the wire sequence number, packet index or cycle index.
    pub op: u64,
    /// Calls the span covers (more than one only for calls too short
    /// to time one at a time).
    pub calls: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// The span recorder. Off, it records nothing and takes no timestamps.
pub struct Tracer {
    on: bool,
    base: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Tracer {
            on: true,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// `t` in ns since the tracer started.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Runs `f` as one span of `layer`.
    pub fn call<R>(&mut self, layer: Layer, op: u64, parent: u32, f: impl FnOnce() -> R) -> R {
        self.call_n(layer, op, parent, 1, f)
    }

    /// Runs `f`, which makes `calls` calls of `layer`, as one span.
    pub fn call_n<R>(
        &mut self,
        layer: Layer,
        op: u64,
        parent: u32,
        calls: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            parent,
            op,
            calls,
            start: self.ns(start),
            end: self.ns(end),
        });
        r
    }

    /// Start (ns) of the span recorded last; 0 when off.
    pub fn last_start(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.start)
    }

    /// Opens an op span at `due`; returns its index for the op's calls
    /// to name as parent ([`NO_PARENT`] when off).
    pub fn open(&mut self, op: u64, due: Instant) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let at = self.ns(due);
        self.spans.push(Span {
            layer: Layer::Op,
            parent: NO_PARENT,
            op,
            calls: 1,
            start: at,
            end: at,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes an op span opened by [`Tracer::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        if id != NO_PARENT {
            let end = self.ns(end);
            self.spans[id as usize].end = end;
        }
    }

    /// Records a span whose ends the caller already timed.
    pub fn record(&mut self, layer: Layer, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                layer,
                parent: NO_PARENT,
                op,
                calls: 1,
                start: self.ns(start),
                end: self.ns(end),
            });
        }
    }

    /// Spans of `layer`: (total ns, median µs per call).
    pub fn calls(&self, layer: Layer) -> (u64, f64) {
        let mut total = 0;
        let mut per_call: Vec<f64> = Vec::new();
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            total += s.end - s.start;
            per_call.push((s.end - s.start) as f64 / 1e3 / f64::from(s.calls));
        }
        per_call.sort_unstable_by(f64::total_cmp);
        let median = per_call.get(per_call.len() / 2).copied().unwrap_or(0.0);
        (total, median)
    }

    /// Writes every span as CSV (`id,parent,op,name,calls,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,op,name,calls,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{parent},{},{},{},{},{}",
                s.op,
                s.layer.name(),
                s.calls,
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}
