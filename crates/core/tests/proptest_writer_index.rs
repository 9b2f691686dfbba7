//! Property tests for the reverse writer index (§5 scaling).
//!
//! Three implementations are driven through identical random
//! grant/revoke/transfer sequences and must agree on `writers_of` at
//! every probe:
//!
//! 1. the live [`RuntimeCore`] (whose `WriterIndex` is maintained
//!    incrementally on every capability mutation), driven through a
//!    [`GuardHandle`] so the debug-build kfree-hint cross-check runs,
//! 2. the retired global principal walk
//!    ([`RuntimeCore::writers_of_linear`] / [`LinearWriterIndex`]),
//! 3. a naive model: one `Vec<(addr, size)>` of granted ranges per
//!    principal, probed longhand with the documented saturating
//!    semantics.
//!
//! Sequences include exact revokes of still-overlapped grants (the
//! residual-coverage reinstatement path), `revoke_everywhere` transfers,
//! `kfree`-style overlapping revocation, and ranges whose end arithmetic
//! saturates near `Word::MAX`. The index's structural invariants
//! (sorted disjoint intervals inside their shard bounds, interned
//! non-empty refcounted sets, full within-shard coalescing) are
//! asserted after every operation.
//!
//! Every sequence additionally runs under **sharded** writer indexes —
//! proptest-chosen boundaries inside the op universe plus fixed
//! near-`MAX` boundaries — since shard-boundary splits must never change
//! a `writers_of` answer.

use std::sync::Arc;

use proptest::prelude::*;

use lxfi_core::{GuardHandle, LinearWriterIndex, PrincipalId, RawCap};

const NPRINC: usize = 5;

#[derive(Debug, Clone)]
enum Op {
    Grant(usize, u64, u64),
    Revoke(usize, u64, u64),
    RevokeEverywhere(u64, u64),
    RevokeOverlappingEverywhere(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small address universe so grants collide and overlap often, with
    // sizes up to several pages so intervals split and merge.
    let princ = 0usize..NPRINC;
    let addr = 0x10_0000u64..0x10_2000;
    let size = prop_oneof![1u64..64, 64u64..2000, Just(8192u64)];
    prop_oneof![
        (princ.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::RevokeEverywhere(a, s)),
        (addr, size).prop_map(|(a, s)| Op::RevokeOverlappingEverywhere(a, s)),
    ]
}

/// Ops near the top of the address space, where end arithmetic saturates.
fn arb_op_near_max() -> impl Strategy<Value = Op> {
    let princ = 0usize..NPRINC;
    let addr = prop_oneof![
        u64::MAX - 0x1000..u64::MAX,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(u64::MAX - 8),
    ];
    let size = prop_oneof![1u64..64, Just(u64::MAX), Just(u64::MAX / 2), Just(4096u64)];
    prop_oneof![
        (princ.clone(), addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Grant(p, a, s)),
        (princ, addr.clone(), size.clone()).prop_map(|(p, a, s)| Op::Revoke(p, a, s)),
        (addr.clone(), size.clone()).prop_map(|(a, s)| Op::RevokeEverywhere(a, s)),
        (addr, size).prop_map(|(a, s)| Op::RevokeOverlappingEverywhere(a, s)),
    ]
}

/// The naive model: per-principal granted ranges, probed longhand.
#[derive(Default)]
struct Naive {
    ranges: Vec<Vec<(u64, u64)>>,
}

impl Naive {
    fn new(n: usize) -> Self {
        Naive {
            ranges: vec![Vec::new(); n],
        }
    }
    fn clamp(a: u64, s: u64) -> u64 {
        s.min(u64::MAX - a)
    }
    fn grant(&mut self, p: usize, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        if s > 0 && !self.ranges[p].contains(&(a, s)) {
            self.ranges[p].push((a, s));
        }
    }
    fn revoke(&mut self, p: usize, a: u64, s: u64) {
        let s = Self::clamp(a, s);
        self.ranges[p].retain(|&(x, y)| !(x == a && y == s && s > 0));
    }
    fn revoke_overlapping(&mut self, p: usize, a: u64, s: u64) {
        if s == 0 {
            return;
        }
        let end = a.saturating_add(s);
        self.ranges[p].retain(|&(x, y)| !(x < end && a < x + y));
    }
    /// Principals with a grant overlapping any byte of the 8-byte slot.
    fn writers_of(&self, addr: u64) -> Vec<PrincipalId> {
        let end = addr.saturating_add(8);
        (0..self.ranges.len())
            .filter(|&p| self.ranges[p].iter().any(|&(x, y)| x < end && addr < x + y))
            .map(|p| PrincipalId(p as u32))
            .collect()
    }
}

/// A handle over a fresh core with `NPRINC` instance principals to mutate.
fn runtime_with_principals() -> (GuardHandle, Vec<PrincipalId>) {
    let rt: GuardHandle = GuardHandle::new(Arc::new(RuntimeCore::new()));
    let m = rt.register_module("pt");
    let princs: Vec<PrincipalId> = (0..NPRINC)
        .map(|i| rt.principal_for_name(m, 0x9000 + i as u64 * 8))
        .collect();
    (rt, princs)
}

/// Probe addresses worth checking after an op sequence: every op
/// boundary and its neighbors (where splits and saturation happen).
fn probe_points(ops: &[Op]) -> Vec<u64> {
    let mut probes = Vec::new();
    for op in ops {
        let (a, s) = match *op {
            Op::Grant(_, a, s)
            | Op::Revoke(_, a, s)
            | Op::RevokeEverywhere(a, s)
            | Op::RevokeOverlappingEverywhere(a, s) => (a, s),
        };
        let end = a.saturating_add(s.min(u64::MAX - a));
        for probe in [
            a,
            a.wrapping_sub(8),
            a.saturating_add(1),
            end.wrapping_sub(1),
            end.wrapping_sub(9),
            end,
        ] {
            probes.push(probe);
        }
    }
    probes
}

/// Drives the runtime (reverse index), the linear baseline, and the
/// naive model through one sequence, checking agreement at every step.
fn check_sequence(ops: &[Op]) {
    check_sequence_sharded(ops, Vec::new());
}

/// Like [`check_sequence`], but the runtime's writer index is sharded at
/// the given boundaries first.
fn check_sequence_sharded(ops: &[Op], boundaries: Vec<u64>) {
    let (mut rt, princs) = runtime_with_principals();
    rt.set_shard_boundaries(boundaries);
    let mut lin = LinearWriterIndex::new();
    let mut naive = Naive::new(NPRINC);
    // The linear baseline is indexed by raw PrincipalId; pre-size it so
    // writers_of compares over the same principal universe.
    for &p in &princs {
        lin.grant(p, 0, 0); // no-op grant, allocates the slot
    }

    for op in ops {
        match *op {
            Op::Grant(pi, a, s) => {
                rt.grant(princs[pi], RawCap::write(a, s));
                lin.grant(princs[pi], a, s);
                naive.grant(pi, a, s);
            }
            Op::Revoke(pi, a, s) => {
                rt.revoke(princs[pi], RawCap::write(a, s));
                lin.revoke(princs[pi], a, s);
                naive.revoke(pi, a, s);
            }
            Op::RevokeEverywhere(a, s) => {
                rt.revoke_everywhere(RawCap::write(a, s));
                for (pi, &p) in princs.iter().enumerate() {
                    lin.revoke(p, a, s);
                    naive.revoke(pi, a, s);
                }
            }
            Op::RevokeOverlappingEverywhere(a, s) => {
                rt.revoke_write_overlapping_everywhere(a, s);
                for (pi, &p) in princs.iter().enumerate() {
                    lin.revoke_overlapping(p, a, s);
                    naive.revoke_overlapping(pi, a, s);
                }
            }
        }
        rt.check_index_invariants();
    }

    // The instance principals occupy ids 2.. (after shared + global);
    // translate the naive model's dense indices for comparison.
    let id_of = |pi: usize| princs[pi];
    for probe in probe_points(ops) {
        let expect: Vec<PrincipalId> = naive
            .writers_of(probe)
            .iter()
            .map(|p| id_of(p.0 as usize))
            .collect();
        let got = rt.writers_of(probe);
        assert_eq!(got, expect, "index writers_of({probe:#x})");
        let linear_rt = rt.writers_of_linear(probe);
        assert_eq!(linear_rt, expect, "runtime linear walk ({probe:#x})");
        let linear = lin.writers_of(probe, 8);
        assert_eq!(linear, expect, "LinearWriterIndex ({probe:#x})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index, linear walk, and naive model agree under random traffic.
    #[test]
    fn writer_index_matches_naive_walk(ops in proptest::collection::vec(arb_op(), 1..40)) {
        check_sequence(&ops);
    }

    /// Same agreement where end arithmetic saturates at `Word::MAX`.
    #[test]
    fn writer_index_matches_near_max(ops in proptest::collection::vec(arb_op_near_max(), 1..30)) {
        check_sequence(&ops);
    }

    /// Mixed universes: low-address and saturating ops interleaved.
    #[test]
    fn writer_index_matches_mixed(
        low in proptest::collection::vec(arb_op(), 1..20),
        high in proptest::collection::vec(arb_op_near_max(), 1..20),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence(&ops);
    }

    /// Sharded at proptest-chosen boundaries inside (and around) the op
    /// universe: boundary splits never change an answer.
    #[test]
    fn writer_index_matches_sharded(
        ops in proptest::collection::vec(arb_op(), 1..40),
        boundaries in proptest::collection::vec(0x10_0000u64..0x10_2100, 1..5),
    ) {
        check_sequence_sharded(&ops, boundaries);
    }

    /// Sharded agreement where end arithmetic saturates: boundaries in
    /// the last pages of the address space, including one one-byte-short
    /// of `Word::MAX`.
    #[test]
    fn writer_index_matches_sharded_near_max(
        ops in proptest::collection::vec(arb_op_near_max(), 1..30),
    ) {
        check_sequence_sharded(
            &ops,
            vec![u64::MAX - 0x1100, u64::MAX - 0x800, u64::MAX - 0x100, u64::MAX - 1],
        );
    }

    /// Mixed universes over region-style shards (one boundary between
    /// the universes, several inside each).
    #[test]
    fn writer_index_matches_sharded_mixed(
        low in proptest::collection::vec(arb_op(), 1..20),
        high in proptest::collection::vec(arb_op_near_max(), 1..20),
    ) {
        let mut ops = low;
        ops.extend(high);
        check_sequence_sharded(
            &ops,
            vec![0x10_0800, 0x10_1800, 0x20_0000, u64::MAX - 0x900],
        );
    }
}

// ------------------------------------------------ in-place splice shapes
//
// The index splices the shapes of the per-packet skb lifecycle in place:
// gap inserts, extending or joining touching `{p}` neighbours, removing
// a whole `{p}` interval and trimming one at an edge. The sequences
// below are biased toward exactly those shapes: every range sits on a
// 64-byte grid so grants touch and coalesce often, few principals keep
// sets singleton, and the `Recent` ops re-revoke (or transfer) a grant
// made earlier, exactly. Each op is checked against `LinearWriterIndex`
// at every grid point, and the index's invariants (coalescing, presence
// counts, interner refcounts) after every op, for both the
// single-threaded `WriterIndex` and the sharded `RuntimeCore`.

use lxfi_core::{RuntimeCore, WriterIndex};

/// Grid cell size and cell count of a splice-shape universe.
const CELL: u64 = 64;
const CELLS: u64 = 48;
/// Principals of the splice-shape tests (few, so sets stay singleton).
const SHAPE_PRINC: usize = 3;

#[derive(Debug, Clone)]
enum ShapeOp {
    /// Grant `cells` cells from `cell` to principal `p`.
    Grant(usize, u64, u64),
    /// Exact revoke of a range that may or may not be held.
    Revoke(usize, u64, u64),
    /// Exact revoke of the `k`-th most recent grant (mod the count).
    RevokeRecent(usize),
    /// Revoke every grant of `p` overlapping the range (whole grants).
    RevokeOverlapping(usize, u64, u64),
    /// `transfer` of the `k`-th most recent grant to `dst` (or nobody).
    TransferRecent(usize, Option<usize>),
    /// `kfree`: every principal's grants overlapping the range.
    Kfree(u64, u64),
}

fn arb_shape_op() -> impl Strategy<Value = ShapeOp> {
    let p = 0usize..SHAPE_PRINC;
    let cell = 0u64..CELLS;
    let cells = prop_oneof![1u64..3, 1u64..9];
    prop_oneof![
        (p.clone(), cell.clone(), cells.clone()).prop_map(|(p, c, n)| ShapeOp::Grant(p, c, n)),
        (p.clone(), cell.clone(), cells.clone()).prop_map(|(p, c, n)| ShapeOp::Grant(p, c, n)),
        (p.clone(), cell.clone(), cells.clone()).prop_map(|(p, c, n)| ShapeOp::Revoke(p, c, n)),
        (0usize..8).prop_map(ShapeOp::RevokeRecent),
        (0usize..8).prop_map(ShapeOp::RevokeRecent),
        (p.clone(), cell.clone(), cells.clone())
            .prop_map(|(p, c, n)| ShapeOp::RevokeOverlapping(p, c, n)),
        (0usize..8, proptest::option::of(p)).prop_map(|(k, d)| ShapeOp::TransferRecent(k, d)),
        (cell, cells).prop_map(|(c, n)| ShapeOp::Kfree(c, n)),
    ]
}

/// The three index implementations a shape sequence drives.
trait ShapeIndex {
    fn grant(&mut self, p: PrincipalId, a: u64, s: u64);
    fn revoke(&mut self, p: PrincipalId, a: u64, s: u64);
    fn revoke_overlapping(&mut self, p: PrincipalId, a: u64, s: u64);
    fn transfer(&mut self, a: u64, s: u64, dst: Option<PrincipalId>);
    fn kfree(&mut self, a: u64, s: u64);
    fn writers(&self, addr: u64) -> Vec<PrincipalId>;
    fn check(&self);
}

/// The single-threaded index, maintained the way the runtime maintains
/// it: coverage removal followed by reinstating the principal's
/// surviving grants over the removed window.
struct PlainIndex {
    ix: WriterIndex,
    grants: Vec<Vec<(u64, u64)>>,
}

impl PlainIndex {
    fn new(boundaries: Vec<u64>) -> Self {
        PlainIndex {
            ix: WriterIndex::with_boundaries(boundaries),
            grants: vec![Vec::new(); SHAPE_PRINC],
        }
    }

    /// Removes `p`'s coverage of `[lo, hi)` and re-adds what its
    /// remaining grants still cover there.
    fn unindex(&mut self, p: PrincipalId, lo: u64, hi: u64) {
        self.ix.remove(p, lo, hi - lo);
        for &(a, s) in &self.grants[p.0 as usize] {
            let (clo, chi) = (a.max(lo), (a + s).min(hi));
            if clo < chi {
                self.ix.add(p, clo, chi - clo);
            }
        }
    }
}

impl ShapeIndex for PlainIndex {
    fn grant(&mut self, p: PrincipalId, a: u64, s: u64) {
        let s = s.min(u64::MAX - a);
        if s > 0 && !self.grants[p.0 as usize].contains(&(a, s)) {
            self.grants[p.0 as usize].push((a, s));
        }
        self.ix.add(p, a, s);
    }
    fn revoke(&mut self, p: PrincipalId, a: u64, s: u64) {
        let s = s.min(u64::MAX - a);
        let g = &mut self.grants[p.0 as usize];
        if let Some(i) = g.iter().position(|&x| x == (a, s) && s > 0) {
            g.swap_remove(i);
            self.unindex(p, a, a + s);
        }
    }
    fn revoke_overlapping(&mut self, p: PrincipalId, a: u64, s: u64) {
        let end = a.saturating_add(s);
        let g = &mut self.grants[p.0 as usize];
        let (dead, live): (Vec<_>, Vec<_>) =
            g.iter().partition(|&&(x, y)| s > 0 && x < end && a < x + y);
        *g = live;
        if let (Some(lo), Some(hi)) = (
            dead.iter().map(|g| g.0).min(),
            dead.iter().map(|g| g.0 + g.1).max(),
        ) {
            self.unindex(p, lo, hi);
        }
    }
    fn transfer(&mut self, a: u64, s: u64, dst: Option<PrincipalId>) {
        for p in 0..SHAPE_PRINC {
            self.revoke(PrincipalId(p as u32), a, s);
        }
        if let Some(d) = dst {
            self.grant(d, a, s);
        }
    }
    fn kfree(&mut self, a: u64, s: u64) {
        for p in 0..SHAPE_PRINC {
            self.revoke_overlapping(PrincipalId(p as u32), a, s);
        }
    }
    fn writers(&self, addr: u64) -> Vec<PrincipalId> {
        let mut w: Vec<_> = self.ix.writers_over(addr, 8).collect();
        w.sort_unstable();
        w
    }
    fn check(&self) {
        self.ix.check_invariants();
    }
}

/// The sharded, thread-safe core, driven through its public calls.
struct CoreIndex {
    core: RuntimeCore,
    princs: Vec<PrincipalId>,
}

impl CoreIndex {
    fn new(boundaries: Vec<u64>) -> Self {
        let core = RuntimeCore::with_shard_boundaries(boundaries);
        let m = core.register_module("shapes");
        let princs = (0..SHAPE_PRINC)
            .map(|i| core.principal_for_name(m, 0x9000 + i as u64 * 8))
            .collect();
        CoreIndex { core, princs }
    }
    fn id(&self, p: PrincipalId) -> PrincipalId {
        self.princs[p.0 as usize]
    }
}

impl ShapeIndex for CoreIndex {
    fn grant(&mut self, p: PrincipalId, a: u64, s: u64) {
        self.core.grant(self.id(p), RawCap::write(a, s));
    }
    fn revoke(&mut self, p: PrincipalId, a: u64, s: u64) {
        self.core.revoke(self.id(p), RawCap::write(a, s));
    }
    fn revoke_overlapping(&mut self, p: PrincipalId, a: u64, s: u64) {
        self.core.revoke_write_overlapping(self.id(p), a, s);
    }
    fn transfer(&mut self, a: u64, s: u64, dst: Option<PrincipalId>) {
        let dst = dst.map(|d| self.id(d));
        self.core.transfer_write(RawCap::write(a, s), dst);
    }
    fn kfree(&mut self, a: u64, s: u64) {
        self.core.revoke_write_overlapping_everywhere(a, s);
    }
    fn writers(&self, addr: u64) -> Vec<PrincipalId> {
        let mut w = Vec::new();
        self.core.collect_writers(addr, 8, &mut w);
        // Back to the dense indices the oracle uses.
        let mut w: Vec<_> = w
            .iter()
            .map(|p| {
                let i = self.princs.iter().position(|q| q == p).expect("known");
                PrincipalId(i as u32)
            })
            .collect();
        w.sort_unstable();
        w
    }
    fn check(&self) {
        self.core.check_index_invariants();
    }
}

/// Drives `ix` and the `LinearWriterIndex` oracle through `ops` over the
/// grid at `base`, comparing writers at every grid point (and just below
/// each cell's end, where an 8-byte slot straddles two cells) after
/// every op.
fn check_shapes(ix: &mut impl ShapeIndex, base: u64, ops: &[ShapeOp]) {
    let mut lin = LinearWriterIndex::new();
    let mut recent: Vec<(u64, u64)> = Vec::new();
    let range = |c: u64, n: u64| (base + c * CELL, n * CELL);
    let pid = |p: usize| PrincipalId(p as u32);
    for op in ops {
        match *op {
            ShapeOp::Grant(p, c, n) => {
                let (a, s) = range(c, n);
                ix.grant(pid(p), a, s);
                lin.grant(pid(p), a, s);
                recent.push((a, s));
            }
            ShapeOp::Revoke(p, c, n) => {
                let (a, s) = range(c, n);
                ix.revoke(pid(p), a, s);
                lin.revoke(pid(p), a, s);
            }
            ShapeOp::RevokeRecent(k) => {
                if let Some(&(a, s)) = recent.iter().rev().nth(k % recent.len().max(1)) {
                    for p in 0..SHAPE_PRINC {
                        ix.revoke(pid(p), a, s);
                        lin.revoke(pid(p), a, s);
                    }
                }
            }
            ShapeOp::RevokeOverlapping(p, c, n) => {
                let (a, s) = range(c, n);
                ix.revoke_overlapping(pid(p), a, s);
                lin.revoke_overlapping(pid(p), a, s);
            }
            ShapeOp::TransferRecent(k, dst) => {
                if let Some(&(a, s)) = recent.iter().rev().nth(k % recent.len().max(1)) {
                    ix.transfer(a, s, dst.map(pid));
                    for p in 0..SHAPE_PRINC {
                        lin.revoke(pid(p), a, s);
                    }
                    if let Some(d) = dst {
                        lin.grant(pid(d), a, s);
                    }
                }
            }
            ShapeOp::Kfree(c, n) => {
                let (a, s) = range(c, n);
                ix.kfree(a, s);
                for p in 0..SHAPE_PRINC {
                    lin.revoke_overlapping(pid(p), a, s);
                }
            }
        }
        ix.check();
        for c in 0..=CELLS + 8 {
            let cell = base.saturating_add(c * CELL);
            for probe in [cell, cell.saturating_sub(4)] {
                assert_eq!(
                    ix.writers(probe),
                    lin.writers_of(probe, 8),
                    "writers of {probe:#x} after {op:?}"
                );
            }
        }
    }
}

/// A grid whose cells end exactly at `Word::MAX`; ranges running past
/// it saturate.
const NEAR_MAX_BASE: u64 = u64::MAX - CELLS * CELL;
const LOW_BASE: u64 = 0x10_0000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-threaded index agrees with the oracle on splice-shaped
    /// traffic, unsharded and sharded across the grid.
    #[test]
    fn in_place_splices_match_linear_oracle(
        ops in proptest::collection::vec(arb_shape_op(), 1..48),
        cuts in proptest::collection::vec(1u64..CELLS, 0..4),
        odd in 1u64..CELL,
    ) {
        check_shapes(&mut PlainIndex::new(Vec::new()), LOW_BASE, &ops);
        // Cell-aligned cuts plus one mid-cell cut: ranges straddle both.
        let mut bounds: Vec<u64> = cuts.iter().map(|c| LOW_BASE + c * CELL).collect();
        bounds.push(LOW_BASE + 7 * CELL + odd);
        check_shapes(&mut PlainIndex::new(bounds), LOW_BASE, &ops);
    }

    /// Same, near `Word::MAX`, where range ends saturate.
    #[test]
    fn in_place_splices_match_linear_oracle_near_max(
        ops in proptest::collection::vec(arb_shape_op(), 1..48),
    ) {
        check_shapes(&mut PlainIndex::new(Vec::new()), NEAR_MAX_BASE, &ops);
        check_shapes(
            &mut PlainIndex::new(vec![NEAR_MAX_BASE + 16 * CELL + 8, u64::MAX - 1]),
            NEAR_MAX_BASE,
            &ops,
        );
    }

    /// The sharded runtime core agrees with the oracle on the same
    /// traffic, including transfers (the single-holder substitution
    /// splice) and `kfree` sweeps.
    #[test]
    fn core_splices_match_linear_oracle(
        ops in proptest::collection::vec(arb_shape_op(), 1..48),
        cuts in proptest::collection::vec(1u64..CELLS, 0..4),
    ) {
        let bounds: Vec<u64> = cuts.iter().map(|c| LOW_BASE + c * CELL).collect();
        check_shapes(&mut CoreIndex::new(bounds), LOW_BASE, &ops);
        check_shapes(
            &mut CoreIndex::new(vec![NEAR_MAX_BASE + 16 * CELL + 8]),
            NEAR_MAX_BASE,
            &ops,
        );
    }
}

/// Granting a fresh range to a principal that already holds coverage
/// elsewhere, then revoking it, reuses the interned `{p}` both ways: no
/// writer set is interned.
#[test]
fn fresh_grant_and_revoke_intern_nothing_when_singleton_is_live() {
    let core = RuntimeCore::with_shard_boundaries(vec![0x4000]);
    let m = core.register_module("fresh");
    let p = core.principal_for_name(m, 0x9000);
    core.grant(p, RawCap::write(0x1000, 64));
    let ever = core.index_sets_ever_interned();
    for (a, s) in [(0x2000, 64), (0x1040, 64), (0x3fc0, 128)] {
        core.grant(p, RawCap::write(a, s));
        core.revoke(p, RawCap::write(a, s));
        core.check_index_invariants();
        assert_eq!(
            core.index_sets_ever_interned(),
            ever,
            "grant+revoke of [{a:#x}, +{s}) interned a set"
        );
    }
}
