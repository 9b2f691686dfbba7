//! Retired module and principal ids are reused.
//!
//! `retire_module` puts a module's id and its principals' ids on free
//! lists, and the next registrations take them back before the registry
//! grows. Without reuse, every load/unload cycle adds a module and at
//! least two principals for good, and the slot table's principal limit
//! (65,536) ends a long-running kernel after about 32,000 cycles. These
//! tests run well past that point on one core and check that reuse is
//! invisible to the guards: a recycled principal starts at an epoch above
//! any its previous tenant was cached under.

use std::sync::Arc;

use lxfi_core::{GuardHandle, PrincipalId, RawCap, RuntimeCore, Violation};

/// More register/retire cycles than the principal limit allows without
/// reuse (each cycle makes three principals).
const CYCLES: usize = 40_000;

/// The object each tenant is granted and writes through its guard.
const OBJ: u64 = 0x5000;

#[test]
fn forty_thousand_register_retire_cycles_reuse_ids() {
    let core = Arc::new(RuntimeCore::new());
    core.ensure_tombstone();
    let mut h: GuardHandle = GuardHandle::new(Arc::clone(&core));
    let mut high_water = None;
    // The previous tenant's principals, their epochs just before
    // retirement, and the one the guard cached a positive write for.
    let mut previous: Vec<(PrincipalId, u64)> = Vec::new();
    let mut cached_old = None;

    for cycle in 0..CYCLES {
        let mid = core.register_module("churn");
        let inst = core.principal_for_name(mid, 0x9000);
        let tenant = [core.shared_principal(mid), core.global_principal(mid), inst];

        if cycle > 0 {
            // Every id came back off the free lists, at a higher epoch.
            for &p in &tenant {
                let &(_, before) = previous
                    .iter()
                    .find(|&&(q, _)| q == p)
                    .unwrap_or_else(|| panic!("cycle {cycle}: {p:?} is not a recycled id"));
                assert!(
                    core.write_epoch(p) > before,
                    "cycle {cycle}: recycled {p:?} must start above epoch {before}"
                );
            }
            // The guard that cached a positive write for the old tenant
            // refuses the same address for the new one.
            let old = cached_old.expect("previous cycle cached a write");
            assert!(tenant.contains(&old), "cycle {cycle}: {old:?} recycled");
            h.set_current(Some((mid, old)));
            assert!(
                matches!(
                    h.check_write(OBJ, 8),
                    Err(Violation::MissingWrite { principal, .. }) if principal == old
                ),
                "cycle {cycle}: a stale cached grant answered for the new tenant"
            );
        }

        core.grant(inst, RawCap::write(OBJ, 64));
        h.set_current(Some((mid, inst)));
        h.check_write(OBJ, 8).expect("the tenant's own grant");
        let hits = h.stats.write_cache_hits;
        h.check_write(OBJ + 8, 8)
            .expect("the same grant, from the cache");
        assert_eq!(h.stats.write_cache_hits, hits + 1, "the write was cached");
        cached_old = Some(inst);

        let marks = (core.principal_count(), core.module_count());
        match high_water {
            None => high_water = Some(marks),
            Some(hw) => assert_eq!(marks, hw, "cycle {cycle}: registry grew"),
        }
        let (live, retired) = core.principal_gauges();
        assert_eq!(retired, 3 * cycle as u64, "retirements are counted");
        assert_eq!(live, 5, "tombstone pair plus the tenant's three");

        previous = tenant.iter().map(|&p| (p, core.write_epoch(p))).collect();
        h.set_current(None);
        let sweep = core.retire_module(mid);
        assert_eq!(sweep.principals_retired, 3);
        // Free the object: the kfree sweep drains the tombstone's copy.
        core.revoke_write_overlapping_everywhere(OBJ, 64);
    }
    assert_eq!(high_water, Some((5, 2)), "tombstone + one tenant");
    assert_eq!(core.principal_gauges(), (2, 3 * CYCLES as u64));
}

#[test]
fn retired_ids_come_back_empty_and_retiring_twice_is_a_no_op() {
    let core = RuntimeCore::new();
    let a = core.register_module("a");
    let p = core.principal_for_name(a, 0x9000);
    core.grant(p, RawCap::write(OBJ, 8));
    assert_eq!(core.retire_module(a).principals_retired, 3);
    assert!(core.is_retired(p));
    // A second retirement of the same (not yet reused) id is a no-op.
    assert_eq!(core.retire_module(a).principals_retired, 0);
    assert_eq!(core.principal_gauges().1, 3);

    // The next registration takes the id back; its principals are live.
    let b = core.register_module("b");
    assert_eq!(b, a, "module id reused");
    assert_eq!(core.module_name(b), "b");
    for q in [core.shared_principal(b), core.global_principal(b)] {
        assert!(!core.is_retired(q));
        assert_eq!(core.principal_module(q), b);
        assert_eq!(core.cap_count(q), 0, "a recycled principal starts empty");
    }
    let q = core.principal_for_name(b, 0x9000);
    assert!(!core.is_retired(q));
    assert!(!core.owns(q, RawCap::write(OBJ, 8)), "old grants stay dead");
}
