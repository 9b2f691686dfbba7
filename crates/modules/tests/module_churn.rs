//! Module churn on one booted kernel: unloading a module forgets what it
//! registered, and load/unload cycles leave the kernel's registries at
//! one level — the runtime's module and principal ids are recycled, and
//! the socket and device-mapper tables drop the dead module's entries.

use std::collections::BTreeSet;

use lxfi_kernel::{IsolationMode, Kernel, KernelError, ModuleSpec};
use lxfi_machine::Trap;
use lxfi_modules as mods;

use mods::econet::{CRASH_MAGIC, ECONET_FAMILY};

#[test]
fn unload_forgets_protocol_and_dm_target_registrations() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let families = k.sock().families.len();
    let types = k.dm().target_types.len();

    let econet = k.load_module(mods::econet::spec()).unwrap();
    k.enter(|k| k.sys_socket(ECONET_FAMILY)).unwrap();
    k.unload_module(econet).unwrap();
    assert_eq!(k.sock().families.len(), families);
    assert!(
        matches!(k.sys_socket(ECONET_FAMILY), Err(Trap::BadRef(_))),
        "no econet sockets once econet is gone"
    );
    // rds moves into econet's window; econet's family must not resolve
    // to whatever rds put at the old ops table's address.
    let rds = k.load_module(mods::rds::spec()).unwrap();
    assert_eq!(rds, econet, "rds reuses econet's slot");
    assert!(matches!(k.sys_socket(ECONET_FAMILY), Err(Trap::BadRef(_))));
    k.enter(|k| k.sys_socket(mods::rds::RDS_FAMILY)).unwrap();
    assert!(k.module_is_live(rds));

    let zero = k.load_module(mods::dm_zero::spec()).unwrap();
    k.enter(|k| k.dm_create(mods::dm_zero::TARGET_TYPE, 0))
        .unwrap();
    k.unload_module(zero).unwrap();
    assert_eq!(k.dm().target_types.len(), types);
    assert!(
        matches!(
            k.dm_create(mods::dm_zero::TARGET_TYPE, 0),
            Err(Trap::BadRef(_))
        ),
        "no dm-zero devices once dm-zero is gone"
    );
    assert_eq!(k.fault_count(), 0);
    assert!(k.panic_reason().is_none());
}

/// The six modules the churn rotation loads and unloads.
const CHURN: [fn() -> ModuleSpec; 6] = [
    mods::econet::spec,
    mods::can_bcm::spec,
    mods::rds::spec,
    mods::can::spec,
    mods::dm_zero::spec,
    mods::dm_crypt::spec,
];

/// 50 rotations of the six modules: 300 load/unload cycles.
const ROTATIONS: usize = 50;

#[test]
fn three_hundred_churn_cycles_keep_the_registries_flat() {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let core = k.runtime_core();
    let benign = k.user_alloc(16);
    k.mem.write_word(benign, 7).unwrap();
    let crash = k.user_alloc(16);
    k.mem.write_word(crash, CRASH_MAGIC).unwrap();
    let mut level = None;
    let mut mids = BTreeSet::new();
    for rotation in 0..ROTATIONS {
        for (i, spec) in CHURN.iter().enumerate() {
            let id = k.load_module(spec()).unwrap();
            let mid = k.runtime_module(id).unwrap();
            mids.insert(mid);
            if i == 0 {
                // Every econet cycle talks on a socket, which names an
                // instance principal.
                let sock = k.enter(|k| k.sys_socket(ECONET_FAMILY)).unwrap();
                if rotation != ROTATIONS / 2 {
                    k.enter(|k| k.sys_sendmsg(sock, benign, 16)).unwrap();
                    k.unload_module(id).unwrap();
                    continue;
                }
                // Crash econet halfway through, long after its runtime
                // id was first recycled: the quarantine must name it.
                let fault = match k.enter(|k| k.sys_sendmsg(sock, crash, 16)) {
                    Err(KernelError::ModuleFault(f)) => *f,
                    other => panic!("expected econet to fault, got {other:?}"),
                };
                assert_eq!(fault.id, Some(id));
                assert_eq!(fault.mid, Some(mid));
                assert_eq!(fault.module, "econet");
                let culprit = fault.principal.expect("an econet principal");
                assert_eq!(core.principal_module(culprit), mid);
                assert!(!k.module_is_live(id), "quarantined, not unloaded");
                continue;
            }
            k.unload_module(id).unwrap();
        }
        let now = (
            core.principal_count(),
            core.module_count(),
            core.principal_gauges().0,
            k.sock().families.len(),
            k.dm().target_types.len(),
        );
        match level {
            None => level = Some(now),
            Some(l) => assert_eq!(now, l, "registries grew in rotation {rotation}"),
        }
    }
    assert_eq!(mids.len(), 1, "every load reused one runtime id: {mids:?}");
    assert_eq!(k.fault_count(), 1, "only the deliberate crash");
    assert!(k.panic_reason().is_none());
}
