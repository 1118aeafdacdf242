//! The `pool.worker` fault-injection site. Its own test binary: the
//! injector is process-global, so any pool work running beside this
//! test in one process could consume the armed fault.

use std::panic::AssertUnwindSafe;

#[test]
fn injected_worker_panic_fires_through_the_fault_site() {
    qods_fault::arm(qods_fault::FaultPlan::new().once(
        qods_fault::site::POOL_WORKER,
        1,
        qods_fault::FaultAction::Panic,
    ));
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| qods_pool::run_workers(1, |_| 7)))
        .expect_err("injected panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("a re-raised worker panic carries its message");
    assert!(
        message.starts_with("pool worker panicked: injected fault"),
        "{message}"
    );
    assert_eq!(qods_fault::fired_at(qods_fault::site::POOL_WORKER), 1);
    qods_fault::disarm();
    // Disarmed again: the same call succeeds.
    assert_eq!(qods_pool::run_workers(1, |_| 7), vec![7]);
}
