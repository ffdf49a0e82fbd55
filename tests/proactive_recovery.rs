//! Liveness and safety of epoch-based proactive recovery: a full
//! rotation refreshes every replica through restart + state transfer
//! while the group keeps serving clients.
//!
//! The scheduler's stagger bound (at most one replica mid-refresh) is
//! what keeps the agreement quorum `2f + 1 = 3` of `n = 4` intact, so the
//! rows drive a closed-loop client *through* the rotation at COP pillar
//! counts 1 and 4 and assert that progress never stops.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use scenarios::rows::{brisk_rotation, rotation_under_load};
use scenarios::scenario::{start_rotation, world, Scenario, Service};

proactive_rows!(row_tests);

/// The stagger bound of proactive recovery, sampled at every simulator
/// step: at no instant is more than one replica mid-refresh — both by the
/// scheduler's own accounting and by the observable replica state (wiped
/// log, i.e. restarted and not yet rejoined).
#[test]
fn at_most_one_replica_mid_refresh_at_any_instant() {
    let mut c = world(&Scenario {
        seed: 11,
        ..rotation_under_load(1)
    });
    let client = c.clients[0].clone();
    for _ in 0..6 {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    assert!(c.run_until_completed(6, 2_000_000));
    c.settle();

    let sched = start_rotation(&mut c, &brisk_rotation(), Service::Counter);
    let mut guard = 0u64;
    while sched.stats().rotations_completed < 1 {
        assert!(c.sim.step(), "sim went idle mid-rotation");
        assert!(
            sched.refreshing().map_or(0, |_| 1) <= 1,
            "scheduler tracks more than one refresh"
        );
        let wiped = c.replicas.iter().filter(|r| r.last_executed() == 0).count();
        assert!(
            wiped <= 1,
            "{wiped} replicas mid-refresh at {}",
            c.sim.now()
        );
        guard += 1;
        assert!(guard < 10_000_000, "rotation never completed");
    }
    let stats = sched.stats();
    assert_eq!(stats.refreshes_completed, 4, "{stats:?}");
    assert_eq!(stats.refresh_timeouts, 0, "{stats:?}");
}
