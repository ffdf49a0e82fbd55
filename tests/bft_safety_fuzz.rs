//! Randomized fault schedules against PBFT safety: a proptest strategy
//! over [`Scenario`], and Byzantine rows swept over seeds 1–5.
//!
//! Each case builds a 4-replica group, assigns a random Byzantine
//! behaviour to at most `f = 1` replica, injects random network loss and a
//! possible partition of one backup, submits a random burst, and runs a
//! bounded amount of work. The runner asserts the core safety property —
//! **no two replicas ever execute different batches at the same sequence
//! number** — whatever the schedule. Liveness is only expected when the
//! schedule is benign enough to guarantee it.

// This file runs one group of the table; `--test scenarios` lints it all.
#[allow(dead_code)]
#[macro_use]
mod scenarios;

use proptest::prelude::*;
use reptor::{ByzantineMode, Stack};
use simnet::{ChaosAction, HostId};

use scenarios::scenario::{run, Expect, Ops, Scenario, Step, When};

fuzz_rows!(row_tests);

const MODES: [ByzantineMode; 4] = [
    ByzantineMode::Crash,
    ByzantineMode::SilentPrimary,
    ByzantineMode::EquivocatingPrimary,
    ByzantineMode::CorruptMacs,
];

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::option::of((0usize..4, 0usize..4)),
        proptest::collection::vec((0u32..4, 0u32..4, 1u8..30), 0..3),
        proptest::option::of(1usize..4),
        1u64..8,
        any::<u64>(),
    )
        .prop_map(|(byzantine, losses, partition, requests, seed)| {
            let benign = byzantine.is_none() && partition.is_none() && losses.is_empty();
            // Random directional loss between replica hosts.
            let loss = losses
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, pct)| {
                    let (src, dst, p) = (HostId(a), HostId(b), pct as f64 / 100.0);
                    Step::Chaos(When::Now, ChaosAction::SetLoss { src, dst, p })
                });
            let s = Scenario::new(Stack::Direct, seed)
                // At most one Byzantine replica (f = 1).
                .steps(byzantine.map(|(r, mode)| Step::Byzantine(r, MODES[mode])))
                .steps(loss)
                // Possibly fully partition one backup (never the client).
                .steps(partition.map(|node| Step::Isolate(node, When::Now)))
                // The schedule may prevent liveness, so the run is bounded
                // and need not complete.
                .steps([
                    Step::Burst(Ops::Incs(requests)),
                    Step::Attempt(requests, 1_500_000),
                ])
                .expect([Expect::LogsMatchStats]);
            match benign {
                true => s.expect([Expect::Completed(requests)]),
                false => s,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        // Each case runs a full cluster; keep debug builds brisk.
        cases: if cfg!(debug_assertions) { 8 } else { 24 },
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    #[test]
    fn pbft_safety_holds_under_random_faults(scenario in arb_scenario()) {
        run(&Scenario { name: "pbft_safety_holds_under_random_faults", ..scenario });
    }
}
