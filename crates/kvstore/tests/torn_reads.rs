//! Satellite property: no interleaving of region writes and
//! torn-version-stamp reads can leak a value outside the written history.
//!
//! The two-phase region update (odd begin stamp, then the full committed
//! cell) means a one-sided READ racing a write observes one of three
//! things: the old committed cell, the new committed cell, or a torn
//! intermediate whose stamps disagree (or are odd). The first proptest
//! replays every published [`RegionWrite`] byte-prefix by byte-prefix and
//! asserts the judge never *invents* a value — every `Value` verdict is a
//! value some `Put` actually wrote, and every intermediate state judges
//! `Fallback`. The second runs the full simulated stack with a
//! collision-heavy region so poisoned cells force the message path, and
//! asserts the fallback is actually taken (`kv_read_fallback`) while the
//! recorded history stays linearizable.

use std::collections::{BTreeMap, BTreeSet};

use kvstore::{
    bucket_of, cell_offset, decode_cell, judge, kv_config, KeyVerdict, KvHarness, KvStoreService,
    Stack, YcsbSpec, CELL_SIZE,
};
use proptest::prelude::*;
use reptor::{KvOp, Request, StateMachine};

const CAPACITY: usize = 8;

fn req(payload: Vec<u8>) -> Request {
    Request {
        client: 9,
        timestamp: 1,
        payload,
    }
}

/// Judges every key of the key space against `image`, asserting no verdict
/// carries a value that was never written to that key.
fn assert_no_leaked_values(
    image: &[u8],
    keys: &[Vec<u8>],
    written: &BTreeMap<Vec<u8>, BTreeSet<Vec<u8>>>,
    expect_torn_bucket: Option<usize>,
) -> Result<(), TestCaseError> {
    for key in keys {
        let b = bucket_of(key, CAPACITY);
        let off = cell_offset(b);
        let cell = decode_cell(&image[off..off + CELL_SIZE]);
        let verdict = judge(&cell, key);
        if Some(b) == expect_torn_bucket {
            prop_assert_eq!(
                verdict,
                KeyVerdict::Fallback,
                "mid-write cell must judge Fallback"
            );
            continue;
        }
        if let KeyVerdict::Value(_, val) = verdict {
            let history = written.get(key);
            prop_assert!(
                history.is_some_and(|h| h.contains(val)),
                "key {:?} returned value {:?} outside its write history",
                String::from_utf8_lossy(key),
                String::from_utf8_lossy(val),
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Region-level: replay each two-phase write prefix-by-prefix; every
    /// torn intermediate judges `Fallback` and no state ever yields an
    /// unwritten value.
    #[test]
    fn torn_interleavings_never_leak_unwritten_values(
        ops in proptest::collection::vec((0u8..3, 0u64..5, 0u64..60), 1..30),
        cut in 9usize..CELL_SIZE,
    ) {
        let keys: Vec<Vec<u8>> = (0..5u64).map(|k| format!("key{k}").into_bytes()).collect();
        let mut svc = KvStoreService::new(CAPACITY);
        let mut written: BTreeMap<Vec<u8>, BTreeSet<Vec<u8>>> = BTreeMap::new();
        let mut image = svc.read_region_image().expect("service exposes a region");
        for (op, k, v) in ops {
            let key = keys[k as usize].clone();
            match op {
                0 => {
                    let val = format!("val-{v}").into_bytes();
                    written.entry(key.clone()).or_default().insert(val.clone());
                    svc.apply(&req(KvOp::Put(key, val).encode()));
                }
                1 => {
                    svc.apply(&req(KvOp::Del(key).encode()));
                }
                _ => {
                    svc.apply(&req(KvOp::Get(key).encode()));
                }
            }
            for w in svc.drain_region_writes() {
                let off = w.offset as usize;
                let bucket = (off - kvstore::HEADER_SIZE) / CELL_SIZE;
                // Phase 1: the begin marker lands (odd leading stamp).
                image[off..off + w.begin.len()].copy_from_slice(&w.begin);
                assert_no_leaked_values(&image, &keys, &written, Some(bucket))?;
                // A READ racing phase 2 sees an arbitrary prefix of the
                // committed cell over the begin-marked one. While any
                // differing byte of the trailing stamp remains old the
                // mismatch is guaranteed and the judge must say Fallback;
                // once the prefix covers the stamp's differing bytes the
                // observed cell may be byte-identical to the committed
                // one, which is a *correct* (not leaked) read.
                image[off..off + cut].copy_from_slice(&w.commit[..cut]);
                let torn = if cut < CELL_SIZE - 8 { Some(bucket) } else { None };
                assert_no_leaked_values(&image, &keys, &written, torn)?;
                // Phase 2 complete.
                image[off..off + CELL_SIZE].copy_from_slice(&w.commit);
                assert_no_leaked_values(&image, &keys, &written, None)?;
            }
        }
        // The service's own image agrees with the replayed one.
        prop_assert_eq!(image, svc.read_region_image().expect("region"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Stack-level: a collision-heavy region (2 cells, 6 keys) poisons
    /// almost every bucket, so one-sided reads must engage the message
    /// path — counted by `kv_read_fallback` — and the history stays
    /// linearizable throughout.
    #[test]
    fn poisoned_cells_always_engage_the_fallback(seed in 1u64..500) {
        let mut h = KvHarness::build(Stack::Rubin, seed, 2, kv_config(), 2);
        prop_assert!(
            h.run_ycsb(&YcsbSpec::uniform(0.6, 6), seed, 12, 8_000_000),
            "run wedged (seed {seed})"
        );
        let lin = h.check_history();
        prop_assert!(lin.is_ok(), "{:?}", lin);
        prop_assert!(
            h.total("kv_read_fallback") >= 1,
            "collision-heavy run never fell back (seed {seed})"
        );
    }
}
