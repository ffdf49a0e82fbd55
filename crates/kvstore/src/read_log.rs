//! The KV client's log of completed one-sided reads.
//!
//! One-sided reads are most of a read-heavy run's operations, and the
//! checker needs every one of them. The log keeps one 24-byte record per
//! read: its interval and an index into a table of distinct observations,
//! each a `(key, result)` pair whose key is interned once per client. A
//! read reuses its key's latest observation only if that observation was
//! made at the same stamp *and* holds exactly the bytes just read;
//! otherwise it adds one, so the history says exactly what each read
//! returned, forged cells included. Only the latest is tried: a client's
//! accepted stamps for a key never go back (see the client module), so a
//! later read cannot match an older observation. [`ReadLog::events`]
//! rebuilds the [`KvEvent`]s the checker reads.

use std::collections::HashMap;
use std::rc::Rc;

use crate::lin::{KvEvent, KvHistOp};

/// One completed read.
struct ReadRecord {
    invoke: u64,
    response: u64,
    /// Index into [`ReadLog::observations`].
    observation: usize,
}

/// What one or more reads of a key returned.
struct Observation {
    /// The key's bytes, shared by all its observations.
    key: Rc<[u8]>,
    stamp: u64,
    result: Box<[u8]>,
}

/// Completed one-sided reads, in completion order.
#[derive(Default)]
pub(crate) struct ReadLog {
    records: Vec<ReadRecord>,
    observations: Vec<Observation>,
    /// Each key read so far, with the index of its latest observation.
    latest: HashMap<Rc<[u8]>, usize>,
}

impl ReadLog {
    /// Logs a read of `key` over `[invoke, response]` that returned
    /// `result` (empty = absent) from cells stamped `stamp`. The key and
    /// value are copied only when the log does not hold them yet.
    pub(crate) fn push(
        &mut self,
        key: &[u8],
        stamp: u64,
        result: &[u8],
        invoke: u64,
        response: u64,
    ) {
        let latest = self.latest.get(key).copied();
        let observation = match latest.map(|i| (i, &self.observations[i])) {
            Some((i, seen)) if seen.stamp == stamp && *seen.result == *result => i,
            older => {
                let key = older.map_or_else(|| key.into(), |(_, older)| older.key.clone());
                let index = self.observations.len();
                self.latest.insert(key.clone(), index);
                self.observations.push(Observation {
                    key,
                    stamp,
                    result: result.into(),
                });
                index
            }
        };
        self.records.push(ReadRecord {
            invoke,
            response,
            observation,
        });
    }

    /// Every logged read as `client`'s completed `Get`, in log order.
    pub(crate) fn events(&self, client: u32) -> impl Iterator<Item = KvEvent> + '_ {
        self.records.iter().map(move |r| {
            let seen = &self.observations[r.observation];
            KvEvent {
                client,
                invoke: r.invoke,
                response: Some(r.response),
                op: KvHistOp::Get {
                    key: seen.key.to_vec(),
                    result: seen.result.to_vec(),
                },
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use simnet::SplitMix64;

    use super::*;

    #[test]
    fn a_repeated_read_adds_a_record_but_no_observation() {
        let mut log = ReadLog::default();
        log.push(b"k", 4, b"v", 10, 20);
        log.push(b"k", 4, b"v", 30, 40);
        assert_eq!((log.records.len(), log.observations.len()), (2, 1));
    }

    #[test]
    fn a_different_value_at_the_same_stamp_keeps_both_as_read() {
        let mut log = ReadLog::default();
        log.push(b"k", 4, b"honest", 10, 20);
        log.push(b"k", 4, b"forged", 30, 40);
        log.push(b"k", 4, b"honest", 50, 60);
        assert_eq!((log.records.len(), log.observations.len()), (3, 3));
        let results: Vec<Vec<u8>> = log
            .events(7)
            .map(|e| match e.op {
                KvHistOp::Get { result, .. } => result,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(results, [&b"honest"[..], b"forged", b"honest"]);
    }

    #[test]
    fn an_absent_result_logs_an_empty_value() {
        let mut log = ReadLog::default();
        log.push(b"gone", 6, &[], 10, 20);
        let events: Vec<KvEvent> = log.events(3).collect();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].client, events[0].invoke), (3, 10));
        assert_eq!(events[0].response, Some(20));
        assert_eq!(
            events[0].op,
            KvHistOp::Get {
                key: b"gone".to_vec(),
                result: Vec::new(),
            }
        );
    }

    /// A few hundred reads over a handful of keys, with stamps that
    /// advance, values that repeat, change or vanish, and now and then a
    /// second value at a stamp already seen: the log rebuilds exactly the
    /// events a plain `Vec<KvEvent>` records, in the same order.
    #[test]
    fn events_match_a_plain_event_log() {
        let mut rng = SplitMix64::new(2833);
        let mut log = ReadLog::default();
        let mut reference = Vec::new();
        let mut stamps = [0u64; 6];
        let mut now = 0;
        for _ in 0..400 {
            let k = rng.next_bounded(6) as usize;
            let key = format!("user{k}").into_bytes();
            if rng.next_bounded(16) == 0 {
                stamps[k] += 2;
            }
            let result = match rng.next_bounded(32) {
                0 => Vec::new(),
                1 => b"forged".to_vec(),
                _ => format!("v{}@{}", k, stamps[k]).into_bytes(),
            };
            let invoke = now + rng.next_bounded(50);
            let response = invoke + 1 + rng.next_bounded(50);
            now = response;
            log.push(&key, stamps[k], &result, invoke, response);
            reference.push(KvEvent {
                client: 5,
                invoke,
                response: Some(response),
                op: KvHistOp::Get { key, result },
            });
        }
        let events: Vec<KvEvent> = log.events(5).collect();
        assert_eq!(format!("{events:?}"), format!("{reference:?}"));
        assert!(
            log.observations.len() < log.records.len() / 2,
            "{} observations for {} reads",
            log.observations.len(),
            log.records.len()
        );
    }
}
