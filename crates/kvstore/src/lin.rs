//! A Wing–Gong-style linearizability checker for KV histories.
//!
//! The deterministic simulation gives every operation exact real-time
//! invoke/response instants, so the harness can record a per-client
//! history and check it exhaustively: per key, the store is an
//! independent register (initial value: absent, modelled as the empty
//! byte string; `Del` writes absent), and a history is linearizable iff
//! some permutation of the operations (a) respects real-time order —
//! an op that responded before another was invoked linearizes first —
//! and (b) every read returns the latest linearized write.
//!
//! The search is the classic Wing–Gong exhaustive DFS with the
//! "minimal response" pruning rule and memoization on
//! `(taken-set, register value)`; bounded-concurrency sim histories keep
//! it tractable (the state space is exponential only in per-key
//! *concurrency*, not history length). A key's ops are sorted by invoke,
//! so each step scans only the ops that can come next: from the first
//! untaken op to the first one invoked after the smallest pending
//! response, a window as wide as the key's concurrency.

use std::collections::{BTreeMap, HashSet};

/// One recorded operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvHistOp {
    /// A read returning `result` (empty = key absent).
    Get {
        /// Key read.
        key: Vec<u8>,
        /// Observed value; empty means absent.
        result: Vec<u8>,
    },
    /// A write of `val`.
    Put {
        /// Key written.
        key: Vec<u8>,
        /// Value written.
        val: Vec<u8>,
    },
    /// A delete (modelled as a write of the empty value).
    Del {
        /// Key deleted.
        key: Vec<u8>,
    },
}

impl KvHistOp {
    fn key(&self) -> &[u8] {
        match self {
            KvHistOp::Get { key, .. } | KvHistOp::Put { key, .. } | KvHistOp::Del { key } => key,
        }
    }
}

/// One history event: an operation with its real-time interval.
#[derive(Debug, Clone)]
pub struct KvEvent {
    /// Issuing client.
    pub client: u32,
    /// Invocation instant (ns).
    pub invoke: u64,
    /// Response instant (ns); `None` if the operation never completed
    /// (its effect may or may not have taken place).
    pub response: Option<u64>,
    /// The operation.
    pub op: KvHistOp,
}

/// Per-key op after projection: read expecting `expect`, or write of `val`.
#[derive(Debug, Clone)]
enum RegOp {
    Read { expect: usize },
    Write { val: usize },
}

struct RegEvent {
    invoke: u64,
    response: u64, // u64::MAX when never completed
    completed: bool,
    op: RegOp,
}

/// A taken-set over a key's operations: one bit per op, any number of
/// ops (the memoization key, so zipfian batteries that pile hundreds of
/// operations onto one hot key degrade in time/memory, never abort).
#[derive(Clone, PartialEq, Eq, Hash)]
struct OpMask(Box<[u64]>);

impl OpMask {
    fn empty(ops: usize) -> OpMask {
        OpMask(vec![0u64; ops.div_ceil(64).max(1)].into_boxed_slice())
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Index of the lowest clear bit, found a word at a time (past the
    /// last op when every op is taken).
    fn first_unset(&self) -> usize {
        self.0
            .iter()
            .position(|&w| w != u64::MAX)
            .map_or(self.0.len() * 64, |w| {
                w * 64 + self.0[w].trailing_ones() as usize
            })
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn with(&self, i: usize) -> OpMask {
        let mut m = self.clone();
        m.set(i);
        m
    }

    /// True if every bit of `other` is set in `self`.
    fn covers(&self, other: &OpMask) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & b == *b)
    }
}

/// Checks a history for linearizability. Returns `Err` with a diagnostic
/// naming the first key whose sub-history admits no valid linearization.
pub fn check_linearizable(history: &[KvEvent]) -> Result<(), String> {
    let mut per_key: BTreeMap<&[u8], Vec<&KvEvent>> = BTreeMap::new();
    for e in history {
        per_key.entry(e.op.key()).or_default().push(e);
    }
    for (key, events) in per_key {
        check_key(key, &events)?;
    }
    Ok(())
}

fn check_key(key: &[u8], events: &[&KvEvent]) -> Result<(), String> {
    let mut regs = project(events);
    regs.sort_by_key(|r| r.invoke);
    if linearizes(&regs) {
        return Ok(());
    }
    Err(format!(
        "history for key {:?} is not linearizable ({} ops, {} completed)",
        String::from_utf8_lossy(key),
        regs.len(),
        regs.iter().filter(|r| r.completed).count(),
    ))
}

/// A key's events as register ops, values interned (0 is the initial,
/// absent / empty value).
fn project(events: &[&KvEvent]) -> Vec<RegEvent> {
    let mut values: Vec<Vec<u8>> = vec![Vec::new()];
    let mut intern = |v: &[u8]| -> usize {
        match values.iter().position(|x| x == v) {
            Some(i) => i,
            None => {
                values.push(v.to_vec());
                values.len() - 1
            }
        }
    };
    events
        .iter()
        .map(|e| {
            let op = match &e.op {
                KvHistOp::Get { result, .. } => RegOp::Read {
                    expect: intern(result),
                },
                KvHistOp::Put { val, .. } => RegOp::Write { val: intern(val) },
                KvHistOp::Del { .. } => RegOp::Write { val: 0 },
            };
            RegEvent {
                invoke: e.invoke,
                response: e.response.unwrap_or(u64::MAX),
                completed: e.response.is_some(),
                op,
            }
        })
        .collect()
}

/// Ops every accepted linearization must take: the completed ones
/// (incomplete ops may be dropped — their effect never became visible).
fn completed_mask(regs: &[RegEvent]) -> OpMask {
    let mut mask = OpMask::empty(regs.len());
    for (i, r) in regs.iter().enumerate() {
        if r.completed {
            mask.set(i);
        }
    }
    mask
}

/// The register value after op `r` when the register holds `val`, or
/// `None` for a read of a value the register does not hold.
fn apply(r: &RegEvent, val: usize) -> Option<usize> {
    match r.op {
        RegOp::Read { expect } => (expect == val).then_some(val),
        RegOp::Write { val: w } => Some(w),
    }
}

/// True if `regs`, sorted by invoke, admit a linearization.
///
/// Iterative DFS over (taken-mask, register value) with a failed-state
/// memo. The next linearized op must have been invoked before every
/// untaken op's response (minimal-response pruning). Since an op responds
/// no earlier than it is invoked, the first untaken op invoked after the
/// smallest response seen so far, and every op after it, can neither
/// lower that minimum nor be a candidate: both scans stop there.
fn linearizes(regs: &[RegEvent]) -> bool {
    let completed = completed_mask(regs);
    let mut failed: HashSet<(OpMask, usize)> = HashSet::new();
    let mut stack: Vec<(OpMask, usize)> = vec![(OpMask::empty(regs.len()), 0)];
    while let Some((taken, val)) = stack.pop() {
        if taken.covers(&completed) {
            return true;
        }
        if !failed.insert((taken.clone(), val)) {
            continue;
        }
        let first = taken.first_unset();
        let mut min_resp = u64::MAX;
        let mut end = first;
        for r in &regs[first..] {
            if r.invoke > min_resp {
                break;
            }
            if !taken.get(end) {
                min_resp = min_resp.min(r.response);
            }
            end += 1;
        }
        for (i, r) in regs.iter().enumerate().take(end).skip(first) {
            if taken.get(i) || r.invoke > min_resp {
                continue;
            }
            let Some(next_val) = apply(r, val) else {
                continue;
            };
            let next = (taken.with(i), next_val);
            if !failed.contains(&next) {
                stack.push(next);
            }
        }
    }
    false
}

/// The checker before its ops were sorted: every DFS step scans all of a
/// key's ops, once for the smallest pending response and once for the
/// candidates. The oracle the sorted scan is tested against.
#[cfg(test)]
fn linearizes_reference(regs: &[RegEvent]) -> bool {
    let completed = completed_mask(regs);
    let mut failed: HashSet<(OpMask, usize)> = HashSet::new();
    let mut stack: Vec<(OpMask, usize)> = vec![(OpMask::empty(regs.len()), 0)];
    while let Some((taken, val)) = stack.pop() {
        if taken.covers(&completed) {
            return true;
        }
        if !failed.insert((taken.clone(), val)) {
            continue;
        }
        let min_resp = regs
            .iter()
            .enumerate()
            .filter(|&(i, _)| !taken.get(i))
            .map(|(_, r)| r.response)
            .min()
            .unwrap_or(u64::MAX);
        for (i, r) in regs.iter().enumerate() {
            if taken.get(i) || r.invoke > min_resp {
                continue;
            }
            let Some(next_val) = apply(r, val) else {
                continue;
            };
            let next = (taken.with(i), next_val);
            if !failed.contains(&next) {
                stack.push(next);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: u32, invoke: u64, response: u64, op: KvHistOp) -> KvEvent {
        KvEvent {
            client,
            invoke,
            response: Some(response),
            op,
        }
    }

    fn put(k: &str, v: &str) -> KvHistOp {
        KvHistOp::Put {
            key: k.into(),
            val: v.into(),
        }
    }

    fn get(k: &str, r: &str) -> KvHistOp {
        KvHistOp::Get {
            key: k.into(),
            result: r.into(),
        }
    }

    #[test]
    fn sequential_history_passes() {
        let h = vec![
            ev(1, 0, 10, put("k", "a")),
            ev(1, 20, 30, get("k", "a")),
            ev(1, 40, 50, KvHistOp::Del { key: "k".into() }),
            ev(1, 60, 70, get("k", "")),
        ];
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn stale_read_after_write_fails() {
        // Write completes at 10; a read starting at 20 returning the old
        // (absent) value is a violation.
        let h = vec![ev(1, 0, 10, put("k", "a")), ev(2, 20, 30, get("k", ""))];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn concurrent_read_may_see_either_side() {
        // The read overlaps the write: both "a" and "" are valid.
        for seen in ["a", ""] {
            let h = vec![ev(1, 0, 100, put("k", "a")), ev(2, 10, 90, get("k", seen))];
            assert!(check_linearizable(&h).is_ok(), "seen={seen}");
        }
    }

    #[test]
    fn value_from_nowhere_fails() {
        let h = vec![ev(1, 0, 10, put("k", "a")), ev(2, 20, 30, get("k", "z"))];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn real_time_order_between_reads_enforced() {
        // w(a) then w(b) complete sequentially; a later read pair r(b)
        // then r(a) (non-overlapping) cannot both hold.
        let h = vec![
            ev(1, 0, 10, put("k", "a")),
            ev(1, 20, 30, put("k", "b")),
            ev(2, 40, 50, get("k", "b")),
            ev(2, 60, 70, get("k", "a")),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn incomplete_write_may_or_may_not_apply() {
        // The pending write's effect is optional: reads of both the old
        // and the new value are fine, in either order is NOT (the write
        // linearizes at most once).
        let pending = KvEvent {
            client: 1,
            invoke: 0,
            response: None,
            op: put("k", "a"),
        };
        for seen in ["", "a"] {
            let h = vec![pending.clone(), ev(2, 10, 20, get("k", seen))];
            assert!(check_linearizable(&h).is_ok(), "seen={seen}");
        }
        // new-then-old is a violation even with the write pending.
        let h = vec![
            pending.clone(),
            ev(2, 10, 20, get("k", "a")),
            ev(2, 30, 40, get("k", "")),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn histories_beyond_128_ops_are_checked_not_aborted() {
        // Zipfian batteries concentrate traffic on one hot key; the
        // checker must keep working (growable taken-masks) rather than
        // hit a fixed-width cap. 200 sequential ops pass...
        let mut h = Vec::new();
        for i in 0..100u64 {
            let v = format!("v{i}");
            h.push(ev(1, 40 * i, 40 * i + 10, put("hot", &v)));
            h.push(ev(2, 40 * i + 20, 40 * i + 30, get("hot", &v)));
        }
        assert!(check_linearizable(&h).is_ok());
        // ...and a stale read planted past op 128 is still caught.
        h.push(ev(2, 40_000, 40_010, get("hot", "v0")));
        assert!(check_linearizable(&h).is_err());
    }

    /// A random history of ≤ 12 ops over ≤ 3 keys with overlapping
    /// intervals. Each op takes effect at a random instant inside its
    /// interval (an incomplete write at most once, maybe never) and its
    /// read sees the register at that instant; two histories in three then
    /// get one read's result replaced by a random value.
    fn random_history(rng: &mut simnet::SplitMix64) -> Vec<KvEvent> {
        const KEYS: [&str; 3] = ["x", "y", "z"];
        const VALUES: [&str; 4] = ["", "a", "b", "c"];
        let keys = 1 + rng.next_bounded(3) as usize;
        let ops = 1 + rng.next_bounded(12) as usize;
        let mut timed: Vec<(u64, KvEvent, bool)> = (0..ops)
            .map(|_| {
                let key = KEYS[rng.next_bounded(keys as u64) as usize];
                // Coarse instants: ties between one op's invoke and
                // another's response are common.
                let invoke = rng.next_bounded(30);
                let response = invoke + 1 + rng.next_bounded(10);
                let at = invoke + rng.next_bounded(response - invoke + 1);
                let op = match rng.next_bounded(4) {
                    0 => KvHistOp::Del { key: key.into() },
                    1 => put(key, VALUES[1 + rng.next_bounded(3) as usize]),
                    _ => get(key, ""),
                };
                let complete = rng.next_bounded(6) != 0;
                let applies = complete || rng.next_bounded(2) == 0;
                let event = KvEvent {
                    client: 0,
                    invoke,
                    response: complete.then_some(response),
                    op,
                };
                (at, event, applies)
            })
            .collect();
        timed.sort_by_key(|(at, ..)| *at);
        let mut register: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (_, e, applies) in &mut timed {
            if !*applies {
                continue;
            }
            match &mut e.op {
                KvHistOp::Get { key, result } => {
                    *result = register.get(key).cloned().unwrap_or_default();
                }
                KvHistOp::Put { key, val } => {
                    register.insert(key.clone(), val.clone());
                }
                KvHistOp::Del { key } => {
                    register.remove(key);
                }
            }
        }
        let mut history: Vec<KvEvent> = timed.into_iter().map(|(_, e, _)| e).collect();
        let mut reads: Vec<&mut Vec<u8>> = history
            .iter_mut()
            .filter_map(|e| match &mut e.op {
                KvHistOp::Get { result, .. } => Some(result),
                _ => None,
            })
            .collect();
        if !reads.is_empty() && rng.next_bounded(3) != 0 {
            let pick = rng.next_bounded(reads.len() as u64) as usize;
            *reads[pick] = VALUES[rng.next_bounded(4) as usize].into();
        }
        // Interleave the ops out of invoke order, as clients record them.
        let rotate = rng.next_bounded(history.len() as u64) as usize;
        history.rotate_left(rotate);
        history
    }

    /// The sorted, windowed scan gives the reference's verdict on every
    /// key of 600 random small histories, both verdicts well represented.
    #[test]
    fn sorted_scan_matches_the_reference_checker() {
        let mut rng = simnet::SplitMix64::new(0x5eed_11ea);
        let (mut pass, mut fail) = (0, 0);
        for case in 0..600 {
            let history = random_history(&mut rng);
            let mut per_key: BTreeMap<&[u8], Vec<&KvEvent>> = BTreeMap::new();
            for e in &history {
                per_key.entry(e.op.key()).or_default().push(e);
            }
            for (key, events) in per_key {
                let reference = linearizes_reference(&project(&events));
                let fast = check_key(key, &events).is_ok();
                assert_eq!(fast, reference, "case {case}: {history:?}");
                if fast {
                    pass += 1;
                } else {
                    fail += 1;
                }
            }
        }
        assert!(pass >= 100 && fail >= 100, "{pass} keys pass, {fail} fail");
    }

    #[test]
    fn keys_are_independent() {
        let h = vec![
            ev(1, 0, 10, put("a", "1")),
            ev(2, 0, 10, put("b", "2")),
            ev(1, 20, 30, get("b", "2")),
            ev(2, 20, 30, get("a", "1")),
        ];
        assert!(check_linearizable(&h).is_ok());
    }
}
