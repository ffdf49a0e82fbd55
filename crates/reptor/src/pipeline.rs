//! Per-pipeline PBFT agreement state — the unit of Consensus-Oriented
//! Parallelization.
//!
//! COP partitions the sequence-number space statically: pipeline `l` of
//! `p` owns every instance with `seq mod p == l` and runs a complete,
//! independent pre-prepare/prepare/commit state machine for them, pinned
//! to its own simulated core. Nothing here does I/O or touches shared
//! replica state: a [`Pipeline`] is a pure agreement-state container, so
//! two pipelines can make progress in overlapping simulated time with the
//! only cross-pipeline coupling being the executor's total order
//! ([`crate::executor::Executor`]) and the shared view/checkpoint
//! coordination in [`crate::replica::Replica`].

use std::collections::BTreeMap;

use bft_crypto::Digest;
use simnet::{CoreId, Nanos};

use crate::messages::{ReplicaId, Request, SeqNum, View};

/// The set of replicas that cast one kind of vote for an instance: one bit
/// per replica id. Groups are configured with at most [`Votes::MAX_N`]
/// replicas; an id past that is no replica's and is never counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Votes(u128);

impl Votes {
    /// Largest group a vote set can count.
    pub(crate) const MAX_N: usize = u128::BITS as usize;

    pub(crate) fn insert(&mut self, replica: ReplicaId) {
        if let Some(bit) = 1u128.checked_shl(replica) {
            self.0 |= bit;
        }
    }

    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Agreement state of one sequence number.
#[derive(Debug, Default)]
pub(crate) struct Instance {
    pub(crate) view: View,
    pub(crate) digest: Option<Digest>,
    pub(crate) batch: Option<Vec<Request>>,
    pub(crate) pre_prepared: bool,
    pub(crate) prepares: Votes,
    pub(crate) commits: Votes,
    /// Votes heard before the pre-prepare, with the digest each named:
    /// `(digest, replica, is_commit)`, at most one of each kind per
    /// replica. The pre-prepare counts those that match it.
    pub(crate) early: Vec<(Digest, ReplicaId, bool)>,
    pub(crate) prepared: bool,
    pub(crate) committed: bool,
    pub(crate) executed: bool,
    /// The earliest arrival this replica witnessed among the batch's
    /// requests; execution turns it into a request-timer sample.
    pub(crate) arrived_at: Option<Nanos>,
    /// Phase timestamps feeding the `reptor.r{id}.phase.*` histograms.
    pub(crate) pre_prepared_at: Option<Nanos>,
    pub(crate) prepared_at: Option<Nanos>,
    pub(crate) committed_at: Option<Nanos>,
}

/// Public per-pipeline progress counters (tests, benchmarks, chaos
/// scenarios asserting that pipelines advance independently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// The pipeline index (`seq mod p == index`).
    pub pipeline: usize,
    /// The simulated core this pipeline's agreement work runs on.
    pub core: u16,
    /// Instances that reached the committed state in this pipeline.
    pub committed: u64,
    /// Instances currently live in this pipeline's log.
    pub in_log: usize,
}

/// One COP agreement pipeline: a disjoint slice of sequence-number space
/// with its own protocol log and core affinity.
#[derive(Debug)]
pub(crate) struct Pipeline {
    /// This pipeline's index within `0..p`.
    pub(crate) idx: usize,
    /// The simulated core agreement work for this pipeline is charged to.
    pub(crate) core: CoreId,
    /// The per-pipeline agreement log (only seqs owned by this pipeline).
    pub(crate) log: BTreeMap<SeqNum, Instance>,
    /// Instances committed by this pipeline (monotone counter).
    pub(crate) committed: u64,
}

impl Pipeline {
    pub(crate) fn new(idx: usize, core: CoreId) -> Pipeline {
        Pipeline {
            idx,
            core,
            log: BTreeMap::new(),
            committed: 0,
        }
    }

    /// True if this pipeline owns `seq` under a `lanes`-way partition.
    pub(crate) fn owns(&self, seq: SeqNum, lanes: usize) -> bool {
        (seq % lanes as u64) as usize == self.idx
    }

    /// Snapshot of this pipeline's progress counters.
    pub(crate) fn stats(&self) -> PipelineStats {
        PipelineStats {
            pipeline: self.idx,
            core: self.core.0,
            committed: self.committed,
            in_log: self.log.len(),
        }
    }

    /// Backup-side acceptance of a PRE-PREPARE. Returns true if the
    /// instance was (re)initialized and this replica's own prepare vote
    /// recorded; false on a duplicate or conflicting proposal (kept: the
    /// first one wins, a Byzantine conflict starves the quorum and the
    /// request timer triggers a view change). The caller stamps
    /// `pre_prepared_at` (it also settles request-arrival latencies).
    pub(crate) fn accept_pre_prepare(
        &mut self,
        view: View,
        seq: SeqNum,
        digest: Digest,
        batch: Vec<Request>,
        me: ReplicaId,
    ) -> bool {
        let entry = self.log.entry(seq).or_default();
        if entry.pre_prepared && entry.view == view {
            return false;
        }
        if view > entry.view || !entry.pre_prepared {
            let early = if view == entry.view {
                std::mem::take(&mut entry.early)
            } else {
                Vec::new()
            };
            *entry = Instance {
                view,
                digest: Some(digest),
                batch: Some(batch),
                pre_prepared: true,
                ..Instance::default()
            };
            for (_, replica, commit) in early.into_iter().filter(|&(d, ..)| d == digest) {
                let votes = if commit {
                    &mut entry.commits
                } else {
                    &mut entry.prepares
                };
                votes.insert(replica);
            }
        }
        entry.prepares.insert(me);
        true
    }

    /// Keeps a vote heard before the pre-prepare, one per replica and kind.
    fn early_vote(entry: &mut Instance, digest: Digest, replica: ReplicaId, commit: bool) {
        if !entry
            .early
            .iter()
            .any(|&(_, r, c)| r == replica && c == commit)
        {
            entry.early.push((digest, replica, commit));
        }
    }

    /// Installs an instance wholesale (primary's own proposal, NEW-VIEW
    /// re-proposals, catch-up certificates), overwriting prior state.
    pub(crate) fn install(&mut self, seq: SeqNum, inst: Instance) -> &mut Instance {
        let entry = self.log.entry(seq).or_default();
        *entry = inst;
        entry
    }

    /// Records a PREPARE vote. Returns false if the vote is for a digest
    /// conflicting with the accepted pre-prepare (dropped).
    pub(crate) fn add_prepare(
        &mut self,
        view: View,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
    ) -> bool {
        let entry = self.log.entry(seq).or_default();
        if entry.pre_prepared && entry.digest != Some(digest) {
            return false;
        }
        if view > entry.view {
            entry.early.clear();
        }
        entry.view = entry.view.max(view);
        if entry.pre_prepared {
            entry.prepares.insert(replica);
        } else {
            Pipeline::early_vote(entry, digest, replica, false);
        }
        true
    }

    /// Checks the prepared predicate: pre-prepared plus a `quorum` of
    /// prepare votes. On the transition it records this replica's own
    /// commit vote and returns the digest plus the pre-prepare→prepared
    /// latency; `None` if not (or already) prepared.
    pub(crate) fn try_prepare(
        &mut self,
        seq: SeqNum,
        quorum: usize,
        me: ReplicaId,
        now: Nanos,
    ) -> Option<(Digest, Option<u64>)> {
        let entry = self.log.get_mut(&seq)?;
        if entry.prepared || !entry.pre_prepared || entry.prepares.len() < quorum {
            return None;
        }
        entry.prepared = true;
        entry.prepared_at = Some(now);
        entry.commits.insert(me);
        let digest = entry.digest.expect("prepared instance has a digest");
        let since_pp = entry
            .pre_prepared_at
            .map(|t| now.as_nanos().saturating_sub(t.as_nanos()));
        Some((digest, since_pp))
    }

    /// Records a COMMIT vote. Returns false on a conflicting digest.
    pub(crate) fn add_commit(&mut self, seq: SeqNum, digest: Digest, replica: ReplicaId) -> bool {
        let entry = self.log.entry(seq).or_default();
        if entry.pre_prepared && entry.digest != Some(digest) {
            return false;
        }
        if entry.pre_prepared {
            entry.commits.insert(replica);
        } else {
            Pipeline::early_vote(entry, digest, replica, true);
        }
        true
    }

    /// Checks the committed predicate: prepared plus a `quorum` of commit
    /// votes. On the transition it returns the prepared→committed latency
    /// observation; `None` if not (or already) committed.
    #[allow(clippy::option_option)]
    pub(crate) fn try_commit(
        &mut self,
        seq: SeqNum,
        quorum: usize,
        now: Nanos,
    ) -> Option<Option<u64>> {
        let entry = self.log.get_mut(&seq)?;
        if entry.committed || !entry.prepared || entry.commits.len() < quorum {
            return None;
        }
        entry.committed = true;
        entry.committed_at = Some(now);
        self.committed += 1;
        let since_prep = entry
            .prepared_at
            .map(|t| now.as_nanos().saturating_sub(t.as_nanos()));
        Some(since_prep)
    }

    /// Drops every instance at or below the stable checkpoint `seq`;
    /// returns how many entries were freed.
    pub(crate) fn truncate_through(&mut self, seq: SeqNum) -> u64 {
        let before = self.log.len();
        self.log.retain(|&s, _| s > seq);
        (before - self.log.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: u8) -> Digest {
        Digest::of_parts(&[&[tag]])
    }

    #[test]
    fn ownership_partitions_seq_space() {
        let p0 = Pipeline::new(0, CoreId(1));
        let p1 = Pipeline::new(1, CoreId(2));
        assert!(p0.owns(2, 2) && p0.owns(4, 2));
        assert!(p1.owns(1, 2) && p1.owns(3, 2));
        assert!(!p0.owns(3, 2));
    }

    #[test]
    fn prepare_commit_quorum_transitions() {
        let mut pl = Pipeline::new(0, CoreId(1));
        let d = digest(1);
        let now = Nanos::from_nanos(5);
        assert!(pl.accept_pre_prepare(0, 2, d, vec![], 1));
        // Duplicate pre-prepare in the same view is rejected.
        assert!(!pl.accept_pre_prepare(0, 2, d, vec![], 1));
        assert!(pl.add_prepare(0, 2, d, 2));
        // Quorum of 2 (own vote + replica 2) flips prepared exactly once.
        let (got, _) = pl.try_prepare(2, 2, 1, now).expect("prepared");
        assert_eq!(got, d);
        assert!(pl.try_prepare(2, 2, 1, now).is_none());
        assert!(pl.add_commit(2, d, 2));
        assert!(pl.add_commit(2, d, 3));
        assert!(pl.try_commit(2, 3, now).is_some());
        assert_eq!(pl.committed, 1);
        assert!(pl.try_commit(2, 3, now).is_none());
    }

    #[test]
    fn votes_that_arrive_before_their_pre_prepare_count_for_its_digest() {
        // Over several links a backup can hear the other backups' PREPAREs
        // and COMMITs before the primary's PRE-PREPARE. They count once the
        // pre-prepare names their digest; a vote for another digest never
        // does.
        let mut pl = Pipeline::new(0, CoreId(1));
        let (d, other) = (digest(1), digest(9));
        let now = Nanos::from_nanos(5);
        assert!(pl.add_prepare(0, 2, d, 2));
        assert!(pl.add_prepare(0, 2, other, 3));
        assert!(pl.add_commit(2, d, 2));
        assert!(pl.add_commit(2, d, 3));
        assert!(pl.accept_pre_prepare(0, 2, d, vec![], 1));
        // Own vote and replica 2's: replica 3's was for another digest.
        assert!(pl.try_prepare(2, 3, 1, now).is_none());
        assert!(pl.try_prepare(2, 2, 1, now).is_some());
        // Own commit, recorded on prepare, and replicas 2 and 3.
        assert!(pl.try_commit(2, 3, now).is_some());
    }

    #[test]
    fn conflicting_votes_are_dropped() {
        let mut pl = Pipeline::new(0, CoreId(1));
        assert!(pl.accept_pre_prepare(0, 2, digest(1), vec![], 0));
        assert!(!pl.add_prepare(0, 2, digest(9), 2));
        assert!(!pl.add_commit(2, digest(9), 2));
    }

    #[test]
    fn truncate_frees_only_old_instances() {
        let mut pl = Pipeline::new(0, CoreId(1));
        for seq in [2u64, 4, 6] {
            pl.accept_pre_prepare(0, seq, digest(seq as u8), vec![], 0);
        }
        assert_eq!(pl.truncate_through(4), 2);
        assert_eq!(pl.log.len(), 1);
        assert!(pl.log.contains_key(&6));
    }
}
