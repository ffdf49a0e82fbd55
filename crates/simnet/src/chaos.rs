//! Scripted fault timelines: deterministic chaos scheduling.
//!
//! A [`ChaosSchedule`] is a list of `(time, action)` entries applied to a
//! network's [`FaultPlane`](crate::FaultPlane) over simulated time. Because
//! the schedule is data and every probabilistic fault draws its coins from
//! the simulator RNG, a whole fault timeline — loss bursts, partitions,
//! crashes, restarts — replays byte-identically from a seed, which is what
//! makes failure scenarios regression-testable.
//!
//! # Examples
//!
//! ```
//! use simnet::{ChaosAction, ChaosSchedule, HostId, Nanos, Network, Simulator};
//!
//! let mut sim = Simulator::new(7);
//! let net = Network::new();
//! let a = net.add_host("a", 1, simnet::CpuModel::xeon_v2());
//! let b = net.add_host("b", 1, simnet::CpuModel::xeon_v2());
//!
//! let schedule = ChaosSchedule::new()
//!     .at(Nanos::from_millis(1), ChaosAction::SetLoss { src: a, dst: b, p: 0.05 })
//!     .at(Nanos::from_millis(5), ChaosAction::CrashHost { host: b })
//!     .at(Nanos::from_millis(9), ChaosAction::RestartHost { host: b })
//!     .at(Nanos::from_millis(9), ChaosAction::Clear);
//! schedule.install(&mut sim, &net);
//! sim.run_until_idle();
//! assert!(!net.with_faults(|f| f.is_crashed(b)));
//! ```

use crate::fault::FaultPlane;
use crate::host::HostId;
use crate::net::Network;
use crate::sim::Simulator;
use crate::time::Nanos;

/// One scripted change to the fault plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// Set directional loss probability (see [`FaultPlane::set_loss`]).
    SetLoss {
        /// Source host of the affected direction.
        src: HostId,
        /// Destination host of the affected direction.
        dst: HostId,
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Set directional duplication probability.
    SetDuplication {
        /// Source host of the affected direction.
        src: HostId,
        /// Destination host of the affected direction.
        dst: HostId,
        /// Duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Set directional payload-corruption probability.
    SetCorruption {
        /// Source host of the affected direction.
        src: HostId,
        /// Destination host of the affected direction.
        dst: HostId,
        /// Corruption probability in `[0, 1]`.
        p: f64,
    },
    /// Set directional bounded reordering jitter.
    SetReorderJitter {
        /// Source host of the affected direction.
        src: HostId,
        /// Destination host of the affected direction.
        dst: HostId,
        /// Upper bound of the uniform extra delay.
        bound: Nanos,
    },
    /// Set directional fixed extra delay.
    SetExtraDelay {
        /// Source host of the affected direction.
        src: HostId,
        /// Destination host of the affected direction.
        dst: HostId,
        /// Extra one-way delay.
        d: Nanos,
    },
    /// Cut connectivity between two hosts (both directions).
    Partition {
        /// One end of the cut.
        a: HostId,
        /// Other end of the cut.
        b: HostId,
    },
    /// Restore connectivity between two hosts.
    Heal {
        /// One end of the healed pair.
        a: HostId,
        /// Other end of the healed pair.
        b: HostId,
    },
    /// Crash a host: all frames to/from it are blackholed.
    CrashHost {
        /// The host losing power.
        host: HostId,
    },
    /// Restart a crashed host.
    RestartHost {
        /// The host coming back.
        host: HostId,
    },
    /// Remove every installed fault.
    Clear,
}

impl ChaosAction {
    /// Applies this action to a fault plane.
    pub fn apply(&self, faults: &mut FaultPlane) {
        match *self {
            ChaosAction::SetLoss { src, dst, p } => faults.set_loss(src, dst, p),
            ChaosAction::SetDuplication { src, dst, p } => faults.set_duplication(src, dst, p),
            ChaosAction::SetCorruption { src, dst, p } => faults.set_corruption(src, dst, p),
            ChaosAction::SetReorderJitter { src, dst, bound } => {
                faults.set_reorder_jitter(src, dst, bound)
            }
            ChaosAction::SetExtraDelay { src, dst, d } => faults.set_extra_delay(src, dst, d),
            ChaosAction::Partition { a, b } => faults.partition(a, b),
            ChaosAction::Heal { a, b } => faults.heal(a, b),
            ChaosAction::CrashHost { host } => faults.crash_host(host),
            ChaosAction::RestartHost { host } => faults.restart_host(host),
            ChaosAction::Clear => faults.clear(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ChaosAction::SetLoss { .. } => "set_loss",
            ChaosAction::SetDuplication { .. } => "set_duplication",
            ChaosAction::SetCorruption { .. } => "set_corruption",
            ChaosAction::SetReorderJitter { .. } => "set_reorder_jitter",
            ChaosAction::SetExtraDelay { .. } => "set_extra_delay",
            ChaosAction::Partition { .. } => "partition",
            ChaosAction::Heal { .. } => "heal",
            ChaosAction::CrashHost { .. } => "crash_host",
            ChaosAction::RestartHost { .. } => "restart_host",
            ChaosAction::Clear => "clear",
        }
    }
}

/// A scripted `(time, action)` fault timeline.
///
/// Entries may be added in any order; [`install`](ChaosSchedule::install)
/// schedules each at its absolute simulated time. Entries that share a
/// timestamp apply in insertion order (the event queue is FIFO within an
/// instant).
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    entries: Vec<(Nanos, ChaosAction)>,
}

impl ChaosSchedule {
    /// Creates an empty schedule.
    pub fn new() -> ChaosSchedule {
        ChaosSchedule::default()
    }

    /// Adds an action at absolute simulated time `at` (builder style).
    pub fn at(mut self, at: Nanos, action: ChaosAction) -> ChaosSchedule {
        self.entries.push((at, action));
        self
    }

    /// Adds an action at absolute simulated time `at` (mutating form).
    pub fn push(&mut self, at: Nanos, action: ChaosAction) {
        self.entries.push((at, action));
    }

    /// Number of scripted entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are scripted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scripted entries, in insertion order.
    pub fn entries(&self) -> &[(Nanos, ChaosAction)] {
        &self.entries
    }

    /// Schedules every entry on `sim` against `net`'s fault plane.
    ///
    /// Each applied action bumps the `chaos.actions_applied` counter and
    /// emits a `chaos.<action>` trace event in the network's metrics
    /// registry, so a snapshot records the timeline that actually ran.
    ///
    /// # Panics
    ///
    /// Panics if any entry is scheduled before `sim.now()`.
    pub fn install(&self, sim: &mut Simulator, net: &Network) {
        let applied = net.metrics().counter_handle("chaos.actions_applied");
        for (at, action) in self.entries.clone() {
            let (net, applied) = (net.clone(), applied.clone());
            sim.schedule_at(at, move |sim| {
                net.with_faults(|f| action.apply(f));
                applied.incr();
                net.metrics().trace(sim.now(), "chaos", action.label());
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CpuModel;

    #[test]
    fn schedule_applies_actions_at_their_times() {
        let mut sim = Simulator::new(1);
        let net = Network::new();
        let a = net.add_host("a", 1, CpuModel::xeon_v2());
        let b = net.add_host("b", 1, CpuModel::xeon_v2());
        let schedule = ChaosSchedule::new()
            .at(Nanos::from_micros(10), ChaosAction::Partition { a, b })
            .at(Nanos::from_micros(20), ChaosAction::Heal { a, b })
            .at(Nanos::from_micros(20), ChaosAction::CrashHost { host: a });
        assert_eq!(schedule.len(), 3);
        schedule.install(&mut sim, &net);

        sim.run_until(Nanos::from_micros(15));
        assert!(net.with_faults(|f| f.is_partitioned(a, b)));
        assert!(!net.with_faults(|f| f.is_crashed(a)));

        sim.run_until_idle();
        assert!(!net.with_faults(|f| f.is_partitioned(a, b)));
        assert!(net.with_faults(|f| f.is_crashed(a)));
        assert_eq!(net.metrics().counter("chaos.actions_applied"), 3);
    }

    #[test]
    fn entries_survive_cloning_for_replay() {
        let a = HostId(0);
        let b = HostId(1);
        let s1 = ChaosSchedule::new().at(
            Nanos::from_millis(1),
            ChaosAction::SetLoss {
                src: a,
                dst: b,
                p: 0.05,
            },
        );
        let s2 = s1.clone();
        assert_eq!(s1.entries(), s2.entries());
        assert!(!s1.is_empty());
    }
}
