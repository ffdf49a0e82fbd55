//! The discrete-event simulator core.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventId, EventQueue, QueueStats};
use crate::time::Nanos;

/// A deterministic, single-threaded discrete-event simulator.
///
/// The simulator owns a virtual clock and a queue of scheduled events.
/// Running the simulator pops events in `(time, scheduling-order)` order and
/// executes them; events may schedule further events. All randomness flows
/// through the seeded [`rng`](Simulator::rng), so a run is a pure function of
/// its seed and inputs.
///
/// # Examples
///
/// ```
/// use simnet::{Nanos, Simulator};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Simulator::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// sim.schedule_in(Nanos::from_micros(5), move |sim| {
///     assert_eq!(sim.now(), Nanos::from_micros(5));
///     f.set(true);
/// });
/// sim.run_until_idle();
/// assert!(fired.get());
/// ```
pub struct Simulator {
    now: Nanos,
    queue: EventQueue,
    rng: StdRng,
    executed: u64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: Nanos::ZERO,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            executed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events executed so far (useful for runaway detection).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// The simulator's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: Nanos,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push(at, action)
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: Nanos,
        action: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.queue.push(at, action)
    }

    /// Schedules `action` to run every `period`, starting one period from
    /// now, until it returns `false`. Each tick re-arms *after* the action
    /// runs, so exactly one timer event is pending at a time (a recovery
    /// scheduler or heartbeat cannot flood the queue). Returns the id of
    /// the first tick; cancelling it stops the timer only before that tick
    /// fires — afterwards, stopping is the action's job.
    pub fn schedule_every<F>(&mut self, period: Nanos, action: F) -> EventId
    where
        F: FnMut(&mut Simulator) -> bool + 'static,
    {
        fn tick<F>(sim: &mut Simulator, period: Nanos, mut action: F)
        where
            F: FnMut(&mut Simulator) -> bool + 'static,
        {
            if action(sim) {
                sim.schedule_in(period, move |sim| tick(sim, period, action));
            }
        }
        self.schedule_in(period, move |sim| tick(sim, period, action))
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already run (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.queue.cancel(id);
    }

    /// Executes the next event, advancing the clock to its timestamp.
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, action)) => {
                debug_assert!(at >= self.now);
                self.now = at;
                self.executed += 1;
                action.run(self);
                true
            }
            None => false,
        }
    }

    /// Runs events until the queue is empty; returns the final time.
    pub fn run_until_idle(&mut self) -> Nanos {
        while self.step() {}
        self.now
    }

    /// Runs all events scheduled at or before `deadline`, then sets the clock
    /// to `deadline` (if it is later than the last executed event).
    pub fn run_until(&mut self, deadline: Nanos) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: Nanos) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// True if no events are pending.
    pub fn is_idle(&mut self) -> bool {
        self.queue.is_empty()
    }

    /// Timestamp of the next pending event.
    pub fn next_event_time(&mut self) -> Option<Nanos> {
        self.queue.peek_time()
    }

    /// Lifetime counters of the event queue (scheduled / cancelled /
    /// tombstones / compactions), surfaced as `sim.events_*` gauges.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new(0);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        for t in [30u64, 10, 20] {
            let log = log.clone();
            sim.schedule_at(Nanos::from_nanos(t), move |sim| {
                log.borrow_mut().push(sim.now().as_nanos())
            });
        }
        sim.run_until_idle();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        sim.schedule_in(Nanos::from_nanos(1), move |sim| {
            let h2 = h.clone();
            sim.schedule_in(Nanos::from_nanos(1), move |_| {
                *h2.borrow_mut() += 1;
            });
            *h.borrow_mut() += 1;
        });
        let end = sim.run_until_idle();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(end.as_nanos(), 2);
    }

    #[test]
    fn periodic_timer_ticks_until_stopped() {
        let mut sim = Simulator::new(0);
        let ticks: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        let t = ticks.clone();
        sim.schedule_every(Nanos::from_nanos(10), move |sim| {
            t.borrow_mut().push(sim.now().as_nanos());
            t.borrow().len() < 4
        });
        sim.run_until_idle();
        assert_eq!(*ticks.borrow(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn periodic_timer_first_tick_is_cancellable() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule_every(Nanos::from_nanos(10), move |_| {
            *h.borrow_mut() += 1;
            true
        });
        sim.cancel(id);
        sim.run_until_idle();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        for t in [5u64, 15] {
            let h = hits.clone();
            sim.schedule_at(Nanos::from_nanos(t), move |_| {
                *h.borrow_mut() += 1;
            });
        }
        sim.run_until(Nanos::from_nanos(10));
        assert_eq!(*hits.borrow(), 1);
        assert_eq!(sim.now().as_nanos(), 10);
        sim.run_until_idle();
        assert_eq!(*hits.borrow(), 2);
    }

    #[test]
    fn cancelled_event_does_not_run() {
        let mut sim = Simulator::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule_in(Nanos::from_nanos(5), move |_| {
            *h.borrow_mut() += 1;
        });
        sim.cancel(id);
        sim.run_until_idle();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new(0);
        sim.schedule_at(Nanos::from_nanos(10), |_| {});
        sim.run_until_idle();
        sim.schedule_at(Nanos::from_nanos(5), |_| {});
    }

    #[test]
    fn deterministic_rng() {
        use rand::Rng;
        let mut a = Simulator::new(7);
        let mut b = Simulator::new(7);
        let va: u64 = a.rng().gen();
        let vb: u64 = b.rng().gen();
        assert_eq!(va, vb);
    }
}
