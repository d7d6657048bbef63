//! Interrupt sources of the node.
//!
//! Algorithm 1 defines two interrupt routines: the **timer interrupt**, which
//! enforces the maximum sampling rate by re-arming `Reg_Flag` to sense when
//! the node has been idle for one interval, and the **power interrupt**,
//! raised when the stored energy is no longer sufficient to perform any task
//! and a backup must happen now.  The power interrupt has no separate
//! monitor: it is the FSM's own fixed-point threshold check at the top of
//! every step (the transition behind [`crate::fsm::NodeFsm::step`]),
//! which forces `Backup` below `Th_Bk` and `Off` below `Th_Off` (the
//! [`ehsim::pmu::ThresholdsFx`] the run quantised once).  This module
//! provides the timer.
//!
//! The timer lives on the executors' tick grid: its period is the sampling
//! interval counted in `dt` ticks (derived once per run, see
//! `fsm::TickConstants`), and its only state is the tick it was last armed
//! at, so every deadline is exact integer arithmetic.

/// A periodic timer that fires at the node's maximum sampling rate.
///
/// The period is passed to every call rather than stored: it is a per-run
/// constant of the lane (the sampling interval in ticks of the run's `dt`),
/// kept next to the other per-run constants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerInterrupt {
    /// The tick of the last fire; a fresh timer counts as armed at tick 0,
    /// so it first fires one period after time zero.
    armed_at: u64,
}

impl TimerInterrupt {
    /// The first tick at which [`Self::poll`] fires (and re-arms).  Any
    /// `poll(tick, period)` with `tick < next_fire(period)` is a no-op, which
    /// is what lets an executor skip those polls wholesale when
    /// fast-forwarding across quiescent ticks.  Saturates, so an
    /// astronomically long period simply never fires.
    #[must_use]
    pub fn next_fire(&self, period: u64) -> u64 {
        self.armed_at.saturating_add(period)
    }

    /// Polls the timer at `tick` and reports whether it fired.  A fire
    /// re-arms relative to *this* tick, so long outages do not cause a burst
    /// of catch-up samples: missed deadlines are not accumulated beyond one
    /// pending fire (the node cannot sense faster than it wakes up), matching
    /// the paper's remark that the sampling frequency "can be reduced
    /// depending on the system's power".
    pub fn poll(&mut self, tick: u64, period: u64) -> bool {
        if tick >= self.next_fire(period) {
            self.armed_at = tick;
            true
        } else {
            false
        }
    }

    /// Leaves the timer exactly as [`Self::poll`] on every tick of
    /// `from..to` would, in closed form: the first fire is at the later of
    /// `from` and the deadline, every later one a whole period after the
    /// previous, and only the last fire's tick survives.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn replay(&mut self, from: u64, to: u64, period: u64) {
        let first = self.next_fire(period).max(from);
        if first < to {
            self.armed_at = first + (to - 1 - first) / period * period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchExecutor, BatchJob};
    use crate::executor::IntermittentExecutor;
    use crate::fsm::{FsmConfig, TickConstants};
    use ehsim::source::ConstantSource;
    use tech45::units::{Power, Seconds};

    #[test]
    fn fires_once_per_period() {
        let mut t = TimerInterrupt::default();
        assert!(!t.poll(5, 10));
        assert!(t.poll(10, 10));
        assert!(!t.poll(12, 10));
        assert!(!t.poll(19, 10));
        assert!(t.poll(21, 10));
        assert_eq!(t.next_fire(10), 31);
    }

    #[test]
    fn long_outages_do_not_burst() {
        let mut t = TimerInterrupt::default();
        assert!(t.poll(100, 1));
        // Only one fire despite 100 missed periods.
        assert!(!t.poll(100, 1));
        assert!(t.poll(101, 1));
    }

    #[test]
    fn replay_equals_polling_every_tick() {
        for period in 1..=6_u64 {
            for armed_at in 0..=40_u64 {
                for from in 0..=40_u64 {
                    for to in from..=40_u64 {
                        let start = TimerInterrupt { armed_at };
                        let mut polled = start;
                        for tick in from..to {
                            polled.poll(tick, period);
                        }
                        let mut replayed = start;
                        replayed.replay(from, to, period);
                        assert_eq!(
                            replayed, polled,
                            "period {period}, armed at {armed_at}, ticks {from}..{to}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_paper_grid_first_fires_on_tick_60() {
        let config = FsmConfig::paper_default();
        let period = TickConstants::new(&config, Seconds::new(0.5)).timer_period;
        assert_eq!(period, 60);
        let mut t = TimerInterrupt::default();
        assert_eq!((0..60).filter(|&tick| t.poll(tick, period)).count(), 0);
        assert!(t.poll(60, period));
    }

    #[test]
    fn an_astronomical_interval_never_fires_and_never_overflows() {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(1e300);
        let period = TickConstants::new(&config, Seconds::new(0.5)).timer_period;
        assert_eq!(period, u64::MAX);
        let mut t = TimerInterrupt::default();
        assert_eq!(t.next_fire(period), u64::MAX);
        assert!(!t.poll(u64::MAX - 1, period));
        t.replay(0, u64::MAX, period);
        assert_eq!(t, TimerInterrupt::default());
        // Both executors run such a node without a single sample.
        let source = ConstantSource::new(Power::from_milliwatts(1.0));
        let (duration, dt) = (Seconds::new(600.0), Seconds::new(0.5));
        let scalar = IntermittentExecutor::with_source(config.clone(), source).run(duration, dt);
        assert_eq!(scalar.samples_sensed, 0);
        let mut batch = BatchExecutor::new(1);
        batch.enqueue(BatchJob::new(config, source, duration, dt));
        assert_eq!(batch.run_to_completion(), vec![scalar]);
    }

    fn with_interval(interval: f64) -> FsmConfig {
        let mut config = FsmConfig::paper_default();
        config.sampling_interval = Seconds::new(interval);
        config
    }

    #[test]
    #[should_panic(expected = "timer period must be positive")]
    fn zero_period_is_rejected() {
        let _ = TickConstants::new(&with_interval(0.0), Seconds::new(0.5));
    }

    #[test]
    fn degenerate_intervals_are_rejected_by_both_executors() {
        for interval in [0.0, -30.0, f64::NAN] {
            let source = ConstantSource::new(Power::ZERO);
            let (duration, dt) = (Seconds::new(10.0), Seconds::new(0.5));
            let scalar = std::panic::catch_unwind(|| {
                IntermittentExecutor::with_source(with_interval(interval), source).run(duration, dt)
            });
            let batched = std::panic::catch_unwind(|| {
                let mut batch = BatchExecutor::new(1);
                batch.enqueue(BatchJob::new(with_interval(interval), source, duration, dt));
                batch.run_to_completion()
            });
            for (executor, outcome) in [("scalar", scalar.err()), ("batch", batched.err())] {
                let payload = outcome.unwrap_or_else(|| panic!("{executor} ran at {interval} s"));
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                let message = message.unwrap_or_default();
                assert_eq!(message, "timer period must be positive", "{executor} at {interval} s");
            }
        }
    }
}
