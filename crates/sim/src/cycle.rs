//! Simulated time: cycles and the global clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// The base machine (Table 1 of the paper) runs at 1 GHz, so one cycle is
/// one nanosecond; [`Cycle::as_micros`] performs that conversion when
/// reporting execution times the way the paper's figures do.
///
/// ```
/// use sa_sim::Cycle;
/// let t = Cycle(1_500);
/// assert_eq!(t.as_micros(1.0), 1.5);
/// assert_eq!(t + 10, Cycle(1_510));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Convert a cycle count to microseconds for a clock of `ghz` GHz.
    ///
    /// The paper's histogram figures report execution time in microseconds at
    /// 1 GHz, so `as_micros(1.0)` divides by 1000.
    pub fn as_micros(self, ghz: f64) -> f64 {
        self.0 as f64 / (ghz * 1e3)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Saturating difference in cycles.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

/// A monotonically advancing clock driving a cycle-level simulation.
///
/// Components are ticked once per [`Clock::advance`]; the clock also guards
/// against runaway simulations via a cycle limit. The run loop that owns
/// it is `sa_core::sched`.
///
/// ```
/// use sa_sim::Clock;
/// let mut clk = Clock::with_limit(10);
/// assert_eq!(clk.now().raw(), 0);
/// clk.advance();
/// assert_eq!(clk.now().raw(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Clock {
    now: Cycle,
    limit: u64,
}

impl Clock {
    /// Create a clock with an explicit runaway limit.
    ///
    /// # Panics
    ///
    /// [`Clock::advance`] panics when the limit is exceeded; this converts
    /// deadlocks in the simulated machine into loud test failures rather than
    /// hangs.
    pub fn with_limit(limit: u64) -> Clock {
        Clock {
            now: Cycle::ZERO,
            limit,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advance time by one cycle and return the new time.
    ///
    /// # Panics
    ///
    /// Panics if the cycle limit is exceeded, which indicates a deadlock in
    /// the simulated machine (e.g. a request stuck in a full queue forever).
    #[inline]
    pub fn advance(&mut self) -> Cycle {
        self.now.0 += 1;
        assert!(
            self.now.0 <= self.limit,
            "simulation exceeded {} cycles: likely deadlock",
            self.limit
        );
        self.now
    }

    /// Jump time forward to `target` without ticking the cycles in between
    /// — the event-horizon fast-forward primitive (see
    /// `docs/PERFORMANCE.md`). The caller is responsible for having proven
    /// that every skipped cycle would have been a no-op and for folding any
    /// per-cycle accounting into its components in bulk.
    ///
    /// # Panics
    ///
    /// Panics if `target` is behind the current time or beyond the runaway
    /// limit (the same deadlock guard as [`Clock::advance`]).
    #[inline]
    pub fn skip_to(&mut self, target: Cycle) -> Cycle {
        assert!(
            target.0 >= self.now.0,
            "clock cannot move backwards: {} -> {}",
            self.now,
            target
        );
        assert!(
            target.0 <= self.limit,
            "simulation exceeded {} cycles: likely deadlock",
            self.limit
        );
        self.now = target;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        let b = a + 5;
        assert_eq!(b, Cycle(15));
        assert_eq!(b - a, 5);
        assert_eq!(b.since(a), 5);
        assert_eq!(a.since(b), 0, "since saturates");
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn cycle_display_and_conversion() {
        assert_eq!(Cycle(42).to_string(), "42 cyc");
        assert_eq!(Cycle::from(7u64), Cycle(7));
        assert_eq!(Cycle(2_000).as_micros(1.0), 2.0);
        assert_eq!(Cycle(2_000).as_micros(2.0), 1.0);
    }

    #[test]
    fn clock_advances() {
        let mut c = Clock::with_limit(100);
        for i in 1..=100 {
            assert_eq!(c.advance().raw(), i);
        }
        assert_eq!(c.now().raw(), 100);
    }

    #[test]
    #[should_panic(expected = "likely deadlock")]
    fn clock_limit_trips() {
        let mut c = Clock::with_limit(3);
        for _ in 0..4 {
            c.advance();
        }
    }

    #[test]
    fn add_assign() {
        let mut t = Cycle(1);
        t += 9;
        assert_eq!(t, Cycle(10));
    }
}
