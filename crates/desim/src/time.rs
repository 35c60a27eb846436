//! Simulation time: a totally ordered, finite `f64` wrapper.

use std::cmp::Ordering;
use std::fmt;

/// A point in simulated time, in seconds.
///
/// `SimTime` is a thin wrapper over `f64` that guarantees finiteness and
/// provides a total order (via [`f64::total_cmp`]) so it can key the event
/// heap. Construction from a non-finite float panics: a NaN deadline is a
/// logic error in the model, not a recoverable condition. `-0.0` is stored
/// as `+0.0`, so equality (`f64 ==`) agrees with the order: two times are
/// equal exactly when they compare `Equal`.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the epoch of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point, panicking on NaN/±∞ or negative values.
    /// `-0.0` passes the check and becomes [`SimTime::ZERO`].
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(if seconds == 0.0 { 0.0 } else { seconds })
    }

    /// The value in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Advances by `dt` seconds (panics if `dt` is negative or non-finite).
    #[inline]
    pub fn after(self, dt: f64) -> Self {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "time increment must be finite and non-negative, got {dt}"
        );
        SimTime(self.0 + dt)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_monotone() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn after_advances() {
        let t = SimTime::ZERO.after(2.5).after(0.5);
        assert_eq!(t.seconds(), 3.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_increment_rejected() {
        let _ = SimTime::ZERO.after(-1.0);
    }

    #[test]
    fn negative_zero_is_zero() {
        let t = SimTime::new(-0.0);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(t.cmp(&SimTime::ZERO), Ordering::Equal);
        assert!(t.seconds().is_sign_positive());
    }

    #[test]
    fn zero_increment_ok() {
        assert_eq!(SimTime::ZERO.after(0.0), SimTime::ZERO);
    }
}
