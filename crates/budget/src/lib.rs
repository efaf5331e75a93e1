//! # snap-budget — cooperative compute budgets
//!
//! Exploratory analysis of massive small-world networks runs kernels whose
//! exact variants (Brandes betweenness, all-pairs path statistics, divisive
//! clustering) can take hours. The paper's answer is adaptive sampling; the
//! serving-stack answer is deadline propagation. This crate provides the
//! meeting point: a cloneable [`Budget`] handle carrying an optional
//! wall-clock deadline and/or work cap that every long-running SNAP kernel
//! checks *cooperatively* at coarse natural boundaries (a BFS level, a
//! delta-stepping bucket, a betweenness source, a refinement pass).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when unset.** [`Budget::unlimited`] holds no allocation;
//!    every probe is a single `Option` branch that the compiler folds away.
//! 2. **Cheap when set.** [`Budget::is_exhausted`] is one relaxed atomic
//!    load. [`Budget::charge`] amortizes `Instant::now()` syscalls to
//!    work-granule crossings (~every [`PROBE_GRANULE`] units).
//! 3. **Sticky.** Once a deadline or cap trips, the handle stays exhausted,
//!    so sibling rayon workers observing the same `Arc` stop promptly.
//!
//! Kernels expose `try_*` entry points returning
//! `Result<T, `[`Exhausted`]`>` (or a partial-result variant where a prefix
//! of the work is itself meaningful — e.g. a uniform sample of betweenness
//! sources). The unlimited default keeps the classic entry points
//! bit-identical to their pre-budget behavior.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Work units between wall-clock probes in [`Budget::charge`]. Chosen so
/// that even edge-granularity charging on fast kernels probes the clock a
/// few thousand times per second at most.
pub const PROBE_GRANULE: u64 = 1 << 16;

/// Why a budget stopped the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work cap was consumed.
    WorkCap,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhausted::Deadline => write!(f, "budget exhausted: deadline passed"),
            Exhausted::WorkCap => write!(f, "budget exhausted: work cap consumed"),
        }
    }
}

impl std::error::Error for Exhausted {}

#[derive(Debug)]
struct Inner {
    /// The relative timeout this budget was constructed with, kept so
    /// [`Budget::renew`] can re-anchor a fresh deadline at renew time.
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    work_cap: u64,
    work: AtomicU64,
    /// 0 = live, 1 = deadline tripped, 2 = work cap tripped.
    exhausted: AtomicU64,
    /// Set by [`Budget::cancel`] or the first tripped check; fast-path flag.
    tripped: AtomicBool,
}

impl Inner {
    fn trip(&self, why: Exhausted) -> Exhausted {
        let code = match why {
            Exhausted::Deadline => 1,
            Exhausted::WorkCap => 2,
        };
        // First tripper wins; later readers see a consistent reason.
        let _ = self
            .exhausted
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.tripped.store(true, Ordering::Relaxed);
        self.reason().unwrap_or(why)
    }

    fn reason(&self) -> Option<Exhausted> {
        match self.exhausted.load(Ordering::Relaxed) {
            1 => Some(Exhausted::Deadline),
            2 => Some(Exhausted::WorkCap),
            _ => None,
        }
    }
}

/// A cloneable, thread-safe compute budget. Clones share state: work charged
/// by one rayon worker counts against the cap seen by all, and a tripped
/// deadline is visible everywhere via one relaxed load.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

impl Budget {
    /// The no-op budget: never exhausted, zero bookkeeping.
    #[inline]
    pub fn unlimited() -> Self {
        Budget { inner: None }
    }

    /// Budget that trips once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Budget::new(Some(timeout), u64::MAX)
    }

    /// Budget that trips after `cap` work units have been charged.
    /// Kernels charge roughly one unit per edge relaxation / vertex visit.
    pub fn with_work_cap(cap: u64) -> Self {
        Budget::new(None, cap)
    }

    /// A fresh budget with the same *limits* as this one but none of its
    /// *state*: zero work charged, nothing tripped, and (when a timeout
    /// was set) a deadline re-anchored at `now + timeout`.
    ///
    /// Exhaustion is deliberately sticky on a handle — that is what makes
    /// cooperative cancellation reach every clone promptly — so a tripped
    /// `Budget` must never be reattached to a long-lived session as-is:
    /// every later query would instantly degrade or cancel. This is the
    /// fresh-per-request constructor path: a resident server keeps one
    /// budget *spec* and calls `renew()` to mint an independent budget for
    /// each request. Renewing [`Budget::unlimited`] yields unlimited.
    pub fn renew(&self) -> Budget {
        match &self.inner {
            None => Budget::unlimited(),
            Some(inner) => Budget::new(inner.timeout, inner.work_cap),
        }
    }

    fn new(timeout: Option<Duration>, work_cap: u64) -> Self {
        Budget {
            inner: Some(Arc::new(Inner {
                timeout,
                deadline: timeout.map(|t| Instant::now() + t),
                work_cap,
                work: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// Whether any limit is set at all. `false` guarantees every other
    /// method is a no-op.
    #[inline]
    pub fn is_limited(&self) -> bool {
        self.inner.is_some()
    }

    /// Fast sticky probe: one relaxed load, no clock access. Suitable for
    /// inner loops; pair with an occasional [`check`](Budget::check) or
    /// [`charge`](Budget::charge) so the deadline is actually observed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.tripped.load(Ordering::Relaxed),
        }
    }

    /// Why the budget tripped, if it has.
    pub fn exhaustion(&self) -> Option<Exhausted> {
        self.inner.as_ref().and_then(|i| i.reason())
    }

    /// Coarse-boundary probe: consults the wall clock (if a deadline is
    /// set) and the work counter. Call at natural kernel boundaries — a
    /// BFS level, a bucket, a source, a refinement pass.
    pub fn check(&self) -> Result<(), Exhausted> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.tripped.load(Ordering::Relaxed) {
            return Err(inner.reason().unwrap_or(Exhausted::Deadline));
        }
        if inner.work.load(Ordering::Relaxed) > inner.work_cap {
            return Err(inner.trip(Exhausted::WorkCap));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(inner.trip(Exhausted::Deadline));
            }
        }
        Ok(())
    }

    /// Charge `units` of work. Amortized: the cap is checked on every call
    /// (one `fetch_add`), the clock only when the cumulative work crosses a
    /// [`PROBE_GRANULE`] boundary. Safe to call from many rayon workers.
    #[inline]
    pub fn charge(&self, units: u64) -> Result<(), Exhausted> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.tripped.load(Ordering::Relaxed) {
            return Err(inner.reason().unwrap_or(Exhausted::Deadline));
        }
        let before = inner.work.fetch_add(units, Ordering::Relaxed);
        let after = before.saturating_add(units);
        if after > inner.work_cap {
            return Err(inner.trip(Exhausted::WorkCap));
        }
        if inner.deadline.is_some() && before / PROBE_GRANULE != after / PROBE_GRANULE {
            self.check()?;
        }
        Ok(())
    }

    /// Manually trip the budget (cooperative cancellation from outside).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.trip(Exhausted::Deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deadline_of(b: &Budget) -> Instant {
        b.inner
            .as_ref()
            .and_then(|i| i.deadline)
            .expect("a deadline")
    }

    #[test]
    fn unlimited_is_never_exhausted() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(!b.is_exhausted());
        assert!(b.check().is_ok());
        for _ in 0..10 {
            assert!(b.charge(u64::MAX / 16).is_ok());
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.exhaustion(), None);
    }

    #[test]
    fn default_is_unlimited() {
        assert!(!Budget::default().is_limited());
    }

    #[test]
    fn work_cap_trips_and_sticks() {
        let b = Budget::with_work_cap(100);
        assert!(b.charge(60).is_ok());
        assert!(!b.is_exhausted());
        assert_eq!(b.charge(60), Err(Exhausted::WorkCap));
        assert!(b.is_exhausted());
        // Sticky: later zero-cost probes and checks agree.
        assert_eq!(b.check(), Err(Exhausted::WorkCap));
        assert_eq!(b.exhaustion(), Some(Exhausted::WorkCap));
    }

    #[test]
    fn clones_share_the_cap() {
        let b = Budget::with_work_cap(100);
        let c = b.clone();
        assert!(b.charge(80).is_ok());
        assert_eq!(c.charge(80), Err(Exhausted::WorkCap));
        assert!(b.is_exhausted());
    }

    #[test]
    fn expired_deadline_trips_on_check() {
        let b = Budget::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check(), Err(Exhausted::Deadline));
        assert!(b.is_exhausted());
        assert_eq!(b.exhaustion(), Some(Exhausted::Deadline));
    }

    #[test]
    fn deadline_observed_via_charge_granule_crossing() {
        let b = Budget::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        // Small charges skip the clock until a granule boundary is crossed.
        let mut tripped = false;
        for _ in 0..=(PROBE_GRANULE / 1024 + 1) {
            if b.charge(1024).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(b.check().is_ok());
        assert!(b.charge(PROBE_GRANULE * 4).is_ok());
        assert!(!b.is_exhausted());
        assert!(deadline_of(&b) > Instant::now() + Duration::from_secs(3000));
    }

    #[test]
    fn cancel_trips_immediately() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        b.cancel();
        assert!(b.is_exhausted());
        assert!(b.check().is_err());
    }

    #[test]
    fn deadline_and_cap_first_wins() {
        let b = Budget::new(Some(Duration::from_secs(3600)), 10);
        assert_eq!(b.charge(11), Err(Exhausted::WorkCap));
        assert_eq!(b.exhaustion(), Some(Exhausted::WorkCap));
    }

    #[test]
    fn renew_resets_state_but_keeps_limits() {
        let b = Budget::with_work_cap(100);
        assert_eq!(b.charge(101), Err(Exhausted::WorkCap));
        assert!(b.is_exhausted());
        let fresh = b.renew();
        // Independent state: the renewed handle starts live with the full
        // cap, and tripping it does not reach back to the original.
        assert!(!fresh.is_exhausted());
        assert_eq!(
            fresh.inner.as_ref().unwrap().work.load(Ordering::Relaxed),
            0
        );
        assert!(fresh.charge(60).is_ok());
        assert_eq!(fresh.charge(60), Err(Exhausted::WorkCap));
        assert_eq!(b.exhaustion(), Some(Exhausted::WorkCap));
    }

    #[test]
    fn renew_reanchors_the_deadline() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        b.cancel();
        assert!(b.is_exhausted());
        let fresh = b.renew();
        assert!(!fresh.is_exhausted());
        assert!(fresh.check().is_ok());
        assert!(deadline_of(&fresh) > Instant::now() + Duration::from_secs(3000));
    }

    #[test]
    fn renew_of_unlimited_is_unlimited() {
        let fresh = Budget::unlimited().renew();
        assert!(!fresh.is_limited());
    }

    #[test]
    fn exhausted_display() {
        assert!(format!("{}", Exhausted::Deadline).contains("deadline"));
        assert!(format!("{}", Exhausted::WorkCap).contains("work cap"));
    }
}
