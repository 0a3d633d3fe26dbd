//! Injectable per-GCD fault states (§VI-B operational findings).
//!
//! The paper's full-scale campaigns were dominated not by algorithmic
//! limits but by *operational* failure modes: GCDs that are permanently
//! slow out of the factory, devices that degrade mid-run when power or
//! thermal management throttles them, thermal runaway where a device gets
//! progressively slower, and outright hangs ("we observed several fabric
//! hangs during this Frontier run"). This module models those states as
//! iteration-dependent speed multipliers so the supervision machinery has
//! realistic faults to detect.
//!
//! A [`GcdSpeed`] combines a GCD's base fleet multiplier (manufacturing
//! variability, [`crate::GcdFleet`]) with any injected [`GcdFaultKind`]s
//! and answers "how fast is this device at iteration `k`?".

/// Effective speed multiplier of a hard-failed GCD.
///
/// The thread-per-rank runtime cannot lose a process mid-run — a vanished
/// rank would deadlock every collective, exactly like the real machine's
/// fabric hangs. A hard failure is therefore modeled as the device limping
/// at 2% of nominal: the pipeline stalls behind it so severely that only
/// early termination (the paper's remedy) ends the run in useful time.
pub const FAILED_SPEED: f64 = 0.02;

/// Floor below which thermal runaway stops decaying (a fully throttled
/// device still makes some progress).
pub const RUNAWAY_FLOOR: f64 = 0.05;

/// One injectable device fault, as an iteration-dependent speed factor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GcdFaultKind {
    /// Permanently slow from the start of the run (a bad device the fleet
    /// scan should have caught): speed is multiplied by `factor` < 1.
    Slowdown {
        /// Speed multiplier applied at every iteration (0.33 ⇒ 3× slower).
        factor: f64,
    },
    /// Nominal until iteration `at`, then multiplied by `factor` for the
    /// rest of the run (mid-run power/thermal capping).
    DegradeAt {
        /// First affected iteration.
        at: usize,
        /// Speed multiplier from `at` onward.
        factor: f64,
    },
    /// Thermal runaway: from `onset` the speed decays geometrically by
    /// `decay` per iteration (`factor = decay^(k - onset)`), floored at
    /// [`RUNAWAY_FLOOR`].
    ThermalRunaway {
        /// First affected iteration.
        onset: usize,
        /// Per-iteration decay ratio in (0, 1).
        decay: f64,
    },
    /// Hard failure at iteration `at`: the device drops to
    /// [`FAILED_SPEED`] — effectively a hang the run cannot recover from
    /// without intervention.
    Fail {
        /// Iteration the device fails at.
        at: usize,
    },
}

impl GcdFaultKind {
    /// Speed factor this fault contributes at iteration `iter` (1.0 before
    /// onset / when inactive).
    pub fn factor_at(&self, iter: usize) -> f64 {
        match *self {
            GcdFaultKind::Slowdown { factor } => factor,
            GcdFaultKind::DegradeAt { at, factor } => {
                if iter >= at {
                    factor
                } else {
                    1.0
                }
            }
            GcdFaultKind::ThermalRunaway { onset, decay } => {
                if iter >= onset {
                    decay.powi((iter - onset) as i32).max(RUNAWAY_FLOOR)
                } else {
                    1.0
                }
            }
            GcdFaultKind::Fail { at } => {
                if iter >= at {
                    FAILED_SPEED
                } else {
                    1.0
                }
            }
        }
    }

    /// Short machine-readable name (CSV/event-log key).
    pub fn label(&self) -> &'static str {
        match self {
            GcdFaultKind::Slowdown { .. } => "slow-gcd",
            GcdFaultKind::DegradeAt { .. } => "degrade",
            GcdFaultKind::ThermalRunaway { .. } => "thermal-runaway",
            GcdFaultKind::Fail { .. } => "fail",
        }
    }
}

/// A fault pinned to one GCD of the fleet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcdFault {
    /// Fleet index (== rank in the default placement) of the faulty GCD.
    pub gcd: usize,
    /// The fault state.
    pub kind: GcdFaultKind,
}

/// Iteration-dependent speed of one GCD: base fleet multiplier × the
/// product of every injected fault's factor.
#[derive(Clone, Debug)]
pub struct GcdSpeed {
    base: f64,
    faults: Vec<GcdFaultKind>,
}

impl GcdSpeed {
    /// A healthy device at `base` × nominal speed.
    pub fn new(base: f64) -> Self {
        assert!(base > 0.0, "speed must be positive");
        GcdSpeed {
            base,
            faults: Vec::new(),
        }
    }

    /// A healthy nominal device (speed 1.0 at every iteration).
    pub fn nominal() -> Self {
        GcdSpeed::new(1.0)
    }

    /// Adds an injected fault.
    pub fn with_fault(mut self, kind: GcdFaultKind) -> Self {
        self.faults.push(kind);
        self
    }

    /// Base multiplier without faults (the fleet's view of this device).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Effective speed at iteration `iter` (always > 0; kernel times are
    /// divided by this).
    pub fn at(&self, iter: usize) -> f64 {
        let mut s = self.base;
        for f in &self.faults {
            s *= f.factor_at(iter);
        }
        s.max(FAILED_SPEED * self.base)
    }
}

impl From<f64> for GcdSpeed {
    fn from(base: f64) -> Self {
        GcdSpeed::new(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_speed_is_flat() {
        let s = GcdSpeed::nominal();
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(1000), 1.0);
    }

    #[test]
    fn slowdown_applies_from_start() {
        let s = GcdSpeed::nominal().with_fault(GcdFaultKind::Slowdown { factor: 1.0 / 3.0 });
        assert!((s.at(0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.at(50) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degrade_switches_at_iteration() {
        let s = GcdSpeed::new(0.98).with_fault(GcdFaultKind::DegradeAt { at: 8, factor: 0.5 });
        assert_eq!(s.at(7), 0.98);
        assert_eq!(s.at(8), 0.49);
    }

    #[test]
    fn thermal_runaway_decays_to_floor() {
        let s = GcdSpeed::nominal().with_fault(GcdFaultKind::ThermalRunaway {
            onset: 4,
            decay: 0.8,
        });
        assert_eq!(s.at(3), 1.0);
        assert!((s.at(5) - 0.8).abs() < 1e-12);
        assert!(s.at(6) < s.at(5));
        assert_eq!(s.at(1000), RUNAWAY_FLOOR);
    }

    #[test]
    fn hard_failure_hangs_but_never_zero() {
        let s = GcdSpeed::nominal().with_fault(GcdFaultKind::Fail { at: 10 });
        assert_eq!(s.at(9), 1.0);
        assert_eq!(s.at(10), FAILED_SPEED);
        assert!(s.at(10) > 0.0);
    }

    #[test]
    fn faults_compose_multiplicatively() {
        let s = GcdSpeed::nominal()
            .with_fault(GcdFaultKind::Slowdown { factor: 0.5 })
            .with_fault(GcdFaultKind::DegradeAt { at: 2, factor: 0.5 });
        assert_eq!(s.at(1), 0.5);
        assert_eq!(s.at(2), 0.25);
    }

    #[test]
    fn from_f64_matches_new() {
        let s: GcdSpeed = 0.7.into();
        assert_eq!(s.at(3), 0.7);
    }
}
