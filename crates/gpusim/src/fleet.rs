//! Per-GCD manufacturing variability and slow-node injection.
//!
//! §VI-B: "the performance of each GPU in such systems can vary due to
//! manufacturing variability and nonuniformity of power/thermal management
//! … We observed approximately 5% maximum variation between GCDs on
//! Frontier" — and a single slow GCD stalls the whole pipeline, which is why
//! the paper scans the fleet with a mini-benchmark and excludes offenders.
//!
//! [`GcdFleet`] assigns every GCD a deterministic speed multiplier drawn
//! from a truncated bell-shaped distribution, optionally injecting
//! distinctly slow outliers so the slow-node-scan experiment has something
//! to find.

use mxp_lcg::Lcg;

/// Speed multipliers for a fleet of GCDs. A multiplier of 1.0 is nominal;
/// kernel times are divided by it (so 0.95 ⇒ 5% slower).
#[derive(Clone, Debug)]
pub struct GcdFleet {
    multipliers: Vec<f64>,
}

impl GcdFleet {
    /// Uniform fleet (all 1.0) — the "tuning disabled" control.
    pub fn uniform(count: usize) -> Self {
        GcdFleet {
            multipliers: vec![1.0; count],
        }
    }

    /// A fleet with explicitly given multipliers — used to fold injected
    /// fault states into an *effective* fleet (e.g. before a scan).
    pub fn from_multipliers(multipliers: Vec<f64>) -> Self {
        assert!(multipliers.iter().all(|&m| m > 0.0));
        GcdFleet { multipliers }
    }

    /// Deterministic fleet with bell-shaped variability.
    ///
    /// `spread` is the maximum fractional slowdown of the in-family tail
    /// (0.05 reproduces the paper's ≈5% observation). `slow_count` GCDs are
    /// additionally degraded by `slow_factor` (e.g. 0.7 = 30% slow), spread
    /// pseudo-randomly through the fleet — the targets of the scan.
    pub fn generate(
        count: usize,
        seed: u64,
        spread: f64,
        slow_count: usize,
        slow_factor: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&spread));
        assert!(slow_factor > 0.0 && slow_factor <= 1.0);
        let mut g = Lcg::new(seed ^ 0x6c33_7481_9fd0_11c5);
        let mut multipliers: Vec<f64> = (0..count)
            .map(|_| {
                // Sum of three uniforms ≈ bell; map to [1-spread, 1].
                let u = (g.next_unit() + g.next_unit() + g.next_unit()) / 1.5; // [-1, 1)
                1.0 - spread * 0.5 * (1.0 + u).clamp(0.0, 2.0) * 0.5 - spread * 0.25
            })
            .collect();
        // Clamp into [1-spread, 1].
        for m in &mut multipliers {
            *m = m.clamp(1.0 - spread, 1.0);
        }
        let mut slots: Vec<usize> = Vec::with_capacity(slow_count);
        while slots.len() < slow_count.min(count) {
            let pick = (g.next_u64() % count as u64) as usize;
            if !slots.contains(&pick) {
                slots.push(pick);
                multipliers[pick] *= slow_factor;
            }
        }
        GcdFleet { multipliers }
    }

    /// Number of GCDs in the fleet.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// `true` if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// Speed multiplier of GCD `i`.
    pub fn speed(&self, i: usize) -> f64 {
        self.multipliers[i]
    }

    /// The slowest multiplier — the pipeline-stall bound of §VI-B.
    pub fn slowest(&self) -> f64 {
        self.multipliers.iter().copied().fold(1.0, f64::min)
    }

    /// Returns a same-size fleet with the listed GCDs swapped for healthy
    /// spares (multiplier 1.0). This models the operational exclusion
    /// workflow at fixed job size: the flagged nodes are dropped from the
    /// machine file and healthy stand-bys take their grid slots, so the
    /// rerun keeps the same process grid.
    pub fn replacing(&self, exclude: &[usize]) -> GcdFleet {
        GcdFleet {
            multipliers: self
                .multipliers
                .iter()
                .enumerate()
                .map(|(i, &m)| if exclude.contains(&i) { 1.0 } else { m })
                .collect(),
        }
    }

    /// Returns a new fleet with the listed GCDs removed (the paper's
    /// "exclude those nodes when running for top performance").
    pub fn excluding(&self, exclude: &[usize]) -> GcdFleet {
        GcdFleet {
            multipliers: self
                .multipliers
                .iter()
                .enumerate()
                .filter(|(i, _)| !exclude.contains(i))
                .map(|(_, &m)| m)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GCDs below the in-family band `[1 - spread, 1]` at a 5% spread.
    fn outliers(f: &GcdFleet) -> Vec<usize> {
        (0..f.len()).filter(|&i| f.speed(i) < 0.9).collect()
    }

    #[test]
    fn uniform_is_all_ones() {
        let f = GcdFleet::uniform(16);
        assert_eq!(f.len(), 16);
        assert!((0..16).all(|i| f.speed(i) == 1.0));
        assert_eq!(f.slowest(), 1.0);
    }

    #[test]
    fn generate_is_deterministic() {
        let a = GcdFleet::generate(100, 7, 0.05, 2, 0.7);
        let b = GcdFleet::generate(100, 7, 0.05, 2, 0.7);
        for i in 0..100 {
            assert_eq!(a.speed(i), b.speed(i));
        }
        let c = GcdFleet::generate(100, 8, 0.05, 2, 0.7);
        assert!((0..100).any(|i| a.speed(i) != c.speed(i)));
    }

    #[test]
    fn spread_respected_without_outliers() {
        let f = GcdFleet::generate(500, 3, 0.05, 0, 1.0);
        for i in 0..500 {
            assert!(
                (0.95..=1.0).contains(&f.speed(i)),
                "gcd {i}: {}",
                f.speed(i)
            );
        }
        // The ~5% spread is actually exercised.
        assert!(f.slowest() < 0.97);
    }

    #[test]
    fn injected_slow_gcds_are_found() {
        let f = GcdFleet::generate(256, 11, 0.05, 3, 0.7);
        let found = outliers(&f);
        assert_eq!(found.len(), 3, "found {found:?}");
        for &i in &found {
            assert!(f.speed(i) < 0.75);
        }
    }

    #[test]
    fn excluding_removes_slow_tail() {
        let f = GcdFleet::generate(128, 21, 0.05, 4, 0.6);
        let slow = outliers(&f);
        let healthy = f.excluding(&slow);
        assert_eq!(healthy.len(), 128 - slow.len());
        assert!(healthy.slowest() >= 0.95 - 1e-9);
    }

    #[test]
    fn no_false_positives_on_clean_fleet() {
        let f = GcdFleet::generate(256, 5, 0.05, 0, 1.0);
        assert!(outliers(&f).is_empty());
    }
}
