//! A run-level fault plan: which devices and links are broken, and how.
//!
//! [`FaultPlan`] aggregates compute-side faults ([`GcdFault`], applied as
//! iteration-dependent speed multipliers by the factorization driver) and
//! network-side faults ([`LinkFault`], applied per-message by the runtime).
//! It is carried by a `RunConfig` and consumed by `run()`; the
//! [`crate::supervisor`] also reads it to build the *effective* fleet a
//! post-incident scan would measure.
//!
//! Plans can be built programmatically or parsed from the compact CLI
//! grammar of `hplai --inject` (see [`FaultPlan::parse_spec`]).

use mxp_gpusim::{GcdFault, GcdFaultKind, GcdFleet, GcdSpeed};
use mxp_msgsim::{LinkFault, LinkScope};

/// The complete set of faults injected into one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Device-side fault states, pinned to fleet indices (= ranks in the
    /// default placement).
    pub gcd: Vec<GcdFault>,
    /// Link-level fault states, applied by the message runtime.
    pub link: Vec<LinkFault>,
}

impl FaultPlan {
    /// An empty plan (healthy machine).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` if no fault is injected.
    pub fn is_empty(&self) -> bool {
        self.gcd.is_empty() && self.link.is_empty()
    }

    /// The iteration-dependent speed of device `rank`, combining its fleet
    /// base multiplier with every fault pinned to it.
    pub fn speed_for(&self, rank: usize, base: f64) -> GcdSpeed {
        let mut s = GcdSpeed::new(base);
        for f in self.gcd.iter().filter(|f| f.gcd == rank) {
            s = s.with_fault(f.kind);
        }
        s
    }

    /// The fleet a post-incident mini-benchmark scan would measure: every
    /// device's base multiplier with its fault factors evaluated at
    /// iteration `iter` folded in. `fleet` is `None` for a uniform fleet.
    pub fn effective_fleet(&self, fleet: Option<&GcdFleet>, size: usize, iter: usize) -> GcdFleet {
        let mults = (0..size)
            .map(|r| {
                let base = fleet.map(|f| f.speed(r)).unwrap_or(1.0);
                self.speed_for(r, base).at(iter)
            })
            .collect();
        GcdFleet::from_multipliers(mults)
    }

    /// Returns the plan with all faults on the listed GCDs removed — the
    /// supervisor's model of excluding those nodes and rerunning on
    /// healthy spares.
    pub fn without_gcds(&self, exclude: &[usize]) -> FaultPlan {
        FaultPlan {
            gcd: self
                .gcd
                .iter()
                .copied()
                .filter(|f| !exclude.contains(&f.gcd))
                .collect(),
            link: self.link.clone(),
        }
    }

    /// Parses one `--inject` spec and appends it to the plan.
    ///
    /// Grammar (fields separated by `:`; `g<R>` targets GCD `R`, default
    /// `default_gcd`; `k<K>` sets the onset iteration, default 0):
    ///
    /// * `slow-gcd:3x[:g2]` — device permanently 3× slower;
    /// * `degrade:2x:k8[:g2]` — 2× slower from iteration 8 on;
    /// * `thermal:0.9[:k4][:g2]` — thermal runaway, speed ×0.9 per
    ///   iteration from the onset;
    /// * `fail:k10[:g2]` — hard failure (effective hang) at iteration 10;
    /// * `link-lat:5ms[:from2|:to2|:all]` — +5 ms latency on matching
    ///   traffic (default all traffic);
    /// * `link-bw:10x[:from2|:to2|:all]` — bandwidth collapsed to a tenth.
    pub fn parse_spec(mut self, spec: &str, default_gcd: usize) -> Result<FaultPlan, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let gcd = parse_field(&rest, 'g')?
            .map(|v| v as usize)
            .unwrap_or(default_gcd);
        let at = parse_field(&rest, 'k')?.map(|v| v as usize).unwrap_or(0);
        match kind {
            "slow-gcd" => {
                let factor = 1.0 / parse_multiplier(&rest, spec)?;
                self.gcd.push(GcdFault {
                    gcd,
                    kind: GcdFaultKind::Slowdown { factor },
                });
            }
            "degrade" => {
                let factor = 1.0 / parse_multiplier(&rest, spec)?;
                self.gcd.push(GcdFault {
                    gcd,
                    kind: GcdFaultKind::DegradeAt { at, factor },
                });
            }
            "thermal" => {
                let decay: f64 = rest
                    .first()
                    .ok_or_else(|| format!("`{spec}`: missing decay ratio"))?
                    .parse()
                    .map_err(|_| format!("`{spec}`: bad decay ratio"))?;
                if !(0.0 < decay && decay < 1.0) {
                    return Err(format!("`{spec}`: decay must be in (0, 1)"));
                }
                self.gcd.push(GcdFault {
                    gcd,
                    kind: GcdFaultKind::ThermalRunaway { onset: at, decay },
                });
            }
            "fail" => {
                self.gcd.push(GcdFault {
                    gcd,
                    kind: GcdFaultKind::Fail { at },
                });
            }
            "link-lat" => {
                let ms = rest
                    .first()
                    .and_then(|v| v.strip_suffix("ms"))
                    .ok_or_else(|| format!("`{spec}`: expected `<X>ms`"))?
                    .parse::<f64>()
                    .map_err(|_| format!("`{spec}`: bad latency"))?;
                self.link
                    .push(LinkFault::latency(parse_scope(&rest)?, ms * 1e-3));
            }
            "link-bw" => {
                let factor = parse_multiplier(&rest, spec)?;
                self.link
                    .push(LinkFault::bandwidth_collapse(parse_scope(&rest)?, factor));
            }
            other => return Err(format!("unknown fault kind `{other}`")),
        }
        Ok(self)
    }
}

/// Finds a `<prefix><number>` field (e.g. `g2`, `k8`) among the spec tail.
fn parse_field(rest: &[&str], prefix: char) -> Result<Option<u64>, String> {
    for part in rest {
        if let Some(num) = part.strip_prefix(prefix) {
            if let Ok(v) = num.parse::<u64>() {
                return Ok(Some(v));
            }
        }
    }
    Ok(None)
}

/// Finds the `<F>x` multiplier field (e.g. `3x`, `2.5x`).
fn parse_multiplier(rest: &[&str], spec: &str) -> Result<f64, String> {
    for part in rest {
        if let Some(num) = part.strip_suffix('x') {
            let f: f64 = num
                .parse()
                .map_err(|_| format!("`{spec}`: bad multiplier `{part}`"))?;
            if f < 1.0 {
                return Err(format!("`{spec}`: multiplier must be >= 1"));
            }
            return Ok(f);
        }
    }
    Err(format!("`{spec}`: missing `<F>x` multiplier"))
}

/// Finds the link scope field (`from<R>`, `to<R>`, `all`); defaults to all
/// traffic.
fn parse_scope(rest: &[&str]) -> Result<LinkScope, String> {
    for part in rest {
        if let Some(r) = part.strip_prefix("from") {
            if let Ok(r) = r.parse() {
                return Ok(LinkScope::From(r));
            }
        }
        if let Some(r) = part.strip_prefix("to") {
            if let Ok(r) = r.parse() {
                return Ok(LinkScope::To(r));
            }
        }
        if *part == "all" {
            return Ok(LinkScope::All);
        }
    }
    Ok(LinkScope::All)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_slow_gcd() {
        let plan = FaultPlan::new().parse_spec("slow-gcd:3x", 2).unwrap();
        assert_eq!(plan.gcd.len(), 1);
        assert_eq!(plan.gcd[0].gcd, 2);
        let s = plan.speed_for(2, 1.0);
        assert!((s.at(0) - 1.0 / 3.0).abs() < 1e-12);
        // Other ranks are untouched.
        assert_eq!(plan.speed_for(0, 1.0).at(0), 1.0);
    }

    #[test]
    fn parse_degrade_with_target_and_onset() {
        let plan = FaultPlan::new().parse_spec("degrade:2x:k8:g1", 0).unwrap();
        let s = plan.speed_for(1, 1.0);
        assert_eq!(s.at(7), 1.0);
        assert!((s.at(8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_thermal_and_fail() {
        let plan = FaultPlan::new()
            .parse_spec("thermal:0.9:k4", 3)
            .unwrap()
            .parse_spec("fail:k10:g0", 3)
            .unwrap();
        assert_eq!(plan.gcd.len(), 2);
        assert!(plan.speed_for(3, 1.0).at(5) < 1.0);
        assert_eq!(
            plan.speed_for(0, 1.0).at(10),
            mxp_gpusim::fault::FAILED_SPEED
        );
    }

    #[test]
    fn parse_link_faults() {
        let plan = FaultPlan::new()
            .parse_spec("link-lat:5ms:from2", 0)
            .unwrap()
            .parse_spec("link-bw:10x", 0)
            .unwrap();
        assert_eq!(plan.link.len(), 2);
        assert_eq!(plan.link[0].scope, LinkScope::From(2));
        assert!((plan.link[0].extra_latency - 5e-3).abs() < 1e-12);
        assert_eq!(plan.link[1].bandwidth_factor, 10.0);
        assert_eq!(plan.link[1].scope, LinkScope::All);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::new().parse_spec("meltdown:2x", 0).is_err());
        assert!(FaultPlan::new().parse_spec("slow-gcd", 0).is_err());
        assert!(FaultPlan::new().parse_spec("slow-gcd:0.5x", 0).is_err());
        assert!(FaultPlan::new().parse_spec("thermal:1.5", 0).is_err());
        assert!(FaultPlan::new().parse_spec("link-lat:5s", 0).is_err());
    }

    #[test]
    fn effective_fleet_folds_fault_factors() {
        let plan = FaultPlan::new().parse_spec("slow-gcd:4x:g1", 0).unwrap();
        let eff = plan.effective_fleet(None, 4, 0);
        assert_eq!(eff.speed(0), 1.0);
        assert!((eff.speed(1) - 0.25).abs() < 1e-12);
        // Pre-onset faults don't show.
        let plan = FaultPlan::new().parse_spec("degrade:2x:k8:g1", 0).unwrap();
        assert_eq!(plan.effective_fleet(None, 4, 7).speed(1), 1.0);
        assert_eq!(plan.effective_fleet(None, 4, 8).speed(1), 0.5);
    }

    #[test]
    fn without_gcds_clears_excluded_faults() {
        let plan = FaultPlan::new()
            .parse_spec("slow-gcd:3x:g1", 0)
            .unwrap()
            .parse_spec("fail:k5:g2", 0)
            .unwrap();
        let cleaned = plan.without_gcds(&[1]);
        let left: Vec<usize> = cleaned.gcd.iter().map(|f| f.gcd).collect();
        assert_eq!(left, vec![2]);
    }
}
