//! The runner's one flag parser: every flag any exhibit takes, parsed
//! against the flags the chosen exhibit accepts.

use crate::Exhibit;
use std::fmt;

/// Every flag name the runner knows. Each [`Exhibit`] accepts a subset.
pub(crate) const FLAGS: [&str; 6] = [
    "--quick",
    "--threads",
    "--floor",
    "--trsm-floor",
    "--gen-floor",
    "--best-of",
];

/// An exhibit's parsed command line. A flag the exhibit does not accept
/// never reaches it: [`Args::parse`] rejects it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// `--quick`: the CI-sized run, written under `results/`.
    pub quick: bool,
    /// `--threads 1,2,4`: thread counts to sweep.
    pub threads: Option<Vec<usize>>,
    /// `--floor X`: the exhibit's headline gate.
    pub floor: Option<f64>,
    /// `--trsm-floor X`: `kernel_bench`'s panel-solve gate, GFLOP/s.
    pub trsm_floor: Option<f64>,
    /// `--gen-floor X`: `kernel_bench`'s matrix-generation gate, Gelem/s.
    pub gen_floor: Option<f64>,
    /// `--best-of N`: fresh-process samples per wall time.
    pub best_of: Option<usize>,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    /// Not a flag any exhibit takes (a typo, or a stray argument).
    Unknown(String),
    /// `(exhibit, flag)`: a flag this exhibit does not take.
    NotAccepted(&'static str, String),
    /// A flag given without its value.
    MissingValue(String),
    /// `(flag, value, what the flag takes)`: a value that does not parse.
    BadValue(String, String, &'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(a) => write!(f, "unknown flag {a:?}"),
            ArgError::NotAccepted(exhibit, flag) => write!(f, "{exhibit} does not take {flag}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue(flag, value, what) => write!(f, "{flag} {value:?}: expected {what}"),
        }
    }
}

impl std::error::Error for ArgError {}

const COUNT: &str = "a positive integer";
const COUNTS: &str = "comma-separated positive integers";
const RATE: &str = "a finite non-negative number";

fn count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n > 0)
}

fn rate(v: &str) -> Option<f64> {
    v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0)
}

impl Args {
    /// Parses `argv` (the arguments after the exhibit name) for `exhibit`.
    pub fn parse(exhibit: &Exhibit, argv: &[String]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if !FLAGS.contains(&flag.as_str()) {
                return Err(ArgError::Unknown(flag.clone()));
            }
            if !exhibit.flags.contains(&flag.as_str()) {
                return Err(ArgError::NotAccepted(exhibit.name, flag.clone()));
            }
            if flag == "--quick" {
                args.quick = true;
                continue;
            }
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| ArgError::MissingValue(flag.clone()))?;
            let bad = |what| ArgError::BadValue(flag.clone(), value.clone(), what);
            match flag.as_str() {
                "--threads" => {
                    let ts: Option<Vec<usize>> = value.split(',').map(count).collect();
                    args.threads = Some(ts.ok_or_else(|| bad(COUNTS))?);
                }
                "--best-of" => args.best_of = Some(count(value).ok_or_else(|| bad(COUNT))?),
                "--floor" => args.floor = Some(rate(value).ok_or_else(|| bad(RATE))?),
                "--trsm-floor" => args.trsm_floor = Some(rate(value).ok_or_else(|| bad(RATE))?),
                "--gen-floor" => args.gen_floor = Some(rate(value).ok_or_else(|| bad(RATE))?),
                _ => unreachable!("every valued flag in FLAGS is parsed"),
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find;

    fn parse(exhibit: &str, argv: &[&str]) -> Result<Args, ArgError> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(find(exhibit).expect("registered exhibit"), &argv)
    }

    #[test]
    fn parses_every_flag_an_exhibit_accepts() {
        let a = parse(
            "kernel_bench",
            &[
                "--quick",
                "--threads",
                "1,2",
                "--floor",
                "25",
                "--trsm-floor",
                "12",
                "--gen-floor",
                "0.4",
            ],
        )
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.threads, Some(vec![1, 2]));
        assert_eq!(
            (a.floor, a.trsm_floor, a.gen_floor),
            (Some(25.0), Some(12.0), Some(0.4))
        );
        let a = parse("scaling_sweep", &["--best-of", "3", "--floor", "500"]).unwrap();
        assert_eq!((a.best_of, a.floor, a.quick), (Some(3), Some(500.0), false));
        assert_eq!(parse("fig3", &[]).unwrap(), Args::default());
    }

    #[test]
    fn flag_without_a_value_is_rejected() {
        // `scaling_sweep --floor` used to panic indexing past the end.
        for argv in [&["--floor"][..], &["--floor", "--quick"]] {
            assert_eq!(
                parse("scaling_sweep", argv),
                Err(ArgError::MissingValue("--floor".into()))
            );
        }
    }

    #[test]
    fn fractional_count_is_rejected() {
        // A count used to parse as f64 and truncate: 1.9 ran 1.
        assert_eq!(
            parse("scaling_sweep", &["--best-of", "1.9"]),
            Err(ArgError::BadValue("--best-of".into(), "1.9".into(), COUNT))
        );
    }

    #[test]
    fn negative_or_zero_values_are_rejected() {
        // A negative count used to saturate to 0 and still write the
        // bench file; a negative floor gates nothing.
        for (exhibit, flag, value) in [
            ("scaling_sweep", "--best-of", "-3"),
            ("scaling_sweep", "--best-of", "0"),
            ("kernel_bench", "--threads", "1,-3"),
            ("service_bench", "--floor", "-1"),
            ("fault_sweep", "--floor", "NaN"),
        ] {
            let err = parse(exhibit, &[flag, value]).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue(..)),
                "{flag} {value}: {err}"
            );
        }
    }

    #[test]
    fn misspelt_or_removed_flag_is_rejected() {
        // A typo used to be ignored silently, which switched a CI gate off.
        assert_eq!(
            parse("scaling_sweep", &["--flor", "50"]),
            Err(ArgError::Unknown("--flor".into()))
        );
        for removed in ["--jobs", "--workers", "--summit", "--no-e2e"] {
            assert_eq!(
                parse("service_bench", &[removed]),
                Err(ArgError::Unknown(removed.into()))
            );
        }
        assert_eq!(
            parse("fig3", &["results"]),
            Err(ArgError::Unknown("results".into()))
        );
    }

    #[test]
    fn flag_the_exhibit_does_not_take_is_rejected() {
        assert_eq!(
            parse("fig3", &["--quick"]),
            Err(ArgError::NotAccepted("fig3", "--quick".into()))
        );
        let err = parse("service_bench", &["--best-of", "2"]).unwrap_err();
        assert_eq!(err.to_string(), "service_bench does not take --best-of");
    }

    #[test]
    fn every_accepted_flag_is_known() {
        for ex in crate::EXHIBITS {
            for flag in ex.flags {
                assert!(FLAGS.contains(flag), "{}: {flag}", ex.name);
            }
        }
    }
}
