//! Run knobs (N or N_L, B, the P_r×P_c grid, the Q_r×Q_c node tile of
//! Finding 8, the Fig. 8 broadcast, …), each declared once in [`KNOBS`]
//! after Ramble's `workload_variable`. A [`FrontEnd`] lists the keys it
//! accepts and its defaults, checks command-line or JSON values into
//! [`Pairs`], and [`FrontEnd::run`] places and validates a [`RunConfig`];
//! every error names its key, and extent arithmetic is checked.
#![deny(clippy::arithmetic_side_effects)]

use crate::fault::FaultPlan;
use crate::grid::ProcessGrid;
use crate::msg::TrailingPrecision;
use crate::runtime::Backend;
use crate::solve::{ConfigError, RunConfig};
use crate::systems::{frontier, summit, testbed, SystemSpec};
use mxp_msgsim::BcastAlgo;
use serde_json::Value as Json;
use std::fmt;

/// What a knob takes: a `usize`, a number or text (named in usage by the
/// string); a boolean, whose flag takes no value and sets the given one; or
/// one of the listed names, the first being the default.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Uint(&'static str),
    Number(&'static str),
    Text(&'static str),
    Switch(bool),
    OneOf(fn() -> Vec<String>),
}
use Kind::{Number, OneOf, Switch, Text, Uint};

/// One declared knob: its key, its batch-key name ([`Knob::flag`] derives
/// the flag), what it takes, and one line of doc for usage texts.
#[allow(missing_docs)]
#[derive(Debug)]
pub struct Knob {
    pub key: Key,
    pub name: &'static str,
    pub kind: Kind,
    pub doc: &'static str,
}

/// Declares [`Key`] and the [`KNOBS`] row of each key from one list.
macro_rules! knobs {
    ($($key:ident $name:literal $kind:expr, $doc:literal;)*) => {
        /// Names a knob; its [`KNOBS`] row, in the same order, says the rest.
        #[allow(missing_docs)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Key { $($key),* }

        /// Every knob, in [`Key`] order.
        pub const KNOBS: &[Knob] = &[$(Knob { key: Key::$key, name: $name, kind: $kind, doc: $doc }),*];
    };
}

knobs! {
    System "system" OneOf(names::<Machine>), "machine; the testbed sizes itself to the grid";
    Mode "mode" OneOf(names::<Mode>), "real math + verification, simulated clocks, or closed form";
    N "n" Uint("N"), "global problem size";
    Nl "nl" Uint("N_L"), "local problem size; global N = N_L * P_r";
    B "b" Uint("B"), "block size";
    Pr "pr" Uint("P_r"), "process-grid rows";
    Pc "pc" Uint("P_c"), "process-grid columns";
    Qr "qr" Uint("Q_r"), "rows of the node-local tile (Finding 8)";
    Qc "qc" Uint("Q_c"), "columns of the node-local tile";
    ColMajor "col_major" Switch(true), "fill whole nodes column-major instead of tiles";
    GcdsPerNode "gcds_per_node" Uint("Q"), "testbed node size when column-major (default: the grid)";
    Algo "algo" OneOf(names::<BcastAlgo>), "panel broadcast algorithm (Fig. 8)";
    Precision "precision" OneOf(names::<TrailingPrecision>), "panel storage format";
    Lookahead "lookahead" Switch(false), "look-ahead pipeline on or off";
    Seed "seed" Uint("S"), "matrix seed (default 2022)";
    Backend "backend" OneOf(names::<Backend>), "rank host: OS threads or event-driven fibers";
    Repeat "repeat" Uint("K"), "K copies of the job with consecutive seeds";
    Inject "inject" Text("SPEC"), "inject a fault (repeatable): slow-gcd:3x[:g2] degrade:2x:k8[:g2] thermal:0.9[:k4][:g2] fail:k10[:g2] link-lat:5ms[:from2|:to2|:all] link-bw:10x[:all]";
    Supervise "supervise" Switch(true), "run under the abort/scan/exclude/rerun supervisor";
    Progress "progress" Switch(true), "print progress lines and alerts";
    Trace "trace" Text("FILE"), "write rank 0's Chrome trace";
    Batch "batch" Text("FILE"), "batch file: JSON {service, defaults, jobs} or JSONL; arrays sweep";
    Workers "workers" Uint("N"), "worker threads draining the queue";
    CacheMb "cache_mb" Uint("MB"), "generated-matrix cache capacity, MiB";
    LogDir "log_dir" Text("DIR"), "write one JSONL event log per job";
    Out "out" Text("FILE"), "write the service-v1 summary JSON";
    Floor "floor" Number("SOLVES_PER_SEC"), "exit 1 below this throughput";
}

/// The row declaring `key`.
pub fn knob(key: Key) -> &'static Knob {
    &KNOBS[key as usize]
}

impl Knob {
    /// `--name` with `-` for `_`, or `--no-name` for a switch that clears.
    pub fn flag(&self) -> String {
        let clears = matches!(self.kind, Switch(false));
        let no = if clears { "no-" } else { "" };
        format!("--{no}{}", self.name.replace('_', "-"))
    }
}

/// A choice knob's values, each with its name; the first is the default.
trait Choice: Copy {
    fn choices() -> Vec<(String, Self)>;
}

fn names<T: Choice>() -> Vec<String> {
    T::choices().into_iter().map(|(name, _)| name).collect()
}

impl Choice for BcastAlgo {
    fn choices() -> Vec<(String, Self)> {
        let name = |a: Self| a.label().to_ascii_lowercase();
        Self::ALL.map(|a| (name(a), a)).into()
    }
}

impl Choice for TrailingPrecision {
    fn choices() -> Vec<(String, Self)> {
        let all = [Self::Fp16, Self::Bf16, Self::Fp32];
        all.map(|p| (p.tag().into(), p)).into()
    }
}

impl Choice for Backend {
    fn choices() -> Vec<(String, Self)> {
        // The short names batch files use, then the report labels.
        let hosts = [Backend::Functional, Backend::EventTimed];
        let short = ["threads", "event"].map(String::from).into_iter();
        let labels = hosts.map(|b| (b.label().into(), b));
        short.zip(hosts).chain(labels).collect()
    }
}

/// The `system` knob: a named machine, or `None`: the testbed, grid-sized.
type Machine = Option<fn() -> SystemSpec>;

impl Choice for Machine {
    fn choices() -> Vec<(String, Self)> {
        let all: [(&str, Self); 3] = [
            ("testbed", None),
            ("summit", Some(summit)),
            ("frontier", Some(frontier)),
        ];
        all.map(|(name, m)| (name.into(), m)).into()
    }
}

/// How a run is carried out: the `mode` knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Real panels and math, verified answer.
    Functional,
    /// Virtual payloads, simulated clocks only.
    Timing,
    /// The closed-form critical-path estimate ([`crate::critical`]).
    Critical,
}

impl Mode {
    /// The name the `mode` knob takes.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Functional => "functional",
            Mode::Timing => "timing",
            Mode::Critical => "critical",
        }
    }
}

impl Choice for Mode {
    fn choices() -> Vec<(String, Self)> {
        let all = [Mode::Functional, Mode::Timing, Mode::Critical];
        all.map(|m| (m.name().into(), m)).into()
    }
}

/// Knobs the closed form never reads (no faults, supervisor, records or
/// panel precision), refused in critical mode rather than ignored.
#[rustfmt::skip]
const CRITICAL_UNREAD: [Key; 5] =
    [Key::Precision, Key::Inject, Key::Supervise, Key::Progress, Key::Trace];

/// Checked knob values as text: a front-end's defaults first, then the
/// user's. A later pair overrides an earlier one; `inject` reads all.
#[derive(Clone, Debug, Default)]
pub struct Pairs(Vec<(Key, String)>);

impl Pairs {
    fn all(&self, key: Key) -> impl Iterator<Item = &str> {
        let given = self.0.iter().filter(move |(k, _)| *k == key);
        given.map(|(_, v)| v.as_str())
    }

    /// The value of `key`, if given or defaulted.
    pub fn text(&self, key: Key) -> Option<&str> {
        self.all(key).last()
    }

    /// The value of a [`Kind::Uint`] knob.
    pub fn uint(&self, key: Key) -> Option<usize> {
        self.text(key)?.parse().ok()
    }

    /// Whether a [`Kind::Switch`] knob is on.
    pub fn switch(&self, key: Key) -> bool {
        self.text(key) == Some("true")
    }

    fn choice<T: Choice>(&self, key: Key) -> T {
        let (all, given) = (T::choices(), self.text(key));
        let i = all.iter().position(|(n, _)| Some(n.as_str()) == given);
        all[i.unwrap_or(0)].1
    }
}

/// A refused input, naming the key or flag it concerns.
#[derive(Clone, Debug, PartialEq)]
pub enum KnobError {
    /// `--help` or `-h`: print the usage text.
    Help,
    /// A key or flag the front-end does not accept.
    Unknown(String),
    /// A refused value: the key or flag as spelled, and what is wrong.
    #[allow(missing_docs)]
    Bad { key: String, msg: String },
    /// The assembled configuration fails validation.
    Config(ConfigError),
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobError::Help => write!(f, "usage requested"),
            KnobError::Unknown(name) => write!(f, "unknown option {name:?}"),
            KnobError::Bad { key, msg } => write!(f, "{key}: {msg}"),
            KnobError::Config(err) => write!(f, "invalid configuration: {err}"),
        }
    }
}

/// A front-end: flag or key spelling, accepted keys, defaults (read first),
/// and its modes, each with the rank host it takes when no `backend` is set.
#[allow(missing_docs)]
#[derive(Debug)]
pub struct FrontEnd {
    pub flags: bool,
    pub keys: &'static [Key],
    pub defaults: &'static [(Key, &'static str)],
    pub modes: &'static [(Mode, Backend)],
}

/// The `hplai` flags: per-rank `nl`, a 2×2 node tile, timing on fibers.
#[rustfmt::skip]
pub const HPLAI: FrontEnd = FrontEnd { flags: true,
    keys: &[Key::System, Key::Mode, Key::Nl, Key::B, Key::Pr, Key::Pc, Key::Qr, Key::Qc,
        Key::ColMajor, Key::Algo, Key::Precision, Key::Lookahead, Key::Seed, Key::Progress,
        Key::Trace, Key::Inject, Key::Supervise],
    defaults: &[(Key::Nl, "128"), (Key::B, "16"), (Key::Pr, "2"), (Key::Pc, "2"),
        (Key::Qr, "2"), (Key::Qc, "2")],
    modes: &[(Mode::Functional, Backend::Functional), (Mode::Timing, Backend::EventTimed),
        (Mode::Critical, Backend::Functional)],
};

/// A batch job's keys: global `n`, column-major placement.
#[rustfmt::skip]
pub const BATCH_JOB: FrontEnd = FrontEnd { flags: false,
    keys: &[Key::System, Key::Mode, Key::N, Key::B, Key::Pr, Key::Pc, Key::GcdsPerNode,
        Key::Algo, Key::Precision, Key::Lookahead, Key::Seed, Key::Backend, Key::Repeat],
    defaults: &[(Key::N, "64"), (Key::B, "8"), (Key::Pr, "2"), (Key::Pc, "2"),
        (Key::ColMajor, "true")],
    modes: &[(Mode::Functional, Backend::Functional), (Mode::Timing, Backend::Functional)],
};

/// A batch file's `service` section.
#[rustfmt::skip]
pub const SERVICE: FrontEnd =
    FrontEnd { flags: false, keys: &[Key::Workers, Key::CacheMb], defaults: &[], modes: &[] };

/// The `hplai-serve` flags.
#[rustfmt::skip]
pub const HPLAI_SERVE: FrontEnd = FrontEnd { flags: true, defaults: &[], modes: &[],
    keys: &[Key::Batch, Key::Workers, Key::CacheMb, Key::LogDir, Key::Out, Key::Floor] };

impl FrontEnd {
    fn spell(&self, key: Key) -> String {
        match self.flags {
            true => knob(key).flag(),
            false => knob(key).name.into(),
        }
    }

    fn bad(&self, key: Key, msg: impl Into<String>) -> KnobError {
        let (key, msg) = (self.spell(key), msg.into());
        KnobError::Bad { key, msg }
    }

    /// The names a choice knob takes here; the front-end narrows `mode`.
    pub fn names(&self, knob: &Knob) -> Vec<String> {
        let OneOf(names) = knob.kind else {
            return Vec::new();
        };
        let mut names = names();
        if knob.key == Key::Mode {
            names.retain(|n| self.modes.iter().any(|(m, _)| m.name() == n));
        }
        names
    }

    fn takes(&self, knob: &Knob) -> String {
        match knob.kind {
            Uint(_) => "a non-negative integer".into(),
            Number(_) => "a number".into(),
            Text(_) => "a string".into(),
            Switch(_) => "a boolean".into(),
            OneOf(_) => format!("one of {}", self.names(knob).join("|")),
        }
    }

    /// The accepted knob spelled `name`.
    pub fn lookup(&self, name: &str) -> Result<&'static Knob, KnobError> {
        let mut knobs = self.keys.iter().map(|&k| knob(k));
        let found = knobs.find(|k| self.spell(k.key) == name);
        found.ok_or_else(|| KnobError::Unknown(name.into()))
    }

    /// Checks an argument (`Ok`) or JSON value against its knob's kind.
    fn check(&self, knob: &Knob, raw: Result<&str, &Json>) -> Result<String, KnobError> {
        let text = match (knob.kind, raw) {
            (_, Ok(arg)) => Some(arg.to_string()),
            (Uint(_), Err(Json::Number(f))) if *f >= 0.0 && f.fract() == 0.0 => {
                (*f <= usize::MAX as f64).then(|| (*f as usize).to_string())
            }
            (Number(_), Err(Json::Number(f))) => Some(f.to_string()),
            (Switch(_), Err(Json::Bool(b))) => Some(b.to_string()),
            (Text(_) | OneOf(_), Err(Json::String(s))) => Some(s.clone()),
            _ => None,
        };
        let fits = |t: &String| match knob.kind {
            Uint(_) => t.parse::<usize>().is_ok(),
            Number(_) => t.parse::<f64>().is_ok(),
            OneOf(_) => self.names(knob).contains(t),
            Text(_) | Switch(_) => true,
        };
        let got = raw.map_or_else(|v| format!("{v:?}"), String::from);
        let msg = format!("takes {}, got {got}", self.takes(knob));
        text.filter(fits).ok_or_else(|| self.bad(knob.key, msg))
    }

    /// Reads command-line arguments (without the program name).
    pub fn parse_flags(&self, args: &[String]) -> Result<Pairs, KnobError> {
        let mut pairs = Pairs(self.defaults.iter().map(|&(k, v)| (k, v.into())).collect());
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(KnobError::Help);
            }
            let knob = self.lookup(arg)?;
            let missing = || self.bad(knob.key, "needs a value");
            let value = match knob.kind {
                Switch(on) => on.to_string(),
                _ => args.next().ok_or_else(missing)?.clone(),
            };
            pairs.0.push((knob.key, self.check(knob, Ok(&value))?));
        }
        Ok(pairs)
    }

    /// Reads a JSON object's members: an expanded job or `service` section.
    pub fn parse_json(&self, members: &[(String, Json)]) -> Result<Pairs, KnobError> {
        let mut pairs = Pairs(self.defaults.iter().map(|&(k, v)| (k, v.into())).collect());
        for (name, v) in members {
            let knob = self.lookup(name)?;
            pairs.0.push((knob.key, self.check(knob, Err(v))?));
        }
        Ok(pairs)
    }

    /// One usage line per accepted key, generated from [`KNOBS`].
    pub fn usage(&self) -> String {
        let line = |&key: &Key| {
            let (knob, names) = (knob(key), self.names(knob(key)));
            let arg = match knob.kind {
                Uint(p) | Number(p) | Text(p) => format!(" {p}"),
                Switch(_) if self.flags => String::new(),
                Switch(_) => " true|false".into(),
                OneOf(_) => format!(" {}", names.join("|")),
            };
            let given = self.defaults.iter().find(|d| d.0 == key);
            let default = given.map(|d| d.1).or(names.first().map(String::as_str));
            let default = default.map_or(String::new(), |d| format!(" (default {d})"));
            let flag = format!("{}{arg}", self.spell(key));
            format!("  {flag:<40} {}{default}\n", knob.doc)
        };
        self.keys.iter().map(line).collect()
    }

    /// Turns pairs into a validated configuration and its mode, by one
    /// placement rule: every given extent is positive and `pr`×`pc` fits
    /// in `usize`; `n` is global, else N = `nl`×`pr`; each node holds a
    /// `qr`×`qc` tile of the grid unless `col_major`, where nodes take
    /// consecutive ranks, Summit and Frontier bring their node size, and
    /// the testbed takes `gcds_per_node`, else `qr`×`qc`, else the whole
    /// grid; the testbed has as many nodes as the grid fills.
    pub fn run(&self, pairs: &Pairs) -> Result<(RunConfig, Mode), KnobError> {
        let mode: Mode = pairs.choice(Key::Mode);
        let unread = CRITICAL_UNREAD
            .into_iter()
            .find(|&k| pairs.text(k).is_some());
        if let (Mode::Critical, Some(key)) = (mode, unread) {
            return Err(self.bad(key, "is not read in critical mode"));
        }
        let need = |key| pairs.uint(key).ok_or_else(|| self.bad(key, "is missing"));
        let (sys, grid) = self.place(pairs)?;
        let n = match pairs.uint(Key::N) {
            Some(n) => n,
            None => need(Key::Nl)?
                .checked_mul(grid.p_r)
                .ok_or_else(|| self.bad(Key::Nl, "N_L * P_r overflows"))?,
        };
        let mut builder = match mode {
            Mode::Functional => RunConfig::functional(sys, grid, n, need(Key::B)?),
            Mode::Timing | Mode::Critical => RunConfig::timing(sys, grid, n, need(Key::B)?),
        };
        if let Some(seed) = pairs.uint(Key::Seed) {
            builder = builder.seed(seed as u64);
        }
        if pairs.text(Key::Lookahead).is_some() {
            builder = builder.lookahead(pairs.switch(Key::Lookahead));
        }
        let host = self.modes.iter().find(|(m, _)| *m == mode);
        let backend = match (pairs.text(Key::Backend), host) {
            (Some(_), _) => pairs.choice(Key::Backend),
            (None, host) => host.map_or(Backend::Functional, |&(_, host)| host),
        };
        let mut faults = FaultPlan::new();
        for spec in pairs.all(Key::Inject) {
            // Default target: the grid's last GCD, so the straggler is
            // never the panel-owning rank 0.
            let last = grid.size().saturating_sub(1);
            faults = faults
                .parse_spec(spec, last)
                .map_err(|e| self.bad(Key::Inject, e))?;
        }
        let builder = builder
            .algo(pairs.choice(Key::Algo))
            .prec(pairs.choice(Key::Precision));
        let cfg = builder.backend(backend).faults(faults).build();
        Ok((cfg.map_err(KnobError::Config)?, mode))
    }

    fn place(&self, pairs: &Pairs) -> Result<(SystemSpec, ProcessGrid), KnobError> {
        let extent = |key| match pairs.uint(key) {
            Some(0) => Err(self.bad(key, "extents must be positive")),
            v => Ok(v),
        };
        let need = |key| extent(key)?.ok_or_else(|| self.bad(key, "is missing"));
        let (p_r, p_c, per_node) = (need(Key::Pr)?, need(Key::Pc)?, extent(Key::GcdsPerNode)?);
        let (q_r, q_c) = (extent(Key::Qr)?, extent(Key::Qc)?);
        let overflow = || self.bad(Key::Pc, format!("{p_r} * {p_c} ranks overflows"));
        let ranks = p_r.checked_mul(p_c).ok_or_else(overflow)?;
        let machine = pairs.choice::<Machine>(Key::System).map(|spec| spec());
        let grid = if pairs.switch(Key::ColMajor) {
            let (key, q) = match (&machine, per_node, q_r.zip(q_c)) {
                (Some(sys), _, _) => (Key::Pr, Some(sys.gcds_per_node)),
                (None, Some(q), _) => (Key::GcdsPerNode, Some(q)),
                (None, None, Some((r, c))) => (Key::Qr, r.checked_mul(c)),
                (None, None, None) => (Key::Pr, Some(ranks)),
            };
            match q {
                Some(q) if ranks.is_multiple_of(q) => ProcessGrid::col_major(p_r, p_c, q),
                Some(q) => {
                    let why = format!("{p_r}x{p_c} grid does not fill whole {q}-GCD nodes");
                    return Err(self.bad(key, why));
                }
                None => return Err(self.bad(key, "Q_r * Q_c overflows")),
            }
        } else {
            let (q_r, q_c) = (need(Key::Qr)?, need(Key::Qc)?);
            if !(p_r.is_multiple_of(q_r) && p_c.is_multiple_of(q_c)) {
                let why = format!("{p_r}x{p_c} grid is not tileable by {q_r}x{q_c} nodes");
                return Err(self.bad(Key::Qr, why));
            }
            ProcessGrid::node_local(p_r, p_c, q_r, q_c)
        };
        let q = grid.gcds_per_node();
        let sys = machine.unwrap_or_else(|| testbed(ranks.checked_div(q).unwrap_or(0), q));
        Ok((sys, grid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_are_unique() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert_eq!(knob(k.key).name, k.name);
            let clash = |o: &Knob| o.name == k.name || o.flag() == k.flag();
            assert!(!KNOBS[..i].iter().any(clash), "{}", k.name);
        }
    }

    #[test]
    fn first_listed_choices_are_the_run_config_defaults() {
        let grid = ProcessGrid::col_major(1, 1, 1);
        let cfg = RunConfig::functional(testbed(1, 1), grid, 8, 8).build_or_panic();
        let none = Pairs::default();
        assert_eq!(none.choice::<BcastAlgo>(Key::Algo), cfg.algo);
        assert_eq!(none.choice::<TrailingPrecision>(Key::Precision), cfg.prec);
        assert_eq!(none.choice::<Backend>(Key::Backend), cfg.backend);
    }
}
