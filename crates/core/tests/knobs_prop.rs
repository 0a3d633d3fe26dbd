//! The run-knob parser on hostile input: random batch jobs and random
//! command lines built from the knob table must each parse or give a
//! typed error, never panic (the debug profile keeps overflow checks
//! live), and products of extents that overflow are refused by name.

use hplai_core::knobs::{
    knob, FrontEnd, Kind, Knob, KnobError, BATCH_JOB, HPLAI, HPLAI_SERVE, KNOBS, SERVICE,
};
use hplai_core::{parse_batch, BatchError};
use proptest::prelude::*;

/// Deterministic splitmix64 stream seeded by the case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Integers at the edges the placement arithmetic has to survive.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "6",
    "8",
    "16",
    "64",
    "96",
    "128",
    "4294967296",
    "4294967297",
    "9223372036854775807",
    "18446744073709551615",
    "1e19",
    "-1",
    "-3",
    "2.5",
    "-0",
];

/// Strings: every choice name in the table, fault specs and junk.
fn words() -> Vec<String> {
    let mut words: Vec<String> = ["", "ring9", "fp8", "aurora", "12abc", "true", "slow-gcd:3x"]
        .map(String::from)
        .into();
    words.extend(
        [
            "fail:k10:g99999999999",
            "link-bw:0x",
            "slow-gcd:-1x",
            "degrade:2x:k8:g1",
            "thermal:0.9:k4",
            "bogus",
        ]
        .map(String::from),
    );
    for k in KNOBS {
        words.extend(HPLAI.names(k));
    }
    words
}

/// A value `knob` takes, drawn from the edges: JSON-quoted for a batch
/// file when `json`, a bare argument otherwise.
fn fitting(d: &mut Draw, knob: &Knob, words: &[String], json: bool) -> String {
    let text = match knob.kind {
        Kind::Uint(_) | Kind::Number(_) => return d.pick(NUMBERS).to_string(),
        Kind::Switch(_) => return ["true", "false"][d.below(2)].to_string(),
        Kind::OneOf(_) => {
            let names = HPLAI.names(knob);
            names[d.below(names.len())].clone()
        }
        Kind::Text(_) => words[d.below(words.len())].clone(),
    };
    if json {
        format!("{text:?}")
    } else {
        text
    }
}

/// A random JSON scalar or a short array of them.
fn json_value(d: &mut Draw, words: &[String], depth: usize) -> String {
    match d.below(if depth == 0 { 6 } else { 5 }) {
        0 | 1 => d.pick(NUMBERS).to_string(),
        2 => format!("{:?}", words[d.below(words.len())]),
        3 => ["true", "false", "null"][d.below(3)].to_string(),
        4 => "{}".to_string(),
        _ => {
            let items: Vec<String> = (0..d.below(4))
                .map(|_| json_value(d, words, depth + 1))
                .collect();
            format!("[{}]", items.join(", "))
        }
    }
}

/// A random object of `front`'s keys (mostly) and others, with values
/// that mostly fit the key, sometimes sweep arrays, sometimes junk.
fn object(d: &mut Draw, front: &FrontEnd, words: &[String]) -> String {
    let members: Vec<String> = (0..d.below(6))
        .map(|_| {
            let k = match d.below(10) {
                0 => &KNOBS[d.below(KNOBS.len())],
                _ => knob(front.keys[d.below(front.keys.len())]),
            };
            let v = match d.below(10) {
                0..=5 => fitting(d, k, words, true),
                6 | 7 => {
                    let items: Vec<String> = (0..d.below(4))
                        .map(|_| fitting(d, k, words, true))
                        .collect();
                    format!("[{}]", items.join(", "))
                }
                _ => json_value(d, words, 0),
            };
            format!("{:?}: {v}", k.name)
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A random batch document: jobs with known and unknown keys, in JSONL
/// or with a `defaults` or `service` section.
fn batch_text(seed: u64) -> String {
    let mut d = Draw(seed);
    let words = words();
    let jobs: Vec<String> = (0..1 + d.below(3))
        .map(|_| object(&mut d, &BATCH_JOB, &words))
        .collect();
    match d.below(3) {
        0 => jobs.join("\n"),
        1 => format!(
            r#"{{"defaults": {}, "jobs": [{}]}}"#,
            object(&mut d, &BATCH_JOB, &words),
            jobs.join(", ")
        ),
        _ => format!(
            r#"{{"service": {}, "jobs": [{}]}}"#,
            object(&mut d, &SERVICE, &words),
            jobs.join(", ")
        ),
    }
}

/// Random argv built from `front`'s flags, each mostly followed by a
/// value it takes, with junk mixed in.
fn argv(front: &FrontEnd, seed: u64) -> Vec<String> {
    let mut d = Draw(seed);
    let words = words();
    let mut args = Vec::new();
    for _ in 0..d.below(8) {
        let k = knob(front.keys[d.below(front.keys.len())]);
        args.push(k.flag());
        match (k.kind, d.below(10)) {
            (Kind::Switch(_), 0..=7) => {}
            (_, 0..=7) => args.push(fitting(&mut d, k, &words, false)),
            (_, 8) => args.push(d.pick(NUMBERS).to_string()),
            _ => args.push(words[d.below(words.len())].clone()),
        }
    }
    args
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every random batch document parses or gives a typed error.
    #[test]
    fn random_batches_never_panic(seed: u64) {
        let text = batch_text(seed);
        if let Ok(batch) = parse_batch(&text) {
            prop_assert!(!batch.jobs.is_empty(), "{text}");
        }
    }

    /// Every random command line parses into a validated run (or the
    /// service's pairs) or gives a typed error.
    #[test]
    fn random_command_lines_never_panic(seed: u64) {
        let args = argv(&HPLAI, seed);
        if let Ok((cfg, _)) = HPLAI.parse_flags(&args).and_then(|p| HPLAI.run(&p)) {
            prop_assert!(cfg.n > 0 && cfg.b > 0, "{args:?}");
        }
        let _ = HPLAI_SERVE.parse_flags(&argv(&HPLAI_SERVE, seed));
    }
}

#[test]
fn overflowing_grid_is_refused_naming_the_key() {
    let err = parse_batch(r#"{"jobs":[{"pr":4294967296,"pc":4294967296}]}"#).unwrap_err();
    assert!(
        matches!(&err, BatchError::BadValue { key, .. } if key == "pc"),
        "{err}"
    );
    let args = ["--pr", "4294967296", "--pc", "4294967296"].map(String::from);
    let err = HPLAI
        .parse_flags(&args)
        .and_then(|p| HPLAI.run(&p))
        .unwrap_err();
    assert!(
        matches!(&err, KnobError::Bad { key, msg } if key == "--pc" && msg.contains("overflows")),
        "{err}"
    );
    let args = ["--nl", "9223372036854775807", "--pr", "4", "--qr", "1"].map(String::from);
    let err = HPLAI
        .parse_flags(&args)
        .and_then(|p| HPLAI.run(&p))
        .unwrap_err();
    assert!(
        matches!(&err, KnobError::Bad { key, msg } if key == "--nl" && msg.contains("overflows")),
        "{err}"
    );
}

#[test]
fn repeat_seeds_wrap_past_u64_max() {
    let batch = parse_batch(r#"{"jobs":[{"seed":18446744073709551615,"repeat":2}]}"#).unwrap();
    let seeds: Vec<u64> = batch.jobs.iter().map(|j| j.seed).collect();
    assert_eq!(seeds, [u64::MAX, 0]);
}
