//! Byte pin of the two run front-ends: what `hplai` prints and exits with
//! for every command the README and CI run (plus one variant per flag and
//! the documented error cases), and every `RunConfig` the batch parser
//! expands from the committed example sweep and the README's example
//! batch.
//!
//! A refactor of the flag and batch-key parsing that keeps every option's
//! default and meaning leaves `tests/golden/cli_pin.txt` and
//! `tests/golden/batch_pin.txt` unchanged;
//! `GOLDEN_REGEN=1 cargo test -p hplai-core --test cli_pin` rewrites them
//! when a change is intended.

use hplai_core::parse_batch;
use std::fmt::Write;
use std::path::Path;
use std::process::Command;

/// Stands for a writable trace file; replaced by a per-case temporary
/// path before the run and cut back out of the recorded stdout.
const TRACE: &str = "<trace>";

/// `hplai` argument lists. The README and CI commands come first (CI's
/// 6,912-rank supervised Summit run is replaced by a 6-rank one of the
/// same shape), then one variant per flag, then the error cases.
#[rustfmt::skip]
const CASES: &[&[&str]] = &[
    // README.md
    &["--system", "frontier", "--mode", "critical", "--nl", "119808", "--b", "3072", "--pr", "172", "--pc", "172", "--qr", "4", "--qc", "2", "--algo", "ring2m"],
    &["--mode", "functional", "--nl", "128", "--b", "16", "--progress", "--trace", TRACE],
    &["--inject", "slow-gcd:3x", "--supervise"],
    // ci.yml
    &["--mode", "timing", "--precision", "fp32", "--supervise"],
    &["--system", "summit", "--mode", "timing", "--nl", "96", "--b", "16", "--pr", "3", "--pc", "2", "--qr", "3", "--qc", "2", "--supervise"],
    &["--system", "testbed", "--mode", "timing", "--nl", "4096", "--b", "512", "--pr", "4", "--pc", "4", "--trace", TRACE],
    // One variant per flag.
    &[],
    &["--system", "summit"],
    &["--system", "frontier", "--mode", "timing"],
    &["--mode", "timing"],
    &["--mode", "critical"],
    &["--mode", "critical", "--system", "summit", "--no-lookahead", "--col-major"],
    &["--mode", "critical", "--system", "summit", "--no-lookahead", "--col-major", "--pr", "3", "--pc", "2", "--nl", "96"],
    &["--mode", "critical", "--algo", "ring1m", "--seed", "9"],
    &["--nl", "64"],
    &["--b", "32"],
    &["--pr", "4", "--nl", "64"],
    &["--pc", "4"],
    &["--qr", "1"],
    &["--qc", "1"],
    &["--col-major"],
    &["--col-major", "--system", "summit", "--mode", "timing", "--pr", "3", "--pc", "2", "--nl", "96"],
    &["--col-major", "--system", "frontier", "--pr", "4", "--pc", "2", "--nl", "64"],
    &["--algo", "bcast"],
    &["--algo", "ibcast"],
    &["--algo", "ring1"],
    &["--algo", "ring1m"],
    &["--algo", "ring2m"],
    &["--precision", "fp16"],
    &["--precision", "bf16"],
    &["--precision", "fp32"],
    &["--no-lookahead"],
    &["--seed", "7"],
    &["--progress"],
    &["--mode", "timing", "--progress", "--inject", "slow-gcd:3x"],
    &["--trace", TRACE],
    &["--inject", "degrade:2x:k2:g1", "--inject", "link-lat:5ms"],
    &["--supervise"],
    // Error cases (exit 2 before or after the run).
    &["--qr", "0"],
    &["--qc", "0"],
    &["--pr", "3", "--qr", "2"],
    &["--col-major", "--pr", "3", "--pc", "1"],
    &["--trace", "/nonexistent/dir/t.json"],
    &["--help"],
    &["--frobnicate"],
    &["--nl"],
    &["--nl", "12abc"],
    &["--algo", "ring9"],
    &["--precision", "fp8"],
    &["--system", "aurora"],
    &["--seed", "-1"],
];

/// Runs one case and renders its command line, exit code and stdout.
fn record(case: usize, args: &[&str]) -> String {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_pin_{case}.trace.json"));
    let tmp = tmp.to_str().expect("utf-8 temp path");
    let argv: Vec<&str> = args
        .iter()
        .map(|&a| if a == TRACE { tmp } else { a })
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_hplai"))
        .args(&argv)
        .output()
        .expect("hplai starts");
    let stdout = String::from_utf8_lossy(&out.stdout).replace(tmp, TRACE);
    format!(
        "$ hplai {}\nexit {:?}\n{stdout}\n",
        args.join(" "),
        out.status.code()
    )
}

/// Compares `got` with the golden at `path` line by line, or rewrites it
/// under `GOLDEN_REGEN`.
fn check_golden(path: &str, got: &str) {
    let path = format!("{}/../../tests/golden/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}); GOLDEN_REGEN=1 generates it"));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{path} line {}: front-end output moved", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{path}: line count"
    );
}

#[test]
fn hplai_stdout_and_exit_codes_are_pinned() {
    // Two runs at a time: the cases are small, and the debug binary is
    // what tier-1 runs.
    let mut slots: Vec<String> = vec![String::new(); CASES.len()];
    std::thread::scope(|s| {
        for (half, chunk) in slots.chunks_mut(CASES.len().div_ceil(2)).enumerate() {
            s.spawn(move || {
                let base = half * CASES.len().div_ceil(2);
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = record(base + i, CASES[base + i]);
                }
            });
        }
    });
    check_golden("cli_pin.txt", &slots.concat());
}

/// The first ```json block of README.md: the example batch.
fn readme_batch() -> String {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    let start = readme.find("```json\n").expect("README has a json block") + "```json\n".len();
    let len = readme[start..].find("```").expect("json block closes");
    readme[start..start + len].to_string()
}

#[test]
fn batch_expansions_are_pinned() {
    let sweep = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/batches/sweep.json"
    ))
    .expect("sweep.json");
    let mut got = String::new();
    for (name, text) in [
        ("examples/batches/sweep.json", sweep),
        ("README.md", readme_batch()),
    ] {
        let batch = parse_batch(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        writeln!(
            got,
            "# {name}: workers {:?} cache_mb {:?}, {} jobs",
            batch.workers,
            batch.cache_mb,
            batch.jobs.len()
        )
        .unwrap();
        for (i, cfg) in batch.jobs.iter().enumerate() {
            writeln!(got, "{i} {cfg:?}").unwrap();
        }
    }
    check_golden("batch_pin.txt", &got);
}
