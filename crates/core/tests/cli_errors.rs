//! `hplai` and `hplai-serve` exit 2, without a panic, on flags they
//! cannot honour: their documented code for a usage or configuration
//! error.

use std::process::Command;

/// Runs `hplai args`, asserts exit code 2 and no panic, returns stderr.
fn config_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hplai"))
        .args(args)
        .output()
        .expect("hplai starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "hplai {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "hplai {args:?}: {stderr}");
    stderr
}

#[test]
fn zero_node_tile_exits_2() {
    config_error(&["--qr", "0"]);
    config_error(&["--qc", "0"]);
}

#[test]
fn untileable_grid_exits_2() {
    config_error(&["--pr", "3", "--qr", "2"]);
    config_error(&["--col-major", "--pr", "3", "--pc", "1"]);
}

#[test]
fn unwritable_trace_exits_2_naming_the_path() {
    let path = "/nonexistent/dir/t.json";
    let stderr = config_error(&["--trace", path]);
    assert!(stderr.contains(path), "path not named: {stderr}");
}

#[test]
fn critical_mode_validates_its_config() {
    config_error(&["--mode", "critical", "--b", "0"]);
    config_error(&["--mode", "critical", "--nl", "100", "--b", "7"]);
}

#[test]
fn critical_mode_refuses_flags_it_never_reads() {
    for args in [
        &["--inject", "slow-gcd:3x"][..],
        &["--supervise"],
        &["--progress"],
        &["--trace", "t.json"],
        &["--precision", "bf16"],
    ] {
        let stderr = config_error(&[&["--mode", "critical"][..], args].concat());
        assert!(stderr.contains(args[0]), "{args:?} not named: {stderr}");
    }
}

#[test]
fn bad_values_name_the_flag_and_what_it_takes() {
    for (args, takes) in [
        (&["--nl", "12abc"][..], "non-negative integer"),
        (&["--seed", "-1"], "non-negative integer"),
        (&["--algo", "ring9"], "one of"),
    ] {
        let stderr = config_error(args);
        assert!(
            stderr.contains(args[0]),
            "{args:?}: flag not named: {stderr}"
        );
        assert!(
            stderr.contains(takes),
            "{args:?}: {takes:?} not said: {stderr}"
        );
    }
    let stderr = config_error(&["--algo", "ring9"]);
    for algo in mxp_msgsim::BcastAlgo::ALL {
        let name = algo.label().to_ascii_lowercase();
        assert!(stderr.contains(&name), "{name} not listed: {stderr}");
    }
}

#[test]
fn hplai_serve_bad_value_names_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_hplai-serve"))
        .args(["--workers", "abc"])
        .output()
        .expect("hplai-serve starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("--workers") && stderr.contains("non-negative integer"),
        "{stderr}"
    );
}

/// Runs `hplai-serve args`, asserts exit code 2 and no panic, returns
/// stderr.
fn serve_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hplai-serve"))
        .args(args)
        .output()
        .expect("hplai-serve starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "hplai-serve {args:?}: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "hplai-serve {args:?}: {stderr}"
    );
    stderr
}

/// 2^44 MiB is 2^64 bytes: one past what `usize` holds.
const OVERFLOWING_MB: &str = "17592186044416";

#[test]
fn hplai_serve_refuses_an_overflowing_cache_mb_flag() {
    let batch = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/batches/sweep.json"
    );
    let stderr = serve_error(&["--batch", batch, "--cache-mb", OVERFLOWING_MB]);
    assert!(
        stderr.contains("--cache-mb") && stderr.contains("overflows"),
        "{stderr}"
    );
}

#[test]
fn hplai_serve_refuses_an_overflowing_batch_cache_mb() {
    let path = std::env::temp_dir().join(format!("hplai-cache-mb-{}.json", std::process::id()));
    let text = format!(r#"{{"service": {{"cache_mb": {OVERFLOWING_MB}}}, "jobs": [{{}}]}}"#);
    std::fs::write(&path, text).expect("temp batch file is writable");
    let stderr = serve_error(&["--batch", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    assert!(
        stderr.contains("\"cache_mb\"") && stderr.contains("overflows"),
        "{stderr}"
    );
}
