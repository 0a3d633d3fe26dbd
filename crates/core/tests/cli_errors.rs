//! `hplai` exits 2, without a panic, on grid and trace flags it cannot
//! honour: its documented code for a usage or configuration error.

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
