//! `repro <exhibit> [flags]` — runs one exhibit of the registry, prints
//! it, and writes its files. With no exhibit it lists the registry.
//!
//! Exit codes: 0 on success, 1 when a floor gate fails (after every file
//! is written), 2 on a command-line error.

use mxp_bench::{emit_perf_reports, find, write_bench, write_result, Args, EXHIBITS};
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: repro <exhibit> [flags]\n\nexhibits:");
    for ex in EXHIBITS {
        let flags = ex.flags.join(" ");
        eprintln!("  {:<19} {}", ex.name, ex.reproduces);
        if !flags.is_empty() {
            eprintln!("  {:<19} flags: {flags}", "");
        }
    }
    exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = argv.split_first() else {
        usage()
    };
    let Some(ex) = find(name) else {
        eprintln!("repro: unknown exhibit {name:?}\n");
        usage()
    };
    let args = Args::parse(ex, flags).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        exit(2)
    });

    let out = (ex.run)(&args);
    for (stem, table) in &out.tables {
        table.emit(stem);
    }
    if !out.perf.is_empty() {
        emit_perf_reports(ex.name, &out.perf);
    }
    for (file, contents) in &out.files {
        write_result(file, contents);
    }
    if let (Some(bench), Some(report)) = (ex.bench, &out.report) {
        write_bench(bench, ex.name, args.quick, report.as_ref());
    }
    for note in &out.notes {
        println!("{note}");
    }
    let mut failed = false;
    for (passed, gate) in &out.gates {
        eprintln!("{} {gate}", if *passed { "floor ok:" } else { "FAIL:" });
        failed |= !passed;
    }
    exit(i32::from(failed))
}
