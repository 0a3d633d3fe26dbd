//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <solve-mxp|hpl-fp64|sim-summit|serve-batch>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! One process runs one workload: set-up (cold kernel-tuner sweep against
//! a fresh tuning file, pool spin-up, configuration), one untimed warm-up
//! operation, and then timed operations until `--seconds` of timed work
//! have run. Every operation's outputs are checked. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes a Chrome trace and the full
//! per-layer table to `--out-dir`.

mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use rayon::prelude::*;
use spans::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{OpOut, Prepared, Workload};

/// Timed operations a run makes at least, so every run can compare the
/// digests of two operations at one seed.
const MIN_OPS: usize = 2;
/// Set-up samples per run (the first is the real cold start).
const SETUP_SAMPLES: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter().position(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    for a in argv.iter().step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace", "--out-dir"].contains(&a.as_str()) {
            usage(&format!("unknown argument {a:?}"));
        }
    }
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload = Workload::parse(&workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}")));
    let num = |flag: &str, default: &str| -> f64 {
        let v = get(flag).unwrap_or_else(|| default.to_string());
        v.parse()
            .unwrap_or_else(|_| usage(&format!("{flag} {v:?} is not a number")))
    };
    let seed = get("--seed")
        .unwrap_or_else(|| "1".into())
        .parse::<u64>()
        .unwrap_or_else(|_| usage("--seed must be a non-negative integer"));
    let seconds = num("--seconds", "10");
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => usage(&format!("--trace {v:?} must be 0 or 1")),
    };
    let out_dir = get("--out-dir").map_or_else(
        || PathBuf::from(".bench_build/perfbench-out"),
        PathBuf::from,
    );
    Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    }
}

/// A fresh, not-yet-existing tuning-file path owned by this process.
fn fresh_tune_file(dir: &Path, i: usize) -> PathBuf {
    let p = dir.join(format!("tune-{}-{i}.json", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// One set-up sample: its wall time and the kernels the sweep chose.
struct SetupSample {
    secs: f64,
    f32_kernel: &'static str,
    f64_kernel: &'static str,
}

/// Steal share of CPU capacity up to which an operation counts as calm.
const CALM_STEAL: f64 = 0.03;
/// How far past `--seconds` a run may extend while too few of its
/// operations are calm.
const EXTEND: f64 = 1.4;

/// Operations timings are taken over, at least a quarter of a run's.
fn quorum(ops: usize) -> usize {
    ops.div_ceil(4)
}

/// The operations timings are taken over: every calm one (steal at most
/// [`CALM_STEAL`]), or the [`quorum`] with the least steal when fewer are
/// calm.
///
/// On shared virtual machines hypervisor steal swings from 0 to over 30%
/// within seconds and stretches wall time with it; the operations left
/// out are still checked and printed.
fn kept(ops: &[Op]) -> Vec<&Op> {
    let mut by_steal: Vec<&Op> = ops.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    by_steal.truncate(calm(ops).max(quorum(ops.len())));
    by_steal
}

fn calm(ops: &[Op]) -> usize {
    ops.iter().filter(|o| o.steal <= CALM_STEAL).count()
}

/// A repeated set-up: the pool is already up, so the sample is the cold
/// tuner sweep against a fresh file plus the configuration build.
fn setup_sample(w: Workload, seed: u64, nproc: usize, dir: &Path, i: usize) -> SetupSample {
    let t = Instant::now();
    let f = fresh_tune_file(dir, i);
    let a = mxp_blas::tune::resolve_fresh_with_file("f32", Some(&f));
    let b = mxp_blas::tune::resolve_fresh_with_file("f64", Some(&f));
    drop(workloads::prepare(w, seed, nproc));
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&f);
    SetupSample {
        secs,
        f32_kernel: a.kernel,
        f64_kernel: b.kernel,
    }
}

/// One timed operation.
struct Op {
    wall: f64,
    cpu: f64,
    steal: f64,
    out: OpOut,
}

fn timed_op(p: &mut Prepared, tracer: &mut Tracer, span: &str) -> Op {
    workloads::stage(p);
    let (cpu0, ticks0) = (host::process_cpu_s(), host::CpuTicks::now());
    let t = Instant::now();
    let s = tracer.begin(span);
    let raw = catch_unwind(AssertUnwindSafe(|| workloads::execute(p)));
    tracer.end(s);
    let wall = t.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    let steal = host::CpuTicks::now().steal_frac_since(&ticks0);
    let sched = mxp_msgsim::last_event_stats();
    let out = match raw {
        Ok(raw) => workloads::check(p, raw, sched),
        Err(_) => OpOut {
            attempted: 1,
            failed: 1,
            failures: vec!["panicked".into()],
            ..OpOut::default()
        },
    };
    Op {
        wall,
        cpu,
        steal,
        out,
    }
}

/// A metric as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        debug_assert!(stats::valid_name(name), "{name}");
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Formats `v` as a JSON number with every digit Rust's shortest
/// round-trip form gives (non-finite values become `null`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.join(", ")
    )
}

fn main() {
    let entry = Instant::now();
    let args = parse_args();
    let w = args.workload;
    let nproc = host::nproc();
    let tune_dir = args.out_dir.join("tune");
    std::fs::create_dir_all(&tune_dir)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", tune_dir.display())));
    // Isolate the tuner: a fresh file owned by this run, so set-up always
    // measures the cold sweep and no stale or foreign entry picks the
    // kernel. Both variables are read lazily, after this point.
    let tune_file = fresh_tune_file(&tune_dir, 0);
    std::env::set_var("HPLAI_TUNE_FILE", &tune_file);
    // Load caps: one process, pool width = service workers = nproc; event
    // shards default to the host's parallelism.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    std::env::remove_var("HPLAI_EVENT_SHARDS");
    std::env::remove_var("HPLAI_KERNEL");

    let mut tracer = Tracer::new(args.trace);
    let root = tracer.begin("bench");
    let setup = tracer.begin("setup");
    let tune = tracer.begin("blas.tune");
    let t = Instant::now();
    let (k32, k64) = (mxp_blas::kernel_info_f32(), mxp_blas::kernel_info_f64());
    let sweep_s = t.elapsed().as_secs_f64();
    tracer.end(tune);
    tracer.time("rayon.spin_up", || {
        (0..4 * nproc).into_par_iter().for_each(|i| {
            std::hint::black_box(i);
        })
    });
    let mut prep = tracer.time("core.prepare", || workloads::prepare(w, args.seed, nproc));
    tracer.end(setup);
    let mut setups = vec![SetupSample {
        secs: entry.elapsed().as_secs_f64(),
        f32_kernel: k32.kernel,
        f64_kernel: k64.kernel,
    }];

    // ---- timed section ---------------------------------------------------
    let span = match w {
        Workload::SolveMxp | Workload::SimSummit => "core.run",
        Workload::HplFp64 => "core.hpl_dist_solve",
        Workload::ServeBatch => "core.service.drain",
    };
    let mut ops: Vec<Op> = Vec::new();
    let mut off = Tracer::new(false);
    // The first operation of a process pays one-time costs later ones do
    // not (first-touch page faults, fiber-stack allocation): the first
    // sim-summit operation ran up to 1.2 s (10%) longer than the next
    // ones. It is checked but not timed.
    let warm_up = timed_op(&mut prep, &mut off, span);
    let mut sharded = None;
    if args.trace {
        // One untraced and one traced operation: the difference is the
        // tracing overhead; the layer measurements follow.
        ops.push(timed_op(&mut prep, &mut off, span));
        ops.push(timed_op(&mut prep, &mut tracer, span));
        if w == Workload::SimSummit {
            // The timed operation runs on one shard; this one runs on the
            // default shard count, for the speed-up and cross-shard traffic.
            let mut p = workloads::with_shards(&prep, 0);
            sharded = Some(timed_op(&mut p, &mut tracer, "probe.msgsim.sharded"));
        }
    } else {
        // Run about `--seconds` of operations (stop when the next one would
        // more likely end past the budget than before it), then keep going,
        // up to `EXTEND` times the budget, while fewer than a quorum of
        // them are calm.
        let mut timed = 0.0;
        loop {
            let next = 0.5 * ops.last().map_or(0.0, |o| o.wall);
            let budget = if calm(&ops) >= quorum(ops.len()) {
                args.seconds
            } else {
                EXTEND * args.seconds
            };
            if ops.len() >= MIN_OPS && timed + next >= budget {
                break;
            }
            let op = timed_op(&mut prep, &mut off, span);
            timed += op.wall;
            ops.push(op);
            // Set-up samples spread over the run average out short bursts
            // of host noise that a back-to-back series would all share.
            for _ in 0..2 {
                if setups.len() < SETUP_SAMPLES {
                    setups.push(setup_sample(w, args.seed, nproc, &tune_dir, setups.len()));
                }
            }
        }
    }

    // ---- further set-up samples -----------------------------------------
    let extra = if args.trace { 0 } else { SETUP_SAMPLES - 1 };
    while setups.len() <= extra {
        setups.push(setup_sample(w, args.seed, nproc, &tune_dir, setups.len()));
    }

    // ---- correctness -----------------------------------------------------
    // Every operation, the warm-up and the sharded one included, must give
    // the warm-up's simulated digest.
    let checked: Vec<(String, &Op)> = std::iter::once(("warm-up".to_string(), &warm_up))
        .chain(ops.iter().enumerate().map(|(i, o)| (format!("op {i}"), o)))
        .chain(sharded.iter().map(|o| ("sharded op".to_string(), o)))
        .collect();
    let mut attempted: u64 = checked.iter().map(|(_, o)| o.out.attempted).sum();
    let mut failed: u64 = checked.iter().map(|(_, o)| o.out.failed).sum();
    let mut failures: Vec<String> = checked
        .iter()
        .flat_map(|(_, o)| o.out.failures.clone())
        .collect();
    let digest0 = warm_up.out.digest;
    for (label, op) in checked.iter().skip(1) {
        attempted += 1;
        if op.out.digest != digest0 {
            failed += 1;
            failures.push(format!(
                "{label}: simulated digest {:016x} != {digest0:016x}",
                op.out.digest
            ));
        }
    }

    // ---- report ----------------------------------------------------------
    let kept = kept(&ops);
    let walls: Vec<f64> = kept.iter().map(|o| o.wall).collect();
    let cpus: Vec<f64> = kept.iter().map(|o| o.cpu).collect();
    let setup_secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let wall_s = stats::median(&walls);
    let (n, ..) = w.shape();
    let jobs_per_op = if w == Workload::ServeBatch {
        workloads::BATCH_JOBS
    } else {
        1
    };
    let flops = jobs_per_op as f64 * hplai_core::hplai_flops(n);
    let job_ms: Vec<f64> = if w == Workload::ServeBatch {
        kept.iter()
            .flat_map(|o| o.out.jobs.iter().map(|j| j.0 * 1e3))
            .collect()
    } else {
        walls.iter().map(|s| s * 1e3).collect()
    };
    let shards = ops
        .iter()
        .filter_map(|o| o.out.sched)
        .map(|s| s.shards)
        .max()
        .unwrap_or(0);

    println!(
        "perfbench {} seed {}: {} timed operations, timings over the {} calmest",
        w.name(),
        args.seed,
        ops.len(),
        kept.len()
    );
    println!(
        "host: {} | nproc {nproc} | rayon threads {} | event shards {shards} | service workers {} | simd {} | commit {}",
        host::cpu_model(),
        rayon::current_num_threads(),
        prep.workers,
        k32.isa.name(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    for (i, s) in setups.iter().enumerate() {
        println!(
            "setup sample {i}: {:.4} s, f32 {} f64 {}",
            s.secs, s.f32_kernel, s.f64_kernel
        );
    }
    for (label, o) in &checked {
        println!(
            "{label}: wall {:.4} s cpu {:.2} s steal {:.2}% digest {:016x} (kernels f32 {} f64 {})",
            o.wall,
            o.cpu,
            100.0 * o.steal,
            o.out.digest,
            k32.kernel,
            k64.kernel
        );
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    println!("setup_s: {}", stats::describe(&setup_secs, "s"));
    println!("wall_s: {}", stats::describe(&walls, "s"));
    println!("cpu_s: {}", stats::describe(&cpus, "s"));
    println!("job_ms: {}", stats::describe(&job_ms, "ms"));
    println!(
        "fail_frac: {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        let out = layers::measure(
            &layers::Inputs {
                prep: &prep,
                untraced_wall: ops[0].wall,
                traced_wall: ops[1].wall,
                out: &ops[1].out,
                sharded: sharded.as_ref().map(|o| (o.wall, &o.out)),
                sweep_s,
                nproc,
                k32: k32.kernel,
                k64: k64.kernel,
            },
            &mut tracer,
        );
        tracer.end(root);
        attempted += out.probe_checks.0;
        failed += out.probe_checks.1;
        let id = format!("{}-seed{}", w.name(), args.seed);
        layers::write(&args.out_dir, &id, &out, &tracer);
        out.metrics
    } else {
        vec![
            Metric::new("setup_s", stats::median(&setup_secs), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("cpu_s", stats::median(&cpus), "s"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
            Metric::new("host_gflops", flops / wall_s / 1e9, "GFLOP/s"),
            Metric::new("solves_per_s", jobs_per_op as f64 / wall_s, "1/s"),
            Metric::new("job_p50_ms", stats::median(&job_ms), "ms"),
        ]
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let _ = std::fs::remove_file(&tune_file);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(steals: &[f64]) -> Vec<Op> {
        steals
            .iter()
            .enumerate()
            .map(|(i, &steal)| Op {
                wall: i as f64,
                cpu: 0.0,
                steal,
                out: OpOut::default(),
            })
            .collect()
    }

    fn walls(kept: Vec<&Op>) -> Vec<f64> {
        let mut w: Vec<f64> = kept.iter().map(|o| o.wall).collect();
        w.sort_by(f64::total_cmp);
        w
    }

    #[test]
    fn kept_takes_every_calm_operation() {
        let o = ops(&[0.0, 0.2, 0.01, 0.03, 0.5]);
        assert_eq!(walls(kept(&o)), [0.0, 2.0, 3.0]);
    }

    #[test]
    fn kept_falls_back_to_the_calmest_quarter() {
        let o = ops(&[0.3, 0.1, 0.2, 0.25, 0.4, 0.15, 0.35, 0.5]);
        assert_eq!(walls(kept(&o)), [1.0, 5.0]);
        assert_eq!(walls(kept(&ops(&[0.4, 0.3]))), [1.0]);
        assert!(kept(&[]).is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }
}
