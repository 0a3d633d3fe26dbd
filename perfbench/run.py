#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
Cargo workspace, depending on the repository's crates by path) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload in one process. The last line of standard output is the
workload's JSON result. `--workload all` runs every workload, each in its
own process, and ends with one combined JSON line.

Workloads: solve-mxp, hpl-fp64, sim-summit, serve-batch (see
perfbench/src/workloads.rs for what each stresses and why). BENCHMARK.json
gates solve-mxp and sim-summit only: on a shared 2-vCPU virtual machine the
wall time of hpl-fp64 and serve-batch, which block and wake threads
thousands of times per operation, swings 2-3x with hypervisor steal.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["solve-mxp", "hpl-fp64", "sim-summit", "serve-batch"]


def source_id():
    """The commit, or a digest of the sources when this is not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ["crates", "vendor", "perfbench"]:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build(env):
    """Builds the benchmark; returns the executable path or None."""
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    target = env["CARGO_TARGET_DIR"]
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run_one(exe, env, workload, args, out_dir):
    """Runs one workload in its own process; returns its parsed result."""
    cmd = [
        exe,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", out_dir,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERFBENCH_COMMIT"] = source_id()
    exe = build(env)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = env["CARGO_TARGET_DIR"]
    out_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_one(exe, env, name, args, out_dir)
        if res is None:
            return 1
        results[name] = res
        if len(names) > 1:
            print(f"{name}: {json.dumps(res)}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
