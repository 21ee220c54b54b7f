#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload serve_mix|pipeline_scale|exec_ode \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds `ptsched` and the
`perfbench` measuring program in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs the workload in a fresh `perfbench` process,
and prints the metrics by name and unit, the run's context (nproc, rustc,
commit, seed), and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a separate traced replay of the same seeded inputs.
A traced run reports the layers on the workload's own path; the layers
only the other two workloads run come from their traced runs with the
same seed and seconds, each in a fresh process, and are listed under
`off_path_metrics`.
Every run's full record is also written under
`$CARGO_TARGET_DIR/perfbench-out/`.  The script exits non-zero without a
result when the checkout cannot be built.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_mix", "pipeline_scale", "exec_ode")
END_TO_END = ("setup_s", "latency_ms", "peak_rss_mb")
# The measuring program must finish within this many seconds (all three
# programs of a traced run together).
RUN_TIMEOUT_S = 170
# Pause after a build before measuring: the first run after a build read
# 2x slow while the build's output was still being written back.
SETTLE_S = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, env, target):
    """Build both programs; after a build that changed them, flush the
    written artifacts and let the machine settle before measuring."""
    bins = [target / "release" / name for name in ("ptsched", "perfbench")]
    before = [b.stat().st_mtime_ns if b.exists() else None for b in bins]
    steps = (
        ["cargo", "build", "--release", "--offline", "--bin", "ptsched"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(root / "perfbench" / "Cargo.toml")],
    )
    for cmd in steps:
        # Cargo's progress goes to stderr; stdout stays for the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    if [b.stat().st_mtime_ns for b in bins] != before:
        os.sync()
        time.sleep(SETTLE_S)


def tree_digest(root):
    """Content digest of the sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "compat", "perfbench"):
        base = root / top
        paths = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in paths:
            if "target" in p.relative_to(root).parts:
                continue
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return tree_digest(root)


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                             env=env, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_program(cmd, root, deadline):
    """Run the measuring program in its own process group, so a timeout
    also stops the `ptsched` child it started."""
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the measuring program did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"the measuring program failed with status {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the measuring program printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} is not a checkout of the repository (no Cargo.toml or crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(root, env, target)

    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def measure(workload):
        return run_program([
            str(target / "release" / "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--ptsched", str(target / "release" / "ptsched"),
            "--out", str(out_dir),
        ], root, deadline)

    result = measure(args.workload)
    if args.trace == "1":
        # Every traced run reports every per-layer metric: those of layers
        # off this workload's path come from the other workloads' traced
        # runs, each in a fresh process.  The result is correct only if
        # all three are, and counts the operations of all three.
        off_path = []
        for w in WORKLOADS:
            if w == args.workload:
                continue
            other = measure(w)
            result["correct"] = result["correct"] and other["correct"]
            result["attempted"] += other["attempted"]
            result["failed"] += other["failed"]
            result["errors"] = result.get("errors", []) + [f"{w}: {e}" for e in other.get("errors", [])]
            for name, m in other["metrics"].items():
                if name not in result["metrics"]:
                    result["metrics"][name] = m
                    off_path.append(f"{name} ({w})")
        result.setdefault("info", {})["off_path_metrics"] = off_path

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc_version(env),
        "commit": commit(root),
    }
    record = dict(context, **result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for k, v in context.items():
        print(f"# {k}: {v}")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    for k, v in result.get("info", {}).items():
        print(f"  {k}: {json.dumps(v)}")
    for e in result.get("errors", []):
        print(f"  CHECK FAILED: {e}")
    if args.trace == "1":
        spec = json.loads((root / "BENCHMARK.json").read_text())
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        wanted = END_TO_END
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        fail(f"missing metrics: {missing}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
