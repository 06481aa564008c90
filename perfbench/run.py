#!/usr/bin/env python3
"""Build the benchmark, prepare its model and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload synth_offline --seed 1 --seconds 25 --trace 0

The Rust benchmark in this directory is built with cargo into
$CARGO_TARGET_DIR (default .bench_build). Every line the benchmark
prints is passed through; the last line is the JSON result. The full
output is also kept in <target>/perfbench-out/. Exits non-zero, without
a result, when the benchmark cannot be built or fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PINNED_CPU = "0"


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds from, so a result is
    tied to its code even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, names in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    model = os.path.join(out_dir, "model")
    os.makedirs(out_dir, exist_ok=True)
    prep = subprocess.run([binary, "prepare", "--model", model], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if prep.returncode != 0:
        print("perfbench: preparing the model failed", file=sys.stderr)
        return 1

    # End-to-end runs are pinned to one CPU (see README: every thread of
    # the process then runs where the host-speed reference is timed).
    # Traced runs are not, so the parallel-dispatch probe can fan out.
    pin = []
    if args.trace == "0" and shutil.which("taskset"):
        pin = ["taskset", "-c", PINNED_CPU]
    cmd = pin + [
        binary, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--model", model,
        "--out", out_dir,
        "--git", tool_output(["git", "rev-parse", "HEAD"]),
        "--rustc", tool_output(["rustc", "--version"]),
        "--source-digest", source_digest(),
        "--cpu-affinity", PINNED_CPU if pin else "all",
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(res.stderr)
    sys.stdout.write(res.stdout)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.ndjson"
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(res.stdout)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        print("perfbench: the benchmark failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
