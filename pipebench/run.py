#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 pipebench/run.py --workload backfill|retrain \
        --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
the benchmark package (pipebench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/pipebench; later calls only check
that the build is current.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  The
traced run (--trace 1) writes its spans to
.bench_build/pipebench/spans/<workload>-seed<N>.tsv.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "pipebench"
BUILD = ROOT / ".bench_build" / "pipebench"
WORKLOADS = ("backfill", "retrain")
MAX_SECONDS = 600  # the binary's own limit
# Input generation, model training and the interleaved setups take about
# 20 s on top of --seconds; a traced run measures 2/3 of --seconds but
# adds its probes.  A run still going after this has hung.
SETUP_HEADROOM_S = 115
SELFTEST_TIMEOUT_S = 120


def run_timeout(seconds):
    return SETUP_HEADROOM_S + 2 * seconds


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds `targets`; False on any failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--parallel", "4",
                      "--target", *targets])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                if step is steps[0] and len(steps) == 2:
                    # A failed configure must not look configured next time.
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
    return True


def commit_id():
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    code measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", ROOT / "bench" / "bench_common.hpp", PACKAGE):
        paths = top.rglob("*") if top.is_dir() else [top]
        for path in sorted(p for p in paths if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run(command, timeout_s):
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {timeout_s} s; stopping it")
        proc.kill()
        proc.wait()
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from a checkout")
        return 2

    if args.selftest:
        if not build(["pipebench_selftest"]):
            return 1
        return run([str(BUILD / "pipebench_selftest")], SELFTEST_TIMEOUT_S)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]")
    if not build(["pipebench"]):
        return 1

    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    command = [
        str(BUILD / "pipebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", str(spans / f"{args.workload}-seed{args.seed}.tsv"),
        "--commit", commit_id(),
        "--source", source_digest(),
    ]
    sys.stdout.flush()
    return run(command, run_timeout(args.seconds))


if __name__ == "__main__":
    sys.exit(main())
