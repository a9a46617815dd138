#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (which compiles the library sources under src/) into
.bench_build/ in Release; later calls rebuild only what changed.  The
benchmark binary prints its report and, as the last stdout line, one JSON
object with the keys correct, attempted, failed and metrics.  This script
checks that line against BENCHMARK.json before passing it on: a run whose
metrics do not match the declared ones exits non-zero with no result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "lcdc_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_build_steps(configure):
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    steps = []
    if configure:
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            return f"build step failed ({rc}): {' '.join(cmd)}"
    return None


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources: {ROOT / 'src'} is missing")
    cached = (BUILD / "CMakeCache.txt").exists()
    problem = run_build_steps(configure=not cached)
    if problem and cached:
        # A build tree left by another checkout location: start afresh.
        shutil.rmtree(BUILD)
        problem = run_build_steps(configure=True)
    if problem:
        fail(problem)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(line, declared):
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    if set(res["metrics"]) != declared:
        missing = sorted(declared - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - declared)
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = (f"benchmark binary exited with {proc.returncode}" if proc.returncode != 0
               else check_result(lines[-1], declared))
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
