#!/usr/bin/env python3
"""Build and run the RECORD end-to-end benchmark.

    python3 perfbench/run.py --workload compile_stream|sim_long|service_open \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the repository's libraries) into
.bench_build/perfbench, runs one workload and prints the result JSON as the
last line of standard output. The deterministic values a run reports
("exact" in the binary's output) are kept per (workload, seed, seconds,
binary) in .bench_build/perfbench/exact/; a later run of the same binary
with the same key that reads a different value is reported as incorrect.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile_stream", "sim_long", "service_open")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build logs go to stderr.

    The compiler's temporary files go under the build directory too, so
    nothing is written outside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def check_exact(key, exact):
    """Compare this run's deterministic values with earlier runs of `key`.

    Returns the names whose value changed; records any new names."""
    path = os.path.join(BUILD, "exact", key + ".json")
    prior = {}
    if os.path.exists(path):
        with open(path) as f:
            prior = json.load(f)
    changed = sorted(k for k, v in exact.items() if k in prior and prior[k] != v)
    if not changed:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**prior, **exact}, f, indent=1, sort_keys=True)
    return changed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    exact = result.pop("exact")
    with open(exe, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    changed = check_exact(
        f"{args.workload}-{args.seed}-{args.seconds}-{binary}", exact)
    if changed:
        print("perfbench: deterministic values differ from an earlier run "
              "with this seed: " + ", ".join(changed), file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
