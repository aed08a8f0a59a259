#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload road-w --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark binary is built from the
checkout's sources into .bench_build/ (Release), then run once.  The
human-readable table goes to standard output first; the last line is the
result as JSON: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  The full result, stamped with the seed, the
source digest and the host, is kept in .bench_build/results/, and the spans
of a traced run in .bench_build/traces/.

--workload all runs every workload in turn, each with its table and
result line.

Exit status: 0 when every query was answered correctly; non-zero when the
build fails, a query fails or the run does not finish in time.
README.md in this directory describes the workloads and metrics.
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
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# road-w is not in BENCHMARK.json: its run-to-run spread on a shared host
# exceeds the largest bound the benchmark may set (see README.md).  It stays
# runnable by hand.
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"]) + ("road-w",)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (a checkout need not be
    a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


def print_table(doc):
    stamp = doc["stamp"]
    print(f"perfbench {doc['workload']}  seed {stamp['seed']}  "
          f"trace {doc['trace']}  {doc['seconds']} s")
    print(f"  host: {stamp['cpu_model']}, nproc {stamp['nproc']}, "
          f"L3 {stamp['l3_bytes']} B; {stamp['build_type']} build, "
          f"{stamp['compiler']}; sources {stamp['source_digest'][:12]}")
    print(f"  queries attempted {doc['attempted']}, failed {doc['failed']}, "
          f"fail_ratio {doc['fail_ratio']}")
    for why in doc["failures"]:
        print(f"  FAILED: {why}")
    for section in ("metrics", "info"):
        for name, m in doc[section].items():
            print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; prints its table and result line; returns the
    exit status."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    results = BUILD_ROOT / "results"
    traces = BUILD_ROOT / "traces"
    results.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--work-dir", str(BUILD_ROOT / "work")]
    if trace:
        command += ["--trace-out", str(traces / f"{tag}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: benchmark exited {run.returncode} without a result")
        return 1
    doc = json.loads(lines[-1])
    doc["stamp"]["commit"] = git_commit()
    doc["stamp"]["source_digest"] = source_digest()

    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != expected:
        log(f"{workload}: metrics do not match BENCHMARK.json: got "
            f"{sorted(got.items())}, expected {sorted(expected.items())}")
        return 1
    (results / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")

    print_table(doc)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}),
          flush=True)
    return 0 if run.returncode == 0 and doc["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status |= run_one(binary, workload, args.seed, args.seconds, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
