#!/usr/bin/env python3
"""Served-path benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 5 --trace 0

Builds the library and the driver from source (Release) under .bench_build/,
records the workload's event streams once per seed and build, replays them
through the multi-campaign host, and prints a report followed, as the last
line, by {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones. Exits non-zero when the build fails or any output is wrong.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_BUILD, "perfbench")
WORKLOADS = ("fleet", "big_corpus")
BUILD_TYPE = "Release"

# Wall-clock ceilings per step, seconds. A run must end within 180 s once
# built; the first build in a checkout may take most of 900 s.
BUILD_TIMEOUT = 800
RECORD_TIMEOUT = 60
SERVE_TIMEOUT = 110


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout, log=None):
    """Runs cmd; on a timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=log or subprocess.PIPE,
                              stderr=subprocess.STDOUT if log else None)
    except subprocess.TimeoutExpired:
        fail("step timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except OSError as error:
        fail("cannot run %s: %s" % (cmd[0], error))


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BENCH_BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            done = run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                            BUILD_TIMEOUT, log)
            if done.returncode != 0:
                # A failed configure leaves a cache that would skip it next time.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        done = run_step(["cmake", "--build", BUILD_DIR, "-j", jobs],
                        BUILD_TIMEOUT, log)
    if done.returncode != 0:
        fail("build failed, see " + log_path)


def binary(name):
    return os.path.join(BUILD_DIR, name)


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def source_digest():
    """Digest of every library and benchmark source, for stamping results
    from checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def stamp():
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {"git_sha": sha, "source_sha": source_digest(),
            "build_type": BUILD_TYPE, "nproc": os.cpu_count()}


def recording(workload, seed):
    """The recording cache file for this workload, seed and build; recorded
    (untimed, in its own process) when missing."""
    build_id = file_digest(binary("perfbench_serve"))
    cache_dir = os.path.join(BENCH_BUILD, "recordings")
    os.makedirs(cache_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(cache_dir, "*.rec")):
        if not stale.endswith("-" + build_id + ".rec"):
            os.remove(stale)
    path = os.path.join(cache_dir, "%s-%d-%s.rec" % (workload, seed, build_id))
    if not os.path.exists(path):
        done = run_step([binary("perfbench_serve"), "record", "--workload",
                         workload, "--seed", str(seed), "--cache", path],
                        RECORD_TIMEOUT)
        if done.returncode != 0:
            fail("recording %s seed %d failed" % (workload, seed))
    return path


def serve(args, trace, cache):
    cmd = [binary("perfbench_serve"), "serve", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--cache", cache, "--work",
           os.path.join(BENCH_BUILD, "work",
                        "%s-%d" % (args.workload, os.getpid()))]
    if args.trace:
        # Per-layer figures come from the first round alone; one round each
        # keeps the traced run and its untraced reference short.
        cmd += ["--rounds", "1"]
    if args.corrupt:
        cmd.append("--corrupt")
    done = run_step(cmd, SERVE_TIMEOUT)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("driver printed no result (exit %d)" % done.returncode)
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        result["correct"] = False
    return result


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip a journal byte before recovery; the run "
                             "must then fail")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.selftest:
        done = run_step([binary("perfbench_selftest")], RECORD_TIMEOUT)
        print(done.stdout, end="")
        sys.exit(done.returncode)
    if args.workload is None:
        fail("--workload is required")

    cache = recording(args.workload, args.seed)
    results = []
    if args.trace:
        # trace.overhead_frac compares against an untraced run of the same
        # inputs; the untraced run's outputs are checked as well.
        results.append(serve(args, 0, cache))
    results.append(serve(args, args.trace, cache))
    measured = dict(results[-1]["metrics"])
    if args.trace:
        untraced = results[0]["metrics"]["events_per_s"]["value"]
        traced = measured["events_per_s"]["value"]
        measured["trace.overhead_frac"] = {
            "value": 1.0 - traced / untraced if untraced > 0 else 0.0,
            "unit": "fraction"}

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, unit in declared_metrics(section):
        if name not in measured:
            fail("metric %s was not measured" % name)
        metrics[name] = {"value": measured[name]["value"], "unit": unit}
    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    print("workload %s seed %d: error_rate %.6g, generator behind: %s"
          % (args.workload, args.seed, failed / max(1, attempted),
             "YES" if measured.get("gen.behind", {}).get("value") else "no"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
