#!/usr/bin/env python3
"""Build the itm benchmark from source and run one workload.

Run from the root of an itm checkout:

    python3 perfbench/run.py --workload map-probe --seed 1 --seconds 8 --trace 0

The first run builds `itm` and the benchmark driver into `.bench_build/`
(CMake, RelWithDebInfo) and compiles the medium-tier snapshot the serve
workloads serve; later runs reuse both while the binaries are unchanged.
The snapshots of the last few builds are kept.
The last stdout line is the run's result object. Extra modes:

    --repeat N     run N times with seeds seed..seed+N-1 and print each
                   metric's median and quartile spread against its bound
    --selftest     build and run the benchmark's own tests
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 170
SNAPSHOTS_KEPT = 4


def die(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        die("itm sources (src/) not found next to perfbench/", 2)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        die("build failed", 2)


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def medium_snapshot(driver, itm):
    """The medium-tier snapshot for this build, compiled on first use.

    One snapshot is kept per build, so runs that alternate between a few
    builds reuse theirs; beyond SNAPSHOTS_KEPT the least recently used go.
    """
    cache = os.path.join(BUILD, "cache")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "medium-%s.itms" % digest([driver, itm]))
    if os.path.exists(path):
        os.utime(path)
        return path
    entries = sorted((os.path.join(cache, name) for name in os.listdir(cache)),
                     key=os.path.getmtime)
    for stale in entries[:max(0, len(entries) - (SNAPSHOTS_KEPT - 1))]:
        os.remove(stale)
    result = subprocess.run([driver, "--make-snapshot", path], stdout=sys.stderr,
                            timeout=900)
    if result.returncode != 0 or not os.path.exists(path):
        die("building the medium-tier snapshot failed", 2)
    return path


def itm_version(itm):
    out = subprocess.run([itm, "version"], capture_output=True, text=True).stdout
    return "; ".join(line.strip() for line in out.splitlines() if line.strip())


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m for m in group}


def run_once(args, driver, itm, snapshot, seed):
    work = os.path.join(BUILD, "run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [driver, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--itm", itm, "--work-dir", work, "--snapshot", snapshot,
               "--itm-version", itm_version(itm)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("the run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        trace = os.path.join(work, "trace.json")
        if os.path.exists(trace):
            os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
            shutil.copy(trace, os.path.join(BUILD, "traces",
                                            "%s-%d.json" % (args.workload, seed)))
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        die("itm_perfbench exited with %d" % result.returncode)
    lines = result.stdout.rstrip("\n").split("\n")
    record = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if set(record["metrics"]) != set(want):
        missing = sorted(set(want) - set(record["metrics"]))
        extra = sorted(set(record["metrics"]) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    return lines, record


def repeat(args, driver, itm, snapshot):
    values = {}
    for i in range(args.repeat):
        lines, record = run_once(args, driver, itm, snapshot, args.seed + i)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            args.seed + i, record["correct"], record["attempted"], record["failed"]),
            flush=True)
        for line in lines:
            if line.strip().startswith("first failure:"):
                print("  " + line.strip(), flush=True)
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = expected_metrics(args.trace)
    summary = {}
    print("%-32s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, series in sorted(values.items()):
        mid = statistics.median(series)
        spread = 0.0
        if len(series) >= 2 and mid:
            q = statistics.quantiles(series, n=4)
            spread = (q[2] - q[0]) / mid
        bound = bounds[name].get("bound")
        summary[name] = {"median": mid, "spread": spread, "values": series}
        print("%-32s %14.6g %9.4f %7s" % (name, mid, spread,
                                          "" if bound is None else bound))
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.abspath(os.path.join(CMAKE_DIR, "perfbench_tests"))],
                                cwd=CMAKE_DIR).returncode)
    if not args.workload:
        die("--workload is required", 2)

    build(["itm", "itm_perfbench"])
    driver = os.path.join(CMAKE_DIR, "itm_perfbench")
    itm = os.path.join(CMAKE_DIR, "itm")
    snapshot = medium_snapshot(driver, itm)
    if args.repeat:
        repeat(args, driver, itm, snapshot)
        return
    lines, _ = run_once(args, driver, itm, snapshot, args.seed)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
