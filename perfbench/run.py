#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from this source tree and runs one
workload.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 25 --trace 0

Workloads: experiment, serve_cold, tcp_hot (see perfbench/README.md). The
output starts with a host block, then the workload's phase and metric lines;
the last line is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer metrics of a
separate traced run of every workload's layers). The exit code is nonzero on
any build failure or correctness violation.

The build goes to $CARGO_TARGET_DIR when it is set, else .bench_build, both
relative to the source tree's root; scratch files go under <build>/work.
"""
import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("experiment", "serve_cold", "tcp_hot")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl", "avx512_vnni", "avx_vnni", "amx_int8")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            match = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if match:
                values[match.group(1)] = match.group(2)
    return values


def source_digest():
    """sha256 over the library, tool and build sources (path and bytes)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "bench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(dirpath, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    if result.returncode != 0:
        return "none (not a git checkout)"
    return result.stdout.strip()


def host_block(build_dir):
    cpu, flags = "unknown", set()
    with open("/proc/cpuinfo") as info:
        for line in info:
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    lines = [
        ("cpu", cpu),
        ("nproc", str(len(os.sched_getaffinity(0)))),
        ("isa", " ".join(f for f in ISA_FLAGS if f in flags) or "none"),
        ("compiler", version[0] if version else compiler),
        ("build_type", cache.get("CMAKE_BUILD_TYPE", "?")),
        ("IRGNN_NATIVE_SIMD", cache.get("IRGNN_NATIVE_SIMD", "?")),
        ("IRGNN_FAILPOINTS", cache.get("IRGNN_FAILPOINTS", "?")),
        ("git_commit", git_commit()),
        ("source_sha256", source_digest()),
    ]
    for key, value in lines:
        print("host %-18s %s" % (key, value))


def pool_threads(workload, nproc):
    """The global thread pool size each workload runs with (None: default).

    serve_cold's open-loop generator spins on one core, so the router gets
    the others; an oversubscribed pool stalls forwards on descheduled
    helpers."""
    if workload == "serve_cold":
        # At least 2: the router's serving loop parks one pool worker.
        return str(max(2, nproc - 1))
    return None


def run_workload(build_dir, workload, args, deadline):
    """Runs the perfbench binary on one workload until `deadline`. Returns
    (exit code, parsed result line or None); the output goes to stdout,
    the result line labelled with the workload."""
    threads = pool_threads(workload, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.pop("IRGNN_NUM_THREADS", None)
    if threads:
        env["IRGNN_NUM_THREADS"] = threads
    print("run %s: IRGNN_NUM_THREADS %s" % (workload, threads or "default"))
    sys.stdout.flush()
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--served", os.path.join(build_dir, "irgnn", "irgnn_served")]
    # A session of its own, so a timeout can stop the whole process tree
    # (tcp_hot's daemon included).
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        log("perfbench: %s exceeded the run's %d s" % (workload,
                                                       RUN_TIMEOUT_S))
        return 4, None
    try:  # stop anything the run left behind in its session
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(out)
        log("perfbench: %s printed no result line" % workload)
        return child.returncode or 5, None
    sys.stdout.write("\n".join(lines[:-1] +
                                ["result %s: %s" % (workload, lines[-1])]))
    sys.stdout.write("\n")
    return child.returncode, result


def merge(results):
    """One result line from the traced passes of every workload; the passes
    name disjoint metrics, except trace.untraced_s, which adds up."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            if name == "trace.untraced_s" and name in merged["metrics"]:
                merged["metrics"][name]["value"] += metric["value"]
            elif name in merged["metrics"]:
                log("perfbench: metric %s reported twice" % name)
                merged["correct"] = False
            else:
                merged["metrics"][name] = dict(metric)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: %s is not an irgnn source tree (no CMakeLists.txt "
            "or src/ beside perfbench/)" % ROOT)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 3
    host_block(build_dir)
    sys.stdout.flush()

    # The traced run reports every per-layer metric whatever the workload:
    # the traced passes of all workloads, each with its own pool size, and
    # their metrics merged. The untraced run is the named workload alone.
    deadline = time.time() + RUN_TIMEOUT_S
    codes, results = [], []
    for workload in (WORKLOADS if args.trace else (args.workload,)):
        code, result = run_workload(build_dir, workload, args, deadline)
        if result is None:
            return code
        codes.append(code)
        results.append(result)
    result = merge(results) if args.trace else results[0]
    print(json.dumps(result))
    sys.stdout.flush()
    if any(codes) or not result["correct"]:
        log("perfbench: correctness violation (exit codes %s)" % codes)
        return next((c for c in codes if c), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
