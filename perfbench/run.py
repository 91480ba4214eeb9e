#!/usr/bin/env python3
"""End-to-end benchmark of the xtask runtime (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload fine-tasks --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seconds 10] [--seed 1] [--trace 0|1]
  python3 perfbench/run.py --crash-check
  python3 perfbench/run.py --self-test

Each run first builds perfbench/ (CMake, Release) into
.bench_build/perfbench, then runs the xbench binary. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --all runs every workload, prints each metric with its unit and
exits non-zero if any output check failed.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-spans")
WORKLOADS = ["fine-tasks", "dag-blocked", "serve-open.light",
             "serve-open.busy", "serve-ipc"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.hpp")):
        log("perfbench: runtime sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    for t in targets:
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs,
                              "--target", t],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return False
    return True


def run_xbench(args, capture, timeout=RUN_TIMEOUT_S):
    """Run xbench; returns (exit code, stdout text or None)."""
    cmd = [os.path.join(BUILD, "xbench")] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: xbench timed out")
        return 1, None
    return p.returncode, p.stdout


def parse_result(out):
    lines = [ln for ln in (out or "").splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def workload_args(ns, workload):
    args = ["--workload", workload, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        args += ["--span-dir", SPAN_DIR]
    return args


def one(ns):
    if not build(["xbench"]):
        return 2
    rc, out = run_xbench(workload_args(ns, ns.workload), capture=True)
    sys.stdout.write(out or "")
    sys.stdout.flush()
    if rc != 0 or parse_result(out) is None:
        log("perfbench: xbench failed (exit %d) or printed no result" % rc)
        return rc or 1
    return 0


def run_all(ns):
    if not build(["xbench"]):
        return 2
    ok = True
    summary = {}
    for w in WORKLOADS:
        print("== %s (seed %d, %ss, trace %d)" % (w, ns.seed, ns.seconds,
                                                  ns.trace), flush=True)
        rc, out = run_xbench(workload_args(ns, w), capture=True)
        sys.stdout.write(out or "")
        res = parse_result(out)
        if rc != 0 or res is None or not res["correct"]:
            ok = False
            print("FAIL %s: exit %d, result %s" % (w, rc, res), flush=True)
        if res is not None:
            summary[w] = res
    print("== summary")
    for w, res in summary.items():
        for name, m in res["metrics"].items():
            print("%-18s %-32s %16.6f %s" % (w, name, m["value"], m["unit"]))
        print("%-18s %-32s %16d of %d" % (w, "failed", res["failed"],
                                          res["attempted"]))
    print("ALL CHECKS PASSED" if ok else "OUTPUT CHECKS FAILED", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and fail on any check failure")
    ap.add_argument("--crash-check", action="store_true",
                    help="list configs that die on a signal at these inputs")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    ns = ap.parse_args()
    if ns.seconds <= 0 or ns.seconds > 60:
        ap.error("--seconds must be in (0, 60]")
    if ns.self_test:
        if not build(["xbench_selftest"]):
            return 2
        return subprocess.call([os.path.join(BUILD, "xbench_selftest")])
    if ns.crash_check:
        if not build(["xbench"]):
            return 2
        # Each child is bounded by xbench itself (60 s).
        rc, _ = run_xbench(["--crash-check"], capture=False, timeout=None)
        return rc
    if ns.all:
        return run_all(ns)
    if ns.workload is None:
        ap.error("--workload, --all, --crash-check or --self-test is required")
    return one(ns)


if __name__ == "__main__":
    t0 = time.time()
    rc = main()
    log("perfbench: done in %.1f s" % (time.time() - t0))
    sys.exit(rc)
