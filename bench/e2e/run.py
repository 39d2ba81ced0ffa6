#!/usr/bin/env python3
"""End-to-end benchmark of the offnet repository (see README.md here).

Run from the repository root:

  python3 bench/e2e/run.py --workload series|study|query \\
      --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py [--seed N] [--seconds S]

The first form runs one workload and prints "name value unit" lines, then
the one-line JSON result as the last line of stdout. The second runs every
workload, untraced and traced, prints all their metrics, and exits non-zero
if any output check fails.

Before running, the benchmark (bench/e2e/CMakeLists.txt: the repository's
libraries, offnetd and the offnet_e2e binary) is built from source into
.bench_build/ at the repository root; everything the benchmark writes
stays under that directory. Build output goes to stderr.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e")
WORKLOADS = ("series", "study", "query")
# A measured run takes well under a minute; this only stops a hang.
RUN_TIMEOUT_S = 600


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def environment():
    env = dict(os.environ)
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compilers and children keep temp files here
    return env


def build(env):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configuring the benchmark failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("building the benchmark failed")
    return os.path.join(BUILD_DIR, "offnet_e2e")


def declared_metrics():
    """Metric names per table (keyed by trace) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))
    return {False: [m["name"] for m in spec["end_to_end"]],
            True: [m["name"] for m in spec["per_layer"]]}


def die_with_parent():
    """In the benchmark's child: SIGKILL it when run.py dies (prctl
    PR_SET_PDEATHSIG), so no benchmark process outlives this script."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)


def run_one(binary, env, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, parsed last line or None)."""
    work = os.path.relpath(os.path.join(BUILD_ROOT, "work", workload), ROOT)
    command = [os.path.relpath(binary, ROOT), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--work", work]
    # A process group of its own, so a hang can be stopped with every
    # process it started.
    child = subprocess.Popen(command, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True,
                             preexec_fn=die_with_parent)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return [], None
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        return lines, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return lines, None
    return lines, result


def check_names(result, trace, declared):
    got = list(result["metrics"])
    if sorted(got) != sorted(declared[trace]):
        return "metrics %s differ from BENCHMARK.json's %s" % (
            sorted(got), sorted(declared[trace]))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found under " + ROOT)
    declared = declared_metrics()
    env = environment()
    binary = build(env)

    if args.workload is not None:
        trace = bool(args.trace)
        lines, result = run_one(binary, env, args.workload, args.seed,
                                args.seconds, trace)
        problem = ("run failed" if result is None else
                   check_names(result, trace, declared))
        # A result whose names are wrong is withheld, not printed last.
        print("\n".join(lines[:-1] if problem and result else lines))
        if problem:
            fail("%s: %s" % (args.workload, problem))
        sys.exit(0 if result["correct"] else 1)

    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            label = "%s%s" % (workload, " (traced)" if trace else "")
            print("== %s, seed %d, %d s" % (label, args.seed, args.seconds))
            sys.stdout.flush()
            lines, result = run_one(binary, env, workload, args.seed,
                                    args.seconds, trace)
            print("\n".join(lines))
            problem = ("run failed" if result is None else
                       check_names(result, trace, declared) or
                       (None if result["correct"] else "output check failed"))
            if problem:
                failures.append("%s: %s" % (label, problem))
    for failure in failures:
        print("FAILED " + failure)
    print("all workloads %s" % ("failed" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
