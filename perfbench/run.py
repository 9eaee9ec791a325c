#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only re-check the build. Each run gets a
private directory under .bench_run/ for its WALs, snapshots and Unix
socket, removed afterwards. Traced runs write their spans to
.bench_out/trace_<workload>.csv.

The last line of stdout is the binary's JSON result. The exit status is
non-zero when the build fails, an output check fails or the run exceeds
its time limit.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest_open_loop", "controller_churn", "wal_recovery",
             "fleet_pack", "study_sweep")
# Every workload runs with one pool thread. Pinned because malloc arenas,
# and so peak RSS, grow with the thread count.
VMCW_THREADS = 1
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configure once, then let the build re-check its inputs on each run
    (configuring again if that fails). A lock keeps concurrent runs in one
    checkout from building at once."""
    src = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", build_dir, "--target", "vmcw_perfbench", "-j", jobs]

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
        ok = configured and run(make)
        if not ok:
            ok = run(configure) and run(make)
        if not ok:
            sys.exit("perfbench: build failed in " + build_dir)
    return os.path.join(build_dir, "vmcw_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)

    run_dir = os.path.join(root, ".bench_run", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, "trace_%s.csv" % args.workload)]
    env = dict(os.environ)
    env["VMCW_THREADS"] = str(VMCW_THREADS)
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    sys.stdout.write(out)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or not result.get("correct"):
        sys.exit("perfbench: %s failed (exit %d)" % (args.workload, proc.returncode))


if __name__ == "__main__":
    main()
