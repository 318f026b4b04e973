#!/usr/bin/env python3
"""Builds bayou-server and the benchmark runner from source, then runs one
workload and relays its report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to standard error; the
last line of standard output is the runner's JSON result. The build lands
in $CARGO_TARGET_DIR (default: .bench_build), the run's data dirs in
.bench_work/, which is removed afterwards. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

# The runner itself stops at its own reply and convergence timeouts well
# before this; the wrapper is the last line of defence for the 180 s limit.
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds both binaries; build chatter goes to stderr."""
    steps = [
        ["cargo", "build", "--offline", "--release", "-p", "bayou-server", "--bin", "bayou-server"],
        ["cargo", "build", "--offline", "--release", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)
    # write the build's dirty pages back now, not under the fsyncs measured
    os.sync()


def stop_group(proc):
    """Kills the runner's whole process group (it and every bayou-server it
    spawned) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ["Cargo.toml", "crates/server/Cargo.toml", "perfbench/Cargo.toml"]:
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(target_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        os.path.join(target_dir, "release", "bayou-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(target_dir, "release", "bayou-server"),
        "--work-dir", work_dir,
    ]
    # its own process group, so a timeout or a signal takes the spawned
    # servers down with it
    proc = subprocess.Popen(cmd, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    stop_group(proc)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.join(root, ".bench_work"))
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
