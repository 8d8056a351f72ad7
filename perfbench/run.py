#!/usr/bin/env python3
"""Serve-level benchmark: build from source, run one workload, print the result.

    python3 perfbench/run.py --workload serve_lt_t1 --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds the
library, `batch_service` and `serve_bench` (Release) under
.bench_build/perfbench; later runs rebuild only what changed. serve_bench's
last stdout line is the JSON result; see perfbench/NOTES.md for the
workloads and metrics. `--smoke` shrinks the storms for the benchmark's own
test. Exits non-zero when the build fails or an output check fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    # Configuring again is cheap once cached, and recovers a failed first try.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "serve_bench",
                    "batch_service"], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "serve_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--server", os.path.join(BUILD, "batch_service"), "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")

    # serve_bench and the servers it spawns share one process group, so a
    # timeout or a termination signal stops all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(1)))
    try:
        out, _ = proc.communicate(timeout=min(170.0, 60.0 + 3.0 * args.seconds))
    except subprocess.TimeoutExpired:
        stop()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        stop()  # nothing of the group may outlive the run
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
