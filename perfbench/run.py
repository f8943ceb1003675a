#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe and the endpoint daemon bin/dvsd.exe with
dune (inside the checkout, no shared cache), then runs the benchmark.
Its last line of output is the result JSON.  Exits nonzero without a
result when the tree cannot be built or the run does not finish.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175


def source_digest(root):
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"run.py: {need} missing: run from the root of a full "
                  "checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".",
         "./perfbench/perfbench.exe", "./bin/dvsd.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    dvsd = os.path.join("_build", "default", "bin", "dvsd.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dvsd", dvsd, "--nproc", str(len(os.sched_getaffinity(0))),
           "--source-digest", source_digest(root), "--commit", commit(root)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the benchmark's own watchdog failed: take down its whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
