#!/usr/bin/env python3
"""Builds and runs the repository benchmark. See perfbench/README.md.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is built from source
into .bench_build/perfbench on first use. Everything the run writes stays
under the repository root: stack directories in .perfbench/scratch-<pid>
(removed afterwards) and result files in .perfbench/out.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A run that crashes, times out or
fails a correctness gate reports correct=false with every attempted
operation counted as failed, and exits 1.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Wall-clock limits for one invocation: 180 s normally, more when this
# invocation also has to build.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 880


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_id():
    """Digest of the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """The checked-out commit, read at run time so that every result names
    the code it measured; "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def build():
    """Configures (once) and builds the benchmark binary. Returns True
    when a build step had work to do."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/ (expected src/)")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    fresh = not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if fresh:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_BUILD_TESTS=OFF"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return fresh


def failure_line(attempted):
    attempted = max(1, attempted)
    return json.dumps({"correct": False, "attempted": attempted,
                       "failed": attempted, "metrics": {}})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    start = time.monotonic()
    built = build()
    limit = BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S
    timeout = max(10.0, limit - (time.monotonic() - start))

    scratch = os.path.join(WORK_DIR, f"scratch-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.relpath(os.path.join(WORK_DIR, "out"), ROOT),
           "--scratch-dir", os.path.relpath(scratch, ROOT),
           "--source-id", source_id(), "--git-sha", git_sha()]

    os.makedirs(WORK_DIR, exist_ok=True)
    stderr_path = scratch + ".stderr"
    timed_out = False
    try:
        with open(stderr_path, "w+") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=err, text=True)

            def stop(signum, _frame):
                # Never leave the benchmark binary running behind us.
                proc.kill()
                proc.wait()
                shutil.rmtree(scratch, ignore_errors=True)
                sys.exit(128 + signum)

            signal.signal(signal.SIGTERM, stop)
            signal.signal(signal.SIGINT, stop)
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                timed_out = True
                proc.kill()
                out, _ = proc.communicate()
            err.seek(0)
            err_text = err.read()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.exists(stderr_path):
            os.remove(stderr_path)

    # The binary reports its running attempted count before every batch
    # of operations; only the last one matters, and only after a crash.
    progress = re.compile(r"^perfbench: attempted=(\d+)$", re.M)
    counts = progress.findall(err_text)
    sys.stderr.write("".join(line for line in err_text.splitlines(True)
                             if not progress.match(line)))
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode == 2 and result is None and not timed_out:
        sys.exit(2)  # bad arguments: no result to report

    if result is not None and not timed_out and proc.returncode in (0, 1):
        sys.stdout.write(out)
        sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)

    # Crash or timeout: all attempted operations count as failed.
    attempted = int(counts[-1]) if counts else 1
    for line in lines:
        if not line.startswith("{"):
            print(line)
    reason = "timed out" if timed_out else f"exited with {proc.returncode}"
    print(f"RUN FAILED: benchmark binary {reason}")
    print(failure_line(attempted), flush=True)
    sys.exit(1)


if __name__ == "__main__":
    main()
