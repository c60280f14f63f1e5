#!/usr/bin/env python3
"""Build and run the ANOR end-to-end benchmark on one workload.

    python3 perfbench/run.py --workload {emu-dr,tab-wide,sweep-cache} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source tree.  It builds perfbench/ (which
compiles ../src in Release) under .bench_build/, runs the driver binary
in a process of its own, and prints the driver's report line and then,
as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed
(the result is still printed), and 3 or more when nothing could be
measured (no result is printed).  perfbench/README.md describes the
workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "anor_perfbench")
TMP_ROOT = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("emu-dr", "tab-wide", "sweep-cache")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(code, message):
    log(message)
    sys.exit(code)


def run_logged(cmd, log_path):
    with open(log_path, "w") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, f"no framework sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = TMP_ROOT  # compiler temporaries stay inside the tree
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    # Configure once; the build step re-runs CMake when its inputs change.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if run_logged(step, log_path) != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            fail(3, f"build failed (full log: {log_path})")


def source_digest():
    """SHA-256 over the framework and benchmark sources, for trees without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def git_revision():
    """Short HEAD with a -dirty marker, or "unknown" outside a git checkout."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--"], cwd=ROOT,
                               capture_output=True).returncode != 0
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def reference_hash(workload, seed):
    with open(os.path.join(HERE, "reference_hashes.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    revision = f"{git_revision()}+src.{source_digest()}"
    work_dir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    log_path = os.path.join(BUILD_ROOT, f"{args.workload}-trace{args.trace}.log")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--revision", revision]
    start = time.monotonic()
    with open(log_path, "w") as stderr:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True)
        # Whatever ends this script first ends the driver, and waits for it.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(6))
        try:
            stdout, _ = proc.communicate(timeout=120 + 2 * args.seconds)
        except subprocess.TimeoutExpired:
            fail(4, f"{args.workload} timed out (log: {log_path})")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(5, f"{args.workload} exited {proc.returncode} without a result (log: {log_path})")

    with open(log_path) as f:
        warnings = sum(1 for line in f if line.startswith("[WARN"))
    expected = reference_hash(args.workload, args.seed)
    if expected is None:
        match = "no reference recorded for this seed"
    else:
        match = "matches" if expected == report["result_hash"] else f"differs from {expected}"
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - start:.1f} s, "
        f"{result['attempted']} checked, {result['failed']} failed, "
        f"{warnings} warning lines in {log_path}")
    log(f"result hash {report['result_hash']}: {match} (informational)")
    for reason in report["failures"]:
        log(f"FAILED {reason}")
    report["reference_hash"] = expected
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
