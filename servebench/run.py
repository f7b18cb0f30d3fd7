#!/usr/bin/env python3
"""Builds and runs the ONEX serving-stack benchmark.

Usage, from the root of a source tree:

    python3 servebench/run.py --workload fleet-feed --seed 1 --seconds 40 --trace 0

The script configures and builds servebench/CMakeLists.txt (the ONEX
library from src/ plus the servebench program) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the program. Build output goes to
stderr; the program's standard output is passed through, so its last line is
the result object. The exit code is the program's, or nonzero when the build
fails.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over src/ (paths and contents): names the code under test even
    where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    if not (ROOT / "src" / "onex").is_dir():
        fail(f"no ONEX sources under {ROOT / 'src'}")
    build_dir.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "-j", jobs]):
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "servebench"
    if not binary.is_file():
        fail("build produced no servebench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    binary = build(target / "servebench")

    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(target / "servebench" / "work"),
           "--git-rev", git_revision(),
           "--src-digest", source_digest()]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
