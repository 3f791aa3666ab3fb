#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark (perfbench/CMakeLists.txt)
compiles the ngram library from ../src together with the benchmark
program into .bench_build/perfbench, then runs the program, whose last
stdout line is the result object. Run records, traces and scratch files go under .bench_build.
If the build fails (for instance because ../src is missing) the script exits
with code 2 and prints no result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_ROOT, "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.call(configure, stdout=sys.stderr) != 0:
        return False
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) == 0


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    """The git commit when the checkout is a repository, else "unknown"."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main(argv):
    os.makedirs(WORK_ROOT, exist_ok=True)
    if not build():
        log("perfbench: build failed")
        return 2
    if argv == ["--selftest"]:
        return subprocess.call([os.path.join(BUILD_DIR, "perfbench_selftest"),
                                "--work-root", WORK_ROOT])
    command = [os.path.join(BUILD_DIR, "perfbench"), *argv,
               "--work-root", WORK_ROOT, "--commit", commit(),
               "--source-digest", source_digest()]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
