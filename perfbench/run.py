#!/usr/bin/env python3
"""Builds the decorr benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The engine is compiled from ../src as a Release
build into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs reuse it. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Traced runs write their spans under the build
directory's traces/ folder.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    args = [os.path.join(out, "perfbench")] + argv
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-dir", traces]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
