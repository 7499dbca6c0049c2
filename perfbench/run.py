#!/usr/bin/env python3
"""Build the NASD benchmark from source and run one workload.

    python3 perfbench/run.py --workload mine_nasd --seed 1 --seconds 10 --trace 0

Configures perfbench/ with CMake (Release) into $CARGO_TARGET_DIR, or
.bench_build at the repository root when that is unset, builds the
nasdbench binary (incrementally after the first time) and runs it with
the given arguments. The binary's last stdout line is the result JSON.
A traced run (--trace 1) writes its spans to
<build dir>/traces/<workload>-<seed>.json unless --trace-out is given.

Exits non-zero without a result line when the build fails, for
example when the NASD sources are not next to this directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "nasdbench", "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return os.path.join(build_dir, "nasdbench")
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.stderr.write("run.py: build failed (log: %s)\n" % log_path)
    return None


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 1
    args = sys.argv[1:]
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-%s.json" % (arg_value(args, "--workload"),
                               arg_value(args, "--seed"))
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
