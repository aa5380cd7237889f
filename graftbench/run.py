#!/usr/bin/env python3
"""graftbench: build the benchmark from source, then run one workload.

Run from the repository root:

    python3 graftbench/run.py --workload <wire_open|wire_closed> --seed <n> \
        --seconds <s> --trace <0|1> [--inject-us <n>] [--inject-matrix-us <n>]

The first call configures and builds graftbench and the GraftLab libraries
it links (from ./src) into .bench_build/graftbench; later calls rebuild only
what changed. The build log goes to stderr. The benchmark's own output goes
to stdout; its last line is the result object. A traced run (--trace 1)
also writes its first spans to .bench_build/graftbench/spans-<workload>.jsonl.

Exit status: the benchmark's (0 = every output verified, 1 = a mismatch,
2 = bad arguments), 3 if the sources are missing or the build fails, 4 if
the run overran its time limit.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "graftbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("wire_open", "wire_closed")


def log(message):
    print(f"graftbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary's path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no GraftLab sources at {ROOT / 'src'}")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return BUILD_DIR / "graftbench"


def main(argv):
    binary = build()
    if binary is None:
        log("build failed")
        return 3
    args = [str(binary)] + argv
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    workload = argv[argv.index("--workload") + 1:][:1] if "--workload" in argv else []
    if traced and workload and workload[0] in WORKLOADS:
        args += ["--spans-out", str(BUILD_DIR / f"spans-{workload[0]}.jsonl")]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
