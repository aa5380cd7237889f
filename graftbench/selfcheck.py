#!/usr/bin/env python3
"""graftbench's own tests: does the benchmark see a known slowdown, and do
BENCHMARK.json, layers.json and the benchmark's output agree?

Run from the repository root:

    python3 graftbench/selfcheck.py [--seconds 10] [--seed 101]

Sensitivity: the served graft is replaced by one that spins N us per
request before delegating to C md5, and the JIT md5 row by one that spins
M us per 64KB chunk. latency_p50_us (open loop) and server_cpu_us_per_req
(both loops) must rise by roughly N; md5.jit_x_c must rise by roughly
4 * M / md5's C pass, while md5.interp_x_c stays put. Exits 1 on any failure.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build step lives there)

WIRE_INJECT_US = 30
MATRIX_INJECT_US = 2000
MD5_CHUNKS = 4  # 256KB in 64KB Consume calls


def bench(binary, workload, seed, seconds, trace=0, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result, metrics, out.stdout


def md5_c_pass_us(stdout):
    match = re.search(r"^\s+md5\s+([0-9.]+)us", stdout, re.MULTILINE)
    return float(match.group(1))


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        self.failures += 0 if ok else 1


def within(delta, want):
    return 0.5 * want <= delta <= 2.0 * want


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=101)
    opts = parser.parse_args()
    binary = run.build()
    if binary is None:
        return 3
    check = Checker()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.BENCH_DIR / "layers.json").read_text())["metrics"]
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    inject = ["--inject-us", str(WIRE_INJECT_US), "--inject-matrix-us", str(MATRIX_INJECT_US)]

    for workload in workloads:
        base_result, base, base_out = bench(binary, workload, opts.seed, opts.seconds)
        _, slow, _ = bench(binary, workload, opts.seed, opts.seconds, extra=inject)
        check.expect(base_result["correct"] and base_result["failed"] == 0 and
                     base_result["attempted"] > 0, f"{workload}: every output verified")
        check.expect(list(base) == e2e_names,
                     f"{workload}: --trace 0 prints exactly the end_to_end metrics")
        d_cpu = slow["server_cpu_us_per_req"] - base["server_cpu_us_per_req"]
        check.expect(within(d_cpu, WIRE_INJECT_US),
                     f"{workload}: +{WIRE_INJECT_US}us graft spin moves server_cpu_us_per_req "
                     f"by {d_cpu:+.1f}us")
        if workload == "wire_open":
            d_p50 = slow["latency_p50_us"] - base["latency_p50_us"]
            check.expect(within(d_p50, WIRE_INJECT_US),
                         f"{workload}: +{WIRE_INJECT_US}us graft spin moves latency_p50_us "
                         f"by {d_p50:+.1f}us")
        want = MD5_CHUNKS * MATRIX_INJECT_US / md5_c_pass_us(base_out)
        d_jit = slow["md5.jit_x_c"] - base["md5.jit_x_c"]
        check.expect(within(d_jit, want),
                     f"{workload}: +{MATRIX_INJECT_US}us per chunk moves md5.jit_x_c by "
                     f"{d_jit:+.2f} (predicted {want:+.2f})")
        interp_moved = abs(slow["md5.interp_x_c"] / base["md5.interp_x_c"] - 1)
        check.expect(interp_moved < 0.2,
                     f"{workload}: md5.interp_x_c, not slowed, moves {interp_moved:.1%}")

    result, traced, stdout = bench(binary, workloads[0], opts.seed, opts.seconds, trace=1)
    check.expect(result["correct"], f"{workloads[0]} traced: every output verified")
    check.expect(list(traced) == layer_names,
                 "--trace 1 prints exactly the per_layer metrics")
    check.expect(set(layer_names) == set(layers),
                 "layers.json maps every per_layer metric")
    check.expect(all(v["moves"] in e2e_names + layer_names + ["failed", None] and
                     v["workload"] in workloads + ["both"] for v in layers.values()),
                 "layers.json names only benchmark metrics and workloads")
    check.expect("self p50 us" in stdout and "residual:" in stdout and
                 "tracing overhead:" in stdout,
                 "traced run prints the layer table, residual and tracing overhead")
    print(f"{check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
