#!/usr/bin/env python3
"""Builds and runs one perfbench workload.

    python3 perfbench/run.py --workload serve_wire --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
dsxplore library and the dsx_perfbench driver under .bench_build/perfbench
(later calls rebuild incrementally); build output goes to stderr. The driver's
output is passed through, and its last line is the JSON result. The run fails
(non-zero exit, no result) when the sources are missing, the build fails, the
driver fails, or the reported metrics differ from the ones BENCHMARK.json
lists.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dsx_perfbench"
WORKLOADS = ("serve_wire", "plan_large", "churn_wire")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dsx_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dsxplore.hpp").is_file():
        fail(f"no dsxplore sources under {ROOT / 'src'}")

    # The library reads DSX_* settings (threads, tuning, tracing, exporter
    # port) from the environment; the benchmark runs on library defaults.
    # Temporary files (the compiler's included) stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DSX_")}
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    build(env)
    traces = ROOT / ".bench_build" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(ROOT / ".bench_build" / f"scratch-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"dsx_perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
