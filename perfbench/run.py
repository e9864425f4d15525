#!/usr/bin/env python3
"""Builds the reader-stack benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is wideband_bank, service_paced, service_saturation, or `all` (the
three in turn; the last line then merges their results). Run from the
repository root. The build lives in .bench_build/perfbench; a traced run
writes its spans to .bench_build/traces/<workload>.json.

The program prints every metric; the result line this script prints
keeps the ones BENCHMARK.json lists (`end_to_end` untraced, `per_layer`
traced).
"""
import json
import os
import subprocess
import sys

WORKLOADS = ["wideband_bank", "service_paced", "service_saturation"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def keep_listed(res, trace):
    """Drops the metrics BENCHMARK.json does not list for a (traced) run
    from the result `res`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    keep = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    res["metrics"] = {k: v for k, v in res["metrics"].items() if k in keep}
    return res


def build():
    """Configures (once) and builds; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")


def arg_value(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def run_one(args, workload):
    argv = [BINARY] + args
    argv[argv.index("--workload") + 1] = workload
    if arg_value(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by its next traced run, so
        # repeated runs do not pile up traces of tens of MB.
        argv += ["--trace-out", os.path.join(traces, f"{workload}.json")]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    return keep_listed(json.loads(lines[-1]), arg_value(args, "--trace") == "1")


def main():
    args = sys.argv[1:]
    workload = arg_value(args, "--workload")
    if workload is None:
        sys.exit("perfbench: --workload is required")
    build()
    if workload != "all":
        print(json.dumps(run_one(args, workload)))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run_one(args, name)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
