#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --workload NAME --repeat 10 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root. --seconds defaults to run_seconds in
BENCHMARK.json. The first form builds the benchmark with
dune and runs one workload; its last stdout line is the JSON result. The
repeat form runs a workload N times on seeds N, N+1, ... and prints each
metric's median and quartiles. The self-test runs every workload at a
tiny input size, traced and untraced, and checks the output against
BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
TARGET = "./perfbench/crimson_perf.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "crimson_perf.exe")
RUN_TIMEOUT = 170


def dune_env():
    """The environment with a dune toolchain on PATH, or None. The shared
    dune cache is off, so the build reads and writes only the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune", path=env.get("PATH")):
        return env
    for dune in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
        return env
    return None


def build():
    env = dune_env()
    if env is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0 and os.path.exists(EXE)


def run_once(workload, seed, seconds, trace, size=None, capture=False):
    """Run the executable once; return (exit code, stdout or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if size:
        cmd += ["--size", size]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 124, None
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def repeat(args):
    values = {}
    units = {}
    failed = 0
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace, capture=True)
        result = last_json(out) if code == 0 else None
        if result is None:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            failed += 1
            continue
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if not n.startswith("storage.file_bytes_per_node.")), file=sys.stderr)
    summary = {}
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "runs": len(vs)}
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}  {units[name]}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    bench = load_bench()
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in bench[key]}
            code, out = run_once(w["name"], 7, 1, trace, size="tiny", capture=True)
            tag = f"{w['name']} trace={trace}"
            try:
                r = last_json(out) if code == 0 else None
            except json.JSONDecodeError:
                r = None
            if r is None:
                problems.append(f"{tag}: no JSON result (exit {code})")
                continue
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: keys {sorted(r)}")
            if not (r.get("correct") is True and r.get("failed") == 0 and r.get("attempted", 0) >= 1):
                problems.append(f"{tag}: correct={r.get('correct')} failed={r.get('failed')} "
                                f"attempted={r.get('attempted')}")
            got = {n: m.get("unit") for n, m in r.get("metrics", {}).items()}
            if got != want:
                problems.append(f"{tag}: metric names/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not trace:
                zero = [n for n, m in r["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{tag}: end-to-end metrics not positive: {zero}")
            print(f"{tag}: ran, attempted {r.get('attempted')}", file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    if args.seconds is None and not args.self_test:
        args.seconds = load_bench()["run_seconds"]
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.repeat:
        return repeat(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
