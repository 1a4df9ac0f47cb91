"""Benchmark for minkcurv: three solve workloads, timed end to end and per layer.

    python3 bench/run.py --workload newton_disk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30      # one table
    python3 bench/run.py --smoke                                   # self-check

Run from anywhere; the package is imported from ../src, nothing is installed.
Each run measures one workload in a child process (worker.py) with the BLAS
and OpenMP thread counts set to 1, after a few set-up-only children that
give the median set-up time.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split of a traced run.
DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import MIXED, at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("newton_disk", "repelling_step", "attracting_roundtrip")
SETUP_SAMPLES = 7  # set-up-only children plus the measuring child
TIME_LIMIT_S = 170.0  # a whole run, set-up children included
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, seconds, trace, smoke, setup_only, workdir, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting the measuring process")
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload}: worker did not finish in {timeout:.0f} s") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed nothing")
    return json.loads(lines[-1])


def setup_sample(pre_readings, out) -> tuple:
    """(raw seconds, seconds at reference speed) of one child's set-up.  The
    host's speed is read just before the child starts and just after its
    set-up, on the same core."""
    raw = out["setup_s"]
    return raw, at_reference_speed(raw, pre_readings + out["setup_probe"])


def measure(workload, seed, seconds, trace, smoke=False) -> dict:
    """Run one workload; returns the result line (`result`) plus a detailed report."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    workdir = ROOT / "bench" / ".work"
    workdir.mkdir(exist_ok=True)
    # the children inherit this one CPU, so the probes read here and the
    # set-up they bracket run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                pre = MIXED.reads()
                setups.append(setup_sample(pre, spawn(workload, seed, seconds, trace, smoke,
                                                      True, workdir, deadline)))
        pre = MIXED.reads()
        run = spawn(workload, seed, seconds, trace, smoke, False, workdir, deadline)
    finally:
        try:
            workdir.rmdir()  # each worker removes its own files
        except OSError:
            pass
    setups.append(setup_sample(pre, run))
    raw_setups = [raw for raw, _ in setups]

    cases = run["cases"]

    def per_pass(key):  # sum over the cases of each case's median over the passes
        return sum(statistics.median(c[key]) for c in cases if c[key])

    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setups), "unit": "s"},
            "solve_s": {"value": per_pass("solve_s"), "unit": "s"},
            "verify_s": {"value": per_pass("verify_s"), "unit": "s"},
            "passed_ratio": {"value": (run["attempted"] - run["failed"]) / run["attempted"],
                             "unit": "1"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    correct = (run["consistent"] and run["attempted"] >= 1
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    if trace:
        correct = correct and run["restored"]
    result = {"correct": bool(correct), "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "versions": run["versions"],
        "src_lines": src_lines(), "passes": run["passes"],
        "setup_raw_s": statistics.median(raw_setups), "setup_samples_s": setups,
        "failed_ratio": run["failed"] / run["attempted"],
        "solve_raw_s": per_pass("solve_raw_s"), "verify_raw_s": per_pass("verify_raw_s"),
        "cases": cases,
        "errors": run["errors"],
    }
    return {"result": result, "report": report}


def median_or_none(samples):
    return f"{statistics.median(samples):.4f}" if samples else None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def print_run(out) -> None:
    report, result = out["report"], out["result"]
    print(f"# minkcurv bench: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} passes={report['passes']} "
          f"nproc={report['nproc']} python={report['versions']['python']} "
          f"numpy={report['versions']['numpy']} scipy={report['versions']['scipy']} "
          f"src_lines={report['src_lines']}")
    for case in report["cases"]:
        a = case["answer"] or {}
        print(f"# case {case['case']!r} nodes={case['nodes']} "
              f"solve_median_s={median_or_none(case['solve_s'])} "
              f"verify_median_s={median_or_none(case['verify_s'])} "
              f"samples={len(case['solve_s'])}/{len(case['verify_s'])} energy={a.get('energy')} "
              f"max_residual={a.get('max_residual')} converged={a.get('converged')} "
              f"outer={a.get('outer_iterations')} newton={a.get('newton_steps')} "
              f"passed={a.get('passed')}")
    print(f"# failed_ratio {report['failed_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} cases)")
    if not report["trace"]:
        print(f"# setup_raw_s {report['setup_raw_s']:.6g} s")
        print(f"# solve_raw_s {report['solve_raw_s']:.6g} s")
        print(f"# verify_raw_s {report['verify_raw_s']:.6g} s")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    for error in report["errors"]:
        print("# error " + error.strip().replace("\n", "\n#   "))
    print(json.dumps({"report": report}))
    print(json.dumps(result))


def print_table(outs) -> None:
    """Markdown tables: per-workload metrics, then per-case answers (the
    ROADMAP baseline table has this shape)."""
    print("| workload | setup_s | solve_s | verify_s | failed_ratio | peak_rss_mb "
          "| raw setup / solve / verify |")
    print("| --- " * 7 + "|")
    for out in outs:
        report, m = out["report"], out["result"]["metrics"]
        print(f"| {report['workload']} | {m['setup_s']['value']:.3g} s "
              f"| {m['solve_s']['value']:.3g} s | {m['verify_s']['value']:.3g} s "
              f"| {report['failed_ratio']:.3g} | {m['peak_rss_mb']['value']:.4g} MB "
              f"| {report['setup_raw_s']:.3g} / {report['solve_raw_s']:.3g} / "
              f"{report['verify_raw_s']:.3g} s |")
    print()
    print("| case | nodes | solve (median of n) | outer / newton | outcome |")
    print("| --- | --- | --- | --- | --- |")
    for out in outs:
        for case in out["report"]["cases"]:
            a = case["answer"]
            if a is None:
                a, outcome = {}, "raised"
            else:
                outcome = ("converged" if a["converged"] else "not converged") + (
                    "" if a["passed"] else f", check failed (residual {a['max_residual']:.2g})")
            print(f"| {case['case']} | {case['nodes']} | "
                  f"{median_or_none(case['solve_s'])} s (n={len(case['solve_s'])}) | "
                  f"{a.get('outer_iterations')} / {a.get('newton_steps') or '-'} | {outcome} |")


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, with self-checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = measure(workload, 0, 0.5, trace, smoke=True)
            result, tag = out["result"], f"{workload} trace={trace}"
            metrics = result["metrics"]
            if not result["correct"]:
                problems.append(f"{tag}: correct is false")
            bad = [n for n, m in metrics.items()
                   if not NAME_RE.match(n) or not UNIT_RE.match(m["unit"])]
            if bad:
                problems.append(f"{tag}: invalid metric names or units {bad}")
            got = {n: m["unit"] for n, m in metrics.items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if trace:
                ratio = metrics["trace.self_sum_ratio"]["value"]
                if not 0.9 <= ratio <= 1.1:
                    problems.append(f"{tag}: self times sum to {ratio:.3f} of traced wall")
            print(f"smoke {tag}: attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="minkcurv benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the benchmark itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minkcurv" / "__init__.py").is_file():
        print(f"error: no minkcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            if args.trace:
                parser.error("--workload all prints the end-to-end tables; trace one workload at a time")
            outs = [measure(w, args.seed, args.seconds, args.trace) for w in WORKLOADS]
            print_table(outs)
            return 0
        print_run(measure(args.workload, args.seed, args.seconds, args.trace))
        return 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
