"""Measuring process for one workload (started by run.py, one per workload).

Imports minkcurv, builds the workload's inputs, then runs passes over its
cases until the time is up, as a single closed-loop client: the next case
starts when the previous one has finished.  Prints one JSON object as its
last line of output.

With --setup-only it stops after building the inputs and reports only the
set-up time.  With --trace 1 it alternates untraced and traced passes; the
traced ones give the per-layer split, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import minkcurv
import minkcurv.cli
import minkcurv.energy
import minkcurv.solver
import minkcurv.verify

import spans
import workloads
from probe import MIXED, PROBES, STREAM_MB

_clock = time.perf_counter
VERIFY_MIN_S = 0.25
PROBE_PERIOD_S = 0.2


def patch_table():
    """(owner, attribute, span name, per-node) for every traced boundary."""
    solver, energy, verify = minkcurv.solver, minkcurv.energy, minkcurv.verify
    table = [
        (solver, "selection", "nonlinearity.selection", True),
        (solver, "bracket", "nonlinearity.bracket", True),
        (solver, "total_energy", "energy.total_energy", False),
        (solver, "splu", "solver.factor", False),
        (solver, "element_gradients", "mesh.element_gradients", False),
        (solver, "stationarity_measure", "solver.stationarity", False),
        (energy, "primitive", "nonlinearity.primitive", True),
        (energy, "psi", "energy.psi", False),
        (energy, "psi_gradient", "energy.psi_gradient", False),
        (energy, "element_gradients", "mesh.element_gradients", False),
        (verify, "bracket", "nonlinearity.bracket", True),
        (verify, "psi", "energy.psi", False),
        (verify, "psi_gradient", "energy.psi_gradient", False),
        (verify, "windowed_envelopes", "verify.windowed_envelopes", False),
        (verify, "inclusion_residual", "verify.inclusion_residual", False),
        (verify, "random_feasible_field", "verify.random_feasible_field", False),
        (verify, "variational_inequality_check", "verify.vi_check", False),
        (verify, "element_gradients", "mesh.element_gradients", False),
        (verify.RadialSolution, "__call__", "verify.analytic", False),
        (minkcurv.cli.RunConfig, "build_mesh", "mesh.build", False),
        (minkcurv.cli.RunConfig, "build_spec", "cli.build_spec", False),
    ]
    # the benchmark's own calls into the package
    for attr, name in (
            ("build_disk_mesh", "mesh.build"), ("build_interval_mesh", "mesh.build"),
            ("solve_prescribed", "solver.solve_prescribed"),
            ("solve_inclusion", "solver.solve_inclusion"),
            ("inclusion_residual", "verify.inclusion_residual"),
            ("psi_gradient", "energy.psi_gradient"),
            ("verification_report", "verify.verification_report"),
            ("bounds", "energy.bounds"),
            ("load_config", "cli.load_config"),
            ("write_solution_csv", "cli.write"), ("write_report", "cli.write"),
            ("read_solution_csv", "cli.read")):
        table.append((workloads, attr, name, False))
    return table


class SpeedProbe:
    """Reads the machine's speed while a stage runs, on the stage's own core.

    The host's speed swings by tens of per cent from one minute to the next (other
    tenants), within a run as well as between runs.  The probe runs three
    times when the stage starts and ends, and from a SIGALRM handler every
    PROBE_PERIOD_S while it runs.  `slowness` (the median reading) is what a
    stage's time is divided by; `spent` is the time the handler
    took, which the stage's own time excludes.  Without a probe (traced
    passes) it does nothing and reads NaN.
    """

    def __init__(self, probe):
        self.probe = probe
        self.spent = 0.0
        self.slowness = math.nan

    def __enter__(self):
        if self.probe:
            self.samples = self.probe.reads()
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _tick(self, signum, frame):
        start = _clock()
        self.samples.append(self.probe.read())
        self.spent += _clock() - start

    def __exit__(self, *exc):
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.samples.extend(self.probe.reads())
            self.slowness = statistics.median(self.samples)
        return False


@dataclass
class Row:
    """One case in one pass."""

    case: int
    solve_s: float
    verify_s: list  # every repeat of the verify stage
    solve_slowness: float  # SpeedProbe reading over the solve stage
    verify_slowness: float  # and over the verify stage
    solved: object
    verified: object
    error: str | None

    def stage_s(self) -> float:
        return self.solve_s + sum(self.verify_s[:1])


def run_pass(workload, probe) -> list:
    """One pass over the cases, one Row per case.

    With a `probe` (steady passes), each stage runs under a SpeedProbe, and
    a verify stage shorter than VERIFY_MIN_S is repeated until its repeats
    add up to that much (the ledger keeps their median), so that the stage
    spans several probe readings.  The check uses the last repeat (they are
    identical).
    """
    rows = []
    for k in range(len(workload.cases)):
        solved = verified = error = None
        verify_s = []
        with SpeedProbe(probe) as solve_speed:
            t0 = _clock()
            try:
                solved = workload.solve(k)
            except Exception:  # a case that raises is a failed case; the pass goes on
                error = traceback.format_exc()
            solve_s = _clock() - t0 - solve_speed.spent
        with SpeedProbe(probe) as verify_speed:
            while error is None and (not verify_s or probe and sum(verify_s) < VERIFY_MIN_S):
                t1, spent = _clock(), verify_speed.spent
                try:
                    verified = workload.verify(k, solved)
                except Exception:
                    error = traceback.format_exc()
                verify_s.append(_clock() - t1 - (verify_speed.spent - spent))
        rows.append(Row(k, solve_s, verify_s, solve_speed.slowness, verify_speed.slowness,
                        solved, verified, error))
    return rows


def _finite(value) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


class Ledger:
    """Times, answers and failures of every case over every pass."""

    def __init__(self, workload):
        self.workload = workload
        n = len(workload.cases)
        # *_raw_s as measured, *_s scaled to the quiet reference box
        self.samples = [{"solve_s": [], "verify_s": [], "solve_raw_s": [], "verify_raw_s": []}
                        for _ in range(n)]
        self.answers = [None] * n
        self.attempted = 0
        self.failed = 0
        self.consistent = True
        self.errors = []

    def record(self, rows, steady: bool):
        for row in rows:
            k = row.case
            self.attempted += 1
            if steady:
                samples = self.samples[k]
                samples["solve_raw_s"].append(row.solve_s)
                samples["solve_s"].append(row.solve_s / row.solve_slowness)
                if row.verify_s:
                    verify_s = statistics.median(row.verify_s)
                    samples["verify_raw_s"].append(verify_s)
                    samples["verify_s"].append(verify_s / row.verify_slowness)
            if row.error is not None:
                self.failed += 1
                self.errors.append(f"{self.workload.cases[k]}: {row.error}")
                continue
            answer = self.workload.check(k, row.solved, row.verified)
            if not answer["passed"]:
                self.failed += 1
            if not all(_finite(v) for v in answer.values()):
                self.consistent = False
            if answer.get("roundtrip_exact") is False:
                self.consistent = False
            if self.answers[k] is None:
                self.answers[k] = answer
            elif answer != self.answers[k]:  # the solver is deterministic
                self.consistent = False

    def cases(self):
        return [{"case": name, "nodes": self.workload.nodes(k), **self.samples[k],
                 "answer": self.answers[k]}
                for k, name in enumerate(self.workload.cases)]


def layer_metrics(setup_totals, pass_totals, wall, results):
    """Per-layer metrics of set-up plus one traced pass.

    `pass_totals` holds one Tracer.totals() per traced pass; times and counts
    are averaged over them and added to the set-up's.  `results` are the
    answers of one pass (iteration counts, bytes written).
    """
    summed = {}
    for totals in pass_totals:
        for name, values in totals.items():
            entry = summed.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
    merged = {name: list(values) for name, values in setup_totals.items()}
    for name, values in summed.items():
        entry = merged.setdefault(name, [0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value / len(pass_totals)
    unknown = set(merged) - set(spans.SPANS)
    if unknown:
        raise RuntimeError(f"spans outside the layer table: {sorted(unknown)}")

    metrics = {}
    for name in spans.SPANS:
        calls, total, self_time = merged.get(name, (0.0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}_s"] = (total, "s")
        if name in spans.NESTING:
            metrics[f"{name}.self_s"] = (self_time, "s")
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (sum(s for name, (_, _, s) in merged.items()
                                          if spans.SPANS[name] == layer), "s")
    self_sum = sum(s for _, _, s in merged.values())

    outer = sum(a["outer_iterations"] for a in results)
    total_energy_calls = merged.get("energy.total_energy", (0.0,))[0]
    newton = [a["newton_steps"] for a in results]
    metrics["solver.outer_iterations"] = (outer, "count")
    metrics["solver.newton_steps"] = (
        sum(newton) if None not in newton else merged.get("solver.factor", (0.0,))[0],
        "count")
    metrics["energy.evals_per_outer"] = (total_energy_calls / outer if outer else 0.0, "1")
    metrics["cli.bytes_written"] = (sum(a.get("bytes_written", 0) for a in results), "B")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_sum_ratio"] = (self_sum / wall, "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter reading of the parent just before it "
                             "started this process (CLOCK_MONOTONIC, shared)")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    # one CPU for the whole run, so the reference readings and the stages
    # they bracket run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    table = patch_table()
    originals = spans.snapshot(table)
    tracer = spans.Tracer()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        factory = workloads.WORKLOADS[args.workload]
        t0 = _clock()
        if args.trace:
            with spans.patched(tracer, table):
                workload = factory(args.seed, args.smoke, workdir)
        else:
            workload = factory(args.seed, args.smoke, workdir)
        build_wall = _clock() - t0
        setup_s = _clock() - args.spawned_at
        # the host's speed at the end of set-up; run.py reads it at the start
        setup_probe = MIXED.reads()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_probe": setup_probe}))
            return 0
        setup_totals = tracer.totals()

        ledger = Ledger(workload)
        deadline = _clock() + args.seconds
        unit_s = []  # wall time of each pass (or untraced+traced pair)
        untraced_s, traced_s, pass_totals = [], [], []
        last_rows = None
        while True:
            start = _clock()
            # untraced passes of a traced run only serve the overhead ratio
            steady = not args.trace
            rows = run_pass(workload, PROBES[args.workload] if steady else None)
            untraced_s.append(sum(row.stage_s() for row in rows))
            ledger.record(rows, steady)
            if args.trace:
                tracer.reset()
                with spans.patched(tracer, table):
                    rows = run_pass(workload, None)
                traced_s.append(sum(row.stage_s() for row in rows))
                pass_totals.append(tracer.totals())
                ledger.record(rows, steady=False)
            last_rows = rows
            unit_s.append(_clock() - start)
            if _clock() + statistics.median(unit_s) > deadline:
                break

        out = {
            "setup_s": setup_s,
            "setup_probe": setup_probe,
            "cases": ledger.cases(),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "consistent": ledger.consistent,
            "errors": ledger.errors,
            "passes": len(unit_s),
            # without the probe's arrays, which the process holds all along
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                           - STREAM_MB,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__, "minkcurv": minkcurv.__version__},
        }
        if args.trace:
            results = [ledger.answers[row.case] for row in last_rows if row.error is None]
            wall = build_wall + statistics.fmean(traced_s)
            metrics = layer_metrics(setup_totals, pass_totals, wall, results)
            metrics["trace.overhead_ratio"] = (
                statistics.median(traced_s) / statistics.median(untraced_s), "1")
            out["layers"] = metrics
            out["restored"] = spans.restored(table, originals)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
