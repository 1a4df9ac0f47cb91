"""Layer timing from outside the package.

While a `patched` session is open, the module (or class) attributes listed in
a patch table are replaced by wrappers that record spans; closing the session
puts the originals back.  The package itself is not edited: each module looks
these names up at call time, so the wrappers see every call that crosses a
layer boundary.

Per-node boundaries (`primitive`, `selection`, `bracket` run once per mesh
node) would make millions of span records, so their calls are only added up
into a count and a time on the span that encloses them.

Self time of a span is its duration minus the time covered by its child spans
and by the per-node calls made directly under it, so the self times of one
session add up to the summed duration of its outermost spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter

# Span name -> its layer.  `solver.factor` (SuperLU) is a sub-layer of its own.
SPANS = {
    "mesh.build": "mesh",
    "mesh.element_gradients": "mesh",
    "nonlinearity.primitive": "nonlinearity",
    "nonlinearity.selection": "nonlinearity",
    "nonlinearity.bracket": "nonlinearity",
    "energy.total_energy": "energy",
    "energy.psi": "energy",
    "energy.psi_gradient": "energy",
    "energy.bounds": "energy",
    "solver.solve_inclusion": "solver",
    "solver.solve_prescribed": "solver",
    "solver.factor": "solver.factor",
    "solver.stationarity": "solver",
    "verify.windowed_envelopes": "verify",
    "verify.inclusion_residual": "verify",
    "verify.random_feasible_field": "verify",
    "verify.vi_check": "verify",
    "verify.analytic": "verify",
    "verify.verification_report": "verify",
    "cli.load_config": "cli",
    "cli.build_spec": "cli",
    "cli.write": "cli",
    "cli.read": "cli",
}

# Spans that enclose other spans; only these get a self time distinct from
# their total.
NESTING = (
    "energy.total_energy", "energy.psi", "energy.psi_gradient",
    "solver.solve_inclusion", "solver.solve_prescribed", "solver.stationarity",
    "verify.windowed_envelopes", "verify.inclusion_residual",
    "verify.random_feasible_field", "verify.vi_check",
    "verify.verification_report",
)

LAYERS = ("mesh", "nonlinearity", "energy", "solver", "verify", "cli")


class Span:
    __slots__ = ("name", "start", "end", "covered", "per_node")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.end = start
        self.covered = 0.0  # time inside child spans and per-node calls
        self.per_node = {}  # name -> [calls, seconds] made directly under this span


class Tracer:
    """In-memory span store for one process; `reset` starts a new segment."""

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, _clock())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                if stack:
                    stack[-1].covered += span.end - span.start
                self.spans.append(span)

        return traced

    def wrap_per_node(self, name, fn):
        """Wrapper for a per-node boundary.  Such calls always come from
        package code, which the benchmark only enters through a span."""
        stack = self._stack

        def traced(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - start
                parent = stack[-1]
                parent.covered += dt
                entry = parent.per_node.get(name)
                if entry is None:
                    parent.per_node[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return traced

    def totals(self) -> dict:
        """name -> [calls, total seconds, self seconds] over the segment."""
        out = {}

        def add(name, calls, total, self_time):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time

        for span in self.spans:
            duration = span.end - span.start
            add(span.name, 1, duration, duration - span.covered)
            for name, (calls, seconds) in span.per_node.items():
                add(name, calls, seconds, seconds)
        return out


@contextmanager
def patched(tracer: Tracer, table):
    """Swap every (owner, attribute, span name, per_node) entry for a wrapper."""
    saved = []
    try:
        for owner, attr, name, per_node in table:
            original = getattr(owner, attr)
            wrapper = (tracer.wrap_per_node if per_node else tracer.wrap)(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def snapshot(table) -> list:
    return [getattr(owner, attr) for owner, attr, _, _ in table]


def restored(table, before) -> bool:
    """True when every patched attribute is again the object seen in `before`."""
    return all(getattr(owner, attr) is original
               for (owner, attr, _, _), original in zip(table, before))
