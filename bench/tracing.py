"""In-memory spans around calls into the program's public functions.

A span records (name, start, end, parent, root).  Spans are opened by the
benchmark around its own calls, and by wrappers installed on the module
attributes through which the program looks up its public helpers (for
example ``hankelssr.estimators.ssr.rank_penalty_matrix``).  Private helpers
are never wrapped.  ``NullTracer`` is the untraced run's stand-in.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

# (module, attribute, span name): public functions as the program's own
# callers look them up.  ssr_fit reaches ss_estimate, assemble_prior and
# surrogate_weights through names imported into the ssr module, and
# atom_estimate reaches atom_dictionary in its own module.
WRAPPED = (
    ("hankelssr.simulation", "make_scenario_data", "simulation.make_scenario_data"),
    ("hankelssr.harness", "make_scenario_data", "simulation.make_scenario_data"),
    ("hankelssr.estimators.ssr", "ss_estimate", "ss.warm_start"),
    ("hankelssr.estimators.ssr", "assemble_prior", "kernels.assemble_prior"),
    ("hankelssr.estimators.ssr", "surrogate_weights", "core.surrogate_weights"),
    ("hankelssr.estimators.ssr", "rank_penalty_matrix", "ssr.rank_penalty_matrix"),
    ("hankelssr.estimators.ssr", "update_q", "ssr.update_q"),
    ("hankelssr.estimators.atom", "atom_dictionary", "atom.atom_dictionary"),
)


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self._open: list[int] = []
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        root = self.spans[parent][4] if parent is not None else idx
        rec = [name, time.perf_counter(), None, parent, root]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, span_name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _select(self, name: str, roots):
        for rec in self.spans:
            if rec[0] == name and (roots is None or self.spans[rec[4]][0] in roots):
                yield rec

    def durations_ms(self, name: str, roots=None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those
        under a top-level span whose name is in ``roots``."""
        return [1e3 * (rec[2] - rec[1]) for rec in self._select(name, roots)]

    def count(self, name: str, roots=None) -> int:
        return sum(1 for _ in self._select(name, roots))

    def self_ms(self, name: str) -> list[float]:
        """Span duration minus the part of it that child spans cover."""
        children: dict[int, float] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children[rec[3]] = children.get(rec[3], 0.0) + (rec[2] - rec[1])
        return [
            1e3 * (rec[2] - rec[1] - children.get(i, 0.0))
            for i, rec in enumerate(self.spans)
            if rec[0] == name
        ]

    def overhead_pct(self, calls: int = 20000) -> float:
        """Time the recorded spans added, as a share of the time the top-level
        spans cover: span count times the measured cost of one wrapped call
        of a no-op over an unwrapped one."""

        def noop():
            return None

        wrapped = Tracer().wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        per_span = ((t2 - t1) - (t1 - t0)) / calls
        covered = sum(rec[2] - rec[1] for rec in self.spans if rec[3] is None)
        return 100.0 * len(self.spans) * per_span / covered

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "root": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows))
