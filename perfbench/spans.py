"""Spans around the public functions of each ``gaussvar`` module.

The tracer wraps functions and methods from outside the package: it
rebinds every name under which a ``gaussvar`` module holds the original
(``cli`` imports ``load_chart`` by name, for example) and restores them
on ``uninstall``.  A span is ``[name, start, end, parent, study, counts]``
with ``parent`` the index of the enclosing span (-1 at top level).  Spans
stay in memory; ``dump`` writes them once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _targets():
    """(owner, attribute, span name, counts(args, kwargs, result)) per layer."""
    import gaussvar.approxlemma as al
    import gaussvar.cli as cli
    import gaussvar.orthobasis as ob
    import gaussvar.polyring as pr
    import gaussvar.quadrature as qd
    import gaussvar.variety as va

    def field(a, k, r):
        return {"points": _rows(_arg(a, k, 1, "u"))}

    def nodes(a, k):
        return int(_arg(a, k, 2, "rule").points.shape[0])

    def written(i):
        return lambda a, k, r: {"bytes": _file_size(_arg(a, k, i, "path"))}

    return [
        (pr.MultiPoly, "eval", "polyring.eval",
         lambda a, k, r: {"term_points": len(a[0].terms) * _rows(_arg(a, k, 1, "x"))}),
        (pr, "monomials_up_to_degree", "polyring.monomials", None),
        (va, "load_chart", "variety.load_chart", None),
        (va.VarietyChart, "embed", "variety.chart_field", field),
        (va.VarietyChart, "volume_density", "variety.chart_field", field),
        (va.VarietyChart, "radial_sq", "variety.chart_field", field),
        (va, "estimate_growth", "variety.estimate_growth", None),
        (va, "solve_param_bound", "variety.solve_param_bound", None),
        (qd, "build_rule", "quadrature.build_rule",
         lambda a, k, r: {"nodes": int(r.points.shape[0]), "rule": r}),
        (qd, "choose_truncation", "quadrature.choose_truncation", None),
        (qd, "moment_table", "quadrature.moment_table", None),
        (qd, "integrate", "quadrature.integrate",
         lambda a, k, r: {"points": nodes(a, k)}),
        (ob, "gram_matrix", "orthobasis.gram_matrix",
         lambda a, k, r: {"cells": len(r.monomials) * nodes(a, k)}),
        (ob, "orthonormalize", "orthobasis.orthonormalize",
         lambda a, k, r: {"rank": r.rank, "monomials": len(r.monomials), "basis": r}),
        (ob, "project", "orthobasis.project",
         lambda a, k, r: {"cells": len(a[0].monomials) * nodes(a, k)}),
        (ob, "weighted_equivalence_check", "orthobasis.equivalence", None),
        (al, "cm_table", "approxlemma.cm_table", lambda a, k, r: {"records": len(r)}),
        (cli, "main", "cli.main", None),
        (qd.MomentTable, "to_csv", "cli.write", written(1)),
        (ob, "gram_to_csv", "cli.write", written(1)),
        (ob, "basis_to_csv", "cli.write", written(1)),
        (ob, "projections_to_csv", "cli.write", written(1)),
        (al, "records_to_csv", "cli.write", written(1)),
        (cli, "_write_csv", "cli.write", written(0)),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.study = ""
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.study, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "gaussvar" or n.startswith("gaussvar.")]
        for owner, attr, name, counts in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counts)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._saved):
            setattr(holder, key, value)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        idx = {n: i for i, n in enumerate(names)}
        rows = [[idx[s[0]], s[1], s[2], s[3], s[4],
                 {k: v for k, v in (s[5] or {}).items() if k not in ("basis", "rule")}]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "study", "counts"],
                       "spans": rows}, fh)
