"""In-memory spans and counters around the library's public functions.

The library itself is not changed: ``instrument`` swaps the module
attributes that callers look up at call time for wrappers, and puts the
originals back on exit.  A span records (name, call id, parent span,
start, end, note); spans of one workload call share the call id.  At the
two boundaries that run into the millions of calls, ``elliptic.jacobi``
and the right-hand side handed to the integrator, only a count and the
summed time are kept.  Process-pool workers inherit the wrappers but never
report back, so only work done in the benchmark process is seen.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

NAME, CALL, PARENT, START, END, NOTE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.call = ""
        self._stack: list[int] = []

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so each call records a span; ``note(args, kwargs,
        result)`` may attach a small dict to it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, self.call, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so each call adds to a count and a summed time."""
        counts, seconds = self.counts, self.seconds
        counts.setdefault(name, 0)
        seconds.setdefault(name, 0.0)

        def counted(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[name] += perf_counter() - t0
                counts[name] += 1

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "call", "parent", "start", "end", "note"],
                       "spans": self.spans, "counts": self.counts,
                       "seconds": self.seconds}, fh)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from hillduffing import beam, cli, criteria, elliptic, hill, tongues

    def cli_note(args, kwargs, result):
        argv = args[0]
        note = {"command": argv[0], "cells": 0}
        if "--x" in argv:
            nx, ny = (int(argv[argv.index(flag) + 1].rsplit(":", 1)[1]) for flag in ("--x", "--y"))
            note["cells"] = nx * ny
        return note

    def scan_note(args, kwargs, result):
        nx, ny = args[3] if len(args) > 3 else kwargs["resolution"]
        return {"cells": nx * ny, "workers": kwargs.get("workers", 1)}

    def bracket_note(args, kwargs, result):
        threshold = kwargs.get("threshold")
        if threshold is None:
            threshold = 2.0 - hill.DEFAULT_TOL_BOUNDARY
        return {"threshold": threshold}

    def solver(name, fn):
        def solve(rhs, *args, **kwargs):
            return fn(tracer.counter(name + "_rhs", rhs), *args, **kwargs)
        return tracer.span(name, solve)

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            run = tracer.span("tongues.pool_wait",
                              lambda: list(super(TracedPool, self).map(fn, *iterables, **kwargs)))
            return iter(run())

    monodromy = tracer.span("hill.monodromy", hill.monodromy,
                            lambda a, k, r: {"det_residual": r.det_residual})
    patches = [
        (cli, "main", tracer.span("cli.main", cli.main, cli_note)),
        (tongues, "scan", tracer.span("tongues.scan", tongues.scan, scan_note)),
        (tongues, "ProcessPoolExecutor", TracedPool),
        (tongues, "recount_crossings",
         tracer.span("tongues.recount_crossings", tongues.recount_crossings,
                     lambda a, k, r: {"threshold": 2.0})),
        (tongues, "trace_level_bracket",
         tracer.span("tongues.trace_level_bracket", tongues.trace_level_bracket, bracket_note)),
        (tongues, "trace_at", tracer.span("tongues.trace_at", tongues.trace_at)),
        (tongues, "minimize_scalar",
         tracer.span("tongues.refine", tongues.minimize_scalar,
                     lambda a, k, r: {"peak": -float(r.fun)})),
        (tongues, "brentq", tracer.span("tongues.bisect", tongues.brentq)),
        (tongues, "monodromy", monodromy),
        (beam, "monodromy", monodromy),
        (hill, "monodromy", monodromy),
        (hill, "solve_final", solver("integrate.solve_final", hill.solve_final)),
        (beam, "solve_sampled", solver("integrate.solve_sampled", beam.solve_sampled)),
        (elliptic, "jacobi", tracer.counter("elliptic.jacobi", elliptic.jacobi)),
        (elliptic, "complete_K", tracer.counter("elliptic.complete_K", elliptic.complete_K)),
        (criteria, "burdina_condition_omega",
         tracer.span("criteria.burdina_condition_omega", criteria.burdina_condition_omega)),
        (beam, "simulate", tracer.span("beam.simulate", beam.simulate)),
        (beam, "mode_stability", tracer.span("beam.mode_stability", beam.mode_stability)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    saved_criteria = dict(cli._CRITERIA)
    try:
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        for key, fn in saved_criteria.items():
            cli._CRITERIA[key] = tracer.span("criteria." + fn.__name__, fn)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
        cli._CRITERIA.update(saved_criteria)


def _self_time(spans, children, i) -> float:
    rec = spans[i]
    return rec[END] - rec[START] - sum(spans[c][END] - spans[c][START] for c in children.get(i, ()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, cli_bytes: float) -> dict[str, float]:
    """Per-layer figures per workload round (counts and summed times are
    divided by the number of rounds; rates and quantiles are over all)."""
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        children.setdefault(rec[PARENT], []).append(i)
        by_name.setdefault(rec[NAME], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i][END] - spans[i][START] for i in named(name))

    def per_round(x):
        return x / rounds

    def count(name):
        return tracer.counts.get(name, 0)

    def secs(name):
        return tracer.seconds.get(name, 0.0)

    scans = {1: [0, 0.0], 2: [0, 0.0]}
    for i in named("tongues.scan"):
        note = spans[i][NOTE]
        entry = scans.setdefault(note["workers"], [0, 0.0])
        entry[0] += note["cells"]
        entry[1] += spans[i][END] - spans[i][START]

    line_spans = {"tongues.recount_crossings", "tongues.trace_level_bracket"}
    grid_evals = refine_evals = bisect_evals = 0
    for i in named("tongues.trace_at"):
        parent = spans[i][PARENT]
        kind = spans[parent][NAME] if parent >= 0 else ""
        if kind in line_spans:
            grid_evals += 1
        elif kind == "tongues.refine":
            refine_evals += 1
        elif kind == "tongues.bisect":
            bisect_evals += 1
    refines = named("tongues.refine")
    useful = sum(1 for i in refines
                 if spans[i][NOTE]["peak"] > spans[spans[i][PARENT]][NOTE]["threshold"])

    mono = named("hill.monodromy")
    mono_ms = sorted((spans[i][END] - spans[i][START]) * 1e3 for i in mono)
    p99 = statistics.quantiles(mono_ms, n=100)[98] if len(mono_ms) >= 2 else 0.0

    crit_cells = crit_time = 0.0
    for i in named("cli.main"):
        note = spans[i][NOTE]
        if note and note.get("command") == "criteria-map":
            crit_cells += note["cells"]
            crit_time += spans[i][END] - spans[i][START]

    final_s, sampled_s = total("integrate.solve_final"), total("integrate.solve_sampled")
    final_rhs, sampled_rhs = count("integrate.solve_final_rhs"), count("integrate.solve_sampled_rhs")
    return {
        "cli.self_s": per_round(sum(_self_time(spans, children, i) for i in named("cli.main"))),
        "cli.bytes_written": cli_bytes,
        "tongues.scan_cells_per_s_w1": _ratio(scans[1][0], scans[1][1]),
        "tongues.scan_cells_per_s_w2": _ratio(scans[2][0], scans[2][1]),
        "tongues.scan_wait_s": per_round(total("tongues.pool_wait")),
        "tongues.grid_evals": per_round(grid_evals),
        "tongues.refine_evals": per_round(refine_evals),
        "tongues.bisect_evals": per_round(bisect_evals),
        "tongues.refine_useful_ratio": _ratio(useful, len(refines)),
        "tongues.recount_s": per_round(total("tongues.recount_crossings")),
        "tongues.bracket_s": per_round(total("tongues.trace_level_bracket")),
        "hill.monodromy_calls": per_round(len(mono)),
        "hill.monodromy_ms_p50": statistics.median(mono_ms) if mono_ms else 0.0,
        "hill.monodromy_ms_p99": p99,
        "hill.rhs_per_monodromy": _ratio(final_rhs, len(mono)),
        "hill.det_residual_max": max((spans[i][NOTE]["det_residual"] for i in mono), default=0.0),
        "integrate.final_s": per_round(final_s),
        "integrate.final_rhs_evals": per_round(final_rhs),
        "integrate.final_us_per_rhs": _ratio(final_s * 1e6, final_rhs),
        "integrate.sampled_s": per_round(sampled_s),
        "integrate.sampled_rhs_evals": per_round(sampled_rhs),
        "integrate.sampled_us_per_rhs": _ratio(sampled_s * 1e6, sampled_rhs),
        "elliptic.jacobi_calls": per_round(count("elliptic.jacobi")),
        "elliptic.jacobi_s": per_round(secs("elliptic.jacobi")),
        "elliptic.jacobi_us_per_call": _ratio(secs("elliptic.jacobi") * 1e6, count("elliptic.jacobi")),
        "elliptic.complete_K_calls": per_round(count("elliptic.complete_K")),
        "criteria.cells_per_s": _ratio(crit_cells, crit_time),
        "criteria.li_zhang_s": per_round(total("criteria.li_zhang")),
        "criteria.zhukovskii_s": per_round(total("criteria.zhukovskii")),
        "criteria.burdina_s": per_round(total("criteria.burdina")),
        "criteria.closed_form_s": per_round(total("criteria.burdina_condition_omega")),
        "beam.simulate_s": per_round(total("beam.simulate")),
        "beam.rhs_per_simulate": _ratio(sampled_rhs, len(named("beam.simulate"))),
        "beam.mode_stability_s": per_round(total("beam.mode_stability")),
    }
