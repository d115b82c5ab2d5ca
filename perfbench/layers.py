"""Traced child process: times threeway's layers by calling its public API.

Run with ``src`` on ``PYTHONPATH``; writes one JSON object to
``--result``.  It does two things in one process, so that its timings
can be compared with each other:

1. The traced pipeline: what ``threeway run`` does, with one span around
   each call (RunConfig.load, load_dataset, run_sweep, emit_outputs).
   ``pipeline_end`` is ``time.monotonic()`` when it finishes, so the
   parent can time it from spawn like an untraced run; the difference is
   the tracing overhead.
2. The replay: the layers inside run_sweep, called one at a time --
   partition, thresholds_at and check_ordering at every grid point, then
   classify and min_risk_region for every block at every decided point,
   plus a pass that counts ``TimeExpr.__call__``.  ``--scalars`` gives,
   per grid point, the six representative losses of a point-valued mode
   (null for band modes), from which classify and the risk rule get
   their arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

CONFIG_LOAD_REPS = 21
PER_T_FAILURES = (ArithmeticError, ValueError)


def rss_mib() -> float:
    """Current resident set size, or the peak where /proc is missing."""

    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _closed_form(s: list[Fraction]) -> tuple[Fraction, Fraction]:
    pp, bp, np_, nn, bn, pn = s
    return (pn - bn) / ((pn - bn) + (bp - pp)), (bn - nn) / ((bn - nn) + (np_ - bp))


def trace(args) -> dict:
    from threeway import (
        RunConfig,
        TimeExpr,
        check_ordering,
        classify,
        emit_outputs,
        load_dataset,
        min_risk_region,
        partition,
        run_sweep,
        thresholds_at,
    )

    spans = {}
    counts = {}

    def timed(name, fn, *a, **kw):
        start = time.perf_counter()
        out = fn(*a, **kw)
        spans[name] = time.perf_counter() - start
        return out

    config = timed("config.load", RunConfig.load, args.config)
    system = timed(
        "sweep.load_dataset",
        load_dataset,
        config.dataset_path,
        config.decision_attr,
        config.positive_value,
    )
    rows = timed("sweep.run_sweep", run_sweep, config, system=system)
    counts["sweep.rss_after_sweep_mib"] = rss_mib()
    timed("sweep.emit_outputs", emit_outputs, rows, args.out)
    counts["sweep.rows_built"] = sum(len(row.assignments) for row in rows)
    del rows  # an untraced run frees them on exit, inside its wall time
    pipeline_end = time.monotonic()

    with open(args.scalars, encoding="utf-8") as handle:
        scalars = json.load(handle)
    loads = []
    for _ in range(CONFIG_LOAD_REPS):
        start = time.perf_counter()
        RunConfig.load(args.config)
        loads.append(time.perf_counter() - start)
    spans["config.load"] = statistics.median(loads)

    blocks = timed("rough.partition", partition, system, config.condition_attrs)
    concept = system.concept
    probabilities = [Fraction(len(concept & block), len(block)) for block in blocks.blocks]
    counts["sweep.objects"] = len(system.objects)
    counts["rough.blocks"] = len(blocks.blocks)

    points = config.time_grid.points()
    if len(points) != len(scalars):
        raise SystemExit(f"grid has {len(points)} points, scalars file {len(scalars)}")
    statuses = []
    start = time.perf_counter()
    for t in points:
        try:
            result, degenerate = thresholds_at(config, t)
        except PER_T_FAILURES:
            statuses.append("error")
            continue
        if degenerate:
            statuses.append("degenerate")
        else:
            statuses.append("point" if hasattr(result, "alpha") else "ok")
    spans["thresholds.thresholds_at"] = time.perf_counter() - start
    start = time.perf_counter()
    for t in points:
        try:
            check_ordering(config, t)
        except PER_T_FAILURES:
            pass
    spans["losses.check_ordering"] = time.perf_counter() - start
    counts["thresholds.grid_points"] = len(points)
    counts["thresholds.ok_points"] = sum(s in ("ok", "point") for s in statuses)
    counts["thresholds.degenerate_points"] = statuses.count("degenerate")
    counts["thresholds.error_points"] = statuses.count("error")

    decided = []
    for status, row in zip(statuses, scalars):
        if status != "point" or row is None:
            continue
        losses = [Fraction(value) for value in row]
        alpha, beta = _closed_form(losses)
        if beta <= alpha:
            decided.append((alpha, beta, losses))
    start = time.perf_counter()
    for alpha, beta, _ in decided:
        for p in probabilities:
            classify(p, alpha, beta)
    spans["rough.classify"] = time.perf_counter() - start
    start = time.perf_counter()
    for _, _, losses in decided:
        for p in probabilities:
            min_risk_region(p, *losses)
    spans["risk.min_risk_region"] = time.perf_counter() - start
    counts["rough.decisions"] = len(decided) * len(probabilities)

    calls = 0
    original = TimeExpr.__call__

    def counting(self, t):
        nonlocal calls
        calls += 1
        return original(self, t)

    TimeExpr.__call__ = counting
    try:
        for t in points:
            for fn in (thresholds_at, check_ordering):
                try:
                    fn(config, t)
                except PER_T_FAILURES:
                    pass
    finally:
        TimeExpr.__call__ = original
    counts["expr.evals_per_t"] = calls / len(points)
    return {"spans": spans, "counts": counts, "pipeline_end": pipeline_end}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--scalars", required=True, help="per-point representative losses")
    parser.add_argument("--result", required=True, help="JSON file to write")
    args = parser.parse_args()
    result = trace(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
