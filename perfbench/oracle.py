"""Exact-rational oracle for the three output files of ``threeway run``.

The oracle recomputes every grid point from the generator's ``Model``
with ``fractions.Fraction``: grid points are exactly ``start + k*step``
and decimal literals are exact.  It does not import threeway.

Checks:

* ``summary.txt``: per-t statuses against the oracle, the status count
  line against those statuses, and each per-t tally against the rows of
  ``regions.csv``;
* ``thresholds.csv``: every value numerically, at relative 1e-9 (never
  as text: 12-digit rounding of a 1-ulp difference can change a digit);
* ``regions.csv``: row order, object ids, probabilities, and regions,
  cell by cell.

A region or status that differs from the oracle exactly at a tie (p
equal to the exact alpha or beta, or alpha equal to beta) is the known
float-grid defect: it is counted in ``tie_flips`` and does not fail the
check.  Every other difference does.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

from workloads import ENTRY_NAMES, Model

REL_TOL = Fraction(1, 10**9)
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Expected:
    """Oracle outcome at one grid point.

    ``thresholds`` is (alpha_lo, alpha_hi, beta_lo, beta_hi); point
    modes repeat alpha and beta.  ``None`` for error points.
    """

    t: Fraction
    status: str
    thresholds: tuple[Fraction, Fraction, Fraction, Fraction] | None


class _PointError(Exception):
    """The program must report this grid point as an error row."""


def _fuzzy_hull(elements, eta_value: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    if not 0 <= eta_value <= 1:
        raise _PointError("eta outside [0, 1]")
    merged: dict[Fraction, Fraction] = {}
    for value_expr, membership_expr in elements:
        value, membership = value_expr(t), membership_expr(t)
        if not 0 <= membership <= 1:
            raise _PointError("membership outside [0, 1]")
        merged[value] = max(membership, merged.get(value, Fraction(-1)))
    kept = [v for v, m in merged.items() if m >= eta_value]
    if not kept:
        raise _PointError("empty cut")
    return min(kept), max(kept)


def _bounds(model: Model, t: Fraction) -> dict[str, tuple[Fraction, Fraction]]:
    """(lo, hi) of each entry, with the shape checks the program applies."""

    out = {}
    for name in ENTRY_NAMES:
        payload = model.entries[name]
        if model.family == "fuzzy":
            lo, hi = _fuzzy_hull(payload, model.eta(t), t)
        else:
            lo, hi = payload[0](t), payload[1](t)
        if lo > hi or lo < 0:
            raise _PointError(f"{name} bounds invalid")
        out[name] = (lo, hi)
    return out


def _chains_ordered(rep: dict) -> bool:
    return rep["pp"] <= rep["bp"] <= rep["np"] and rep["nn"] <= rep["bn"] <= rep["pn"]


def _ratio(num: Fraction, den: Fraction) -> Fraction:
    if den <= 0:
        raise _PointError("non-positive threshold denominator")
    return num / den


def _point_pair(s: dict) -> tuple[Fraction, Fraction]:
    alpha = _ratio(s["pn"] - s["bn"], (s["pn"] - s["bn"]) + (s["bp"] - s["pp"]))
    beta = _ratio(s["bn"] - s["nn"], (s["bn"] - s["nn"]) + (s["np"] - s["bp"]))
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise _PointError("threshold outside [0, 1]")
    return alpha, beta


def _band(b: dict) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    lo = {name: v[0] for name, v in b.items()}
    hi = {name: v[1] for name, v in b.items()}
    for chain in (("pp", "bp", "np"), ("nn", "bn", "pn")):
        for left, right in zip(chain, chain[1:]):
            if hi[left] > lo[right]:
                raise _PointError("interleaved ordering fails")
    alpha_lo = _ratio(lo["pn"] - hi["bn"], (hi["pn"] - lo["bn"]) + (hi["bp"] - lo["pp"]))
    alpha_hi = _ratio(hi["pn"] - lo["bn"], (lo["pn"] - hi["bn"]) + (lo["bp"] - hi["pp"]))
    beta_lo = _ratio(lo["bn"] - hi["nn"], (hi["bn"] - lo["nn"]) + (hi["np"] - lo["bp"]))
    beta_hi = _ratio(hi["bn"] - lo["nn"], (lo["bn"] - hi["nn"]) + (lo["np"] - hi["bp"]))
    out = (max(alpha_lo, 0), min(alpha_hi, 1), max(beta_lo, 0), min(beta_hi, 1))
    if out[0] > out[1] or out[2] > out[3]:
        raise _PointError("envelope collapsed")
    return tuple(Fraction(v) for v in out)


def _check_covered(model: Model) -> None:
    if (model.family, model.mode) not in (
        ("uniform", None),
        ("interval", "optimistic"),
        ("fuzzy", "band"),
    ):
        raise ValueError(f"oracle does not cover {model.family}/{model.mode}")


def point_losses(model: Model, t: Fraction) -> dict[str, Fraction]:
    """The six scalars a point-valued mode feeds to the threshold formulas."""

    bounds = _bounds(model, t)
    lower = {name: b[0] for name, b in bounds.items()}
    if not _chains_ordered(lower):
        raise _PointError("lower chain unordered")
    if model.family != "uniform":
        return lower
    if not _chains_ordered({name: b[1] for name, b in bounds.items()}):
        raise _PointError("upper chain unordered")
    return {name: (b[0] + b[1]) / 2 for name, b in bounds.items()}


def expected_points(model: Model) -> list[Expected]:
    """The oracle's status and thresholds at every grid point."""

    _check_covered(model)
    out = []
    for t in model.grid.points():
        try:
            if model.mode == "band":
                out.append(Expected(t, "ok", _band(_bounds(model, t))))
                continue
            alpha, beta = _point_pair(point_losses(model, t))
        except _PointError:
            out.append(Expected(t, "error", None))
            continue
        status = "degenerate" if beta > alpha else "ok"
        out.append(Expected(t, status, (alpha, alpha, beta, beta)))
    return out


def replay_losses(model: Model) -> list[list[float] | None]:
    """Per grid point, the six point-mode losses as floats (None otherwise)."""

    _check_covered(model)
    out = []
    for t in model.grid.points():
        try:
            losses = None if model.mode == "band" else point_losses(model, t)
        except _PointError:
            losses = None
        out.append(None if losses is None else [float(losses[n]) for n in ENTRY_NAMES])
    return out


def classify(p: Fraction, alpha: Fraction, beta: Fraction) -> str:
    if p >= alpha:
        return "POS"
    if p <= beta:
        return "NEG"
    return "BND"


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _close(text: str, exact: Fraction) -> bool:
    try:
        value = Fraction(float(text))
    except (ValueError, OverflowError):
        return False
    return abs(value - exact) <= REL_TOL * abs(exact)


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    problem_count: int = 0
    tie_flips: int = 0
    tie_cells: int = 0

    @property
    def correct(self) -> bool:
        return self.problem_count == 0

    def fail(self, message: str) -> None:
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)


_PER_T = re.compile(r"  t=([^:]+): (.*)\Z")
_TALLY = re.compile(r"POS=(\d+) BND=(\d+) NEG=(\d+)\Z")
_BODY_STATUS = {
    "error": "error",
    "degenerate (beta > alpha)": "degenerate",
    "thresholds only (band mode)": "ok",
}


def _read_lines(path: str, verdict: Verdict) -> list[str] | None:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        verdict.fail(f"cannot read {os.path.basename(path)}: {exc}")
        return None
    if not text.endswith("\n"):
        verdict.fail(f"{os.path.basename(path)} does not end with LF")
    return text[:-1].split("\n") if text.endswith("\n") else text.split("\n")


def _check_summary(points, lines, verdict: Verdict):
    """Per-t statuses and tallies the program reported, or None."""

    n = len(points)
    if lines[:2] != ["three-way sweep summary", f"time points: {n}"] or len(lines) < n + 6:
        verdict.fail("summary.txt header or length does not match the oracle")
        return None
    statuses, tallies = [], []
    for k, (exp, line) in enumerate(zip(points, lines[4 : 4 + n])):
        match = _PER_T.match(line)
        if not match or not _close(match.group(1), exp.t):
            verdict.fail(f"summary.txt per-t line {k} does not match t={exp.t}: {line!r}")
            return None
        body = match.group(2)
        tally = _TALLY.match(body)
        statuses.append("ok" if tally else _BODY_STATUS.get(body, "?"))
        tallies.append(tuple(int(x) for x in tally.groups()) if tally else None)
    counts = {s: statuses.count(s) for s in ("ok", "degenerate", "error")}
    expected_tail = [
        "status counts: ok={ok} degenerate={degenerate} error={error}".format(**counts),
        "per-t results:",
    ]
    if lines[2:4] != expected_tail:
        verdict.fail(f"summary.txt status counts {lines[2]!r} do not match its per-t lines")
    degenerate = [
        _PER_T.match(line).group(1)
        for line, status in zip(lines[4 : 4 + n], statuses)
        if status == "degenerate"
    ]
    tail = lines[4 + n :]
    want = "degenerate time points (beta > alpha): " + (", ".join(degenerate) or "none")
    if tail[0] != want:
        verdict.fail(f"summary.txt degenerate list {tail[0]!r}, expected {want!r}")
    errors = statuses.count("error")
    if (errors == 0) != (tail[1:] == ["ordering violations / evaluation errors: none"]):
        verdict.fail("summary.txt error section does not match its per-t lines")
    return statuses, tallies


def check_outputs(model: Model, out_dir: str, points: list[Expected] | None = None) -> Verdict:
    """Check the three output files in ``out_dir`` against the oracle."""

    verdict = Verdict()
    points = points if points is not None else expected_points(model)
    band = model.mode == "band"

    summary = _read_lines(os.path.join(out_dir, "summary.txt"), verdict)
    parsed = _check_summary(points, summary, verdict) if summary is not None else None
    if parsed is None:
        return verdict
    statuses, tallies = parsed

    for k, (exp, got) in enumerate(zip(points, statuses)):
        if exp.status == got:
            continue
        tie = (
            not band
            and exp.status == "ok"
            and got == "degenerate"
            and exp.thresholds[0] == exp.thresholds[2]
        )
        if tie:
            verdict.tie_flips += 1
        else:
            verdict.fail(f"t={exp.t}: status {got!r}, oracle says {exp.status!r}")

    lines = _read_lines(os.path.join(out_dir, "thresholds.csv"), verdict)
    if lines is not None:
        with_thresholds = [
            exp for exp, got in zip(points, statuses) if got in ("ok", "degenerate")
        ]
        if lines[0] != "t,alpha_lo,alpha_hi,beta_lo,beta_hi" or len(lines) != len(
            with_thresholds
        ) + 1:
            verdict.fail("thresholds.csv header or row count does not match")
        else:
            for exp, line in zip(with_thresholds, lines[1:]):
                fields = line.split(",")
                if exp.thresholds is None or len(fields) != 5 or not all(
                    _close(text, value)
                    for text, value in zip(fields, (exp.t,) + exp.thresholds)
                ):
                    verdict.fail(f"thresholds.csv row {line!r} differs from the oracle at t={exp.t}")

    lines = _read_lines(os.path.join(out_dir, "regions.csv"), verdict)
    if lines is not None:
        _check_regions(model, points, statuses, tallies, lines, verdict)
    return verdict


def _check_regions(model, points, statuses, tallies, lines, verdict: Verdict) -> None:
    objects, block_of, probs = model.objects, model.block_of, model.probabilities
    decided = [
        (exp, tally)
        for exp, got, tally in zip(points, statuses, tallies)
        if got == "ok" and model.mode != "band" and exp.thresholds is not None
    ]
    if lines[0] != "t,object_id,probability,region" or len(lines) != 1 + len(objects) * len(
        decided
    ):
        verdict.fail(
            f"regions.csv has {len(lines) - 1} rows, expected {len(objects) * len(decided)}"
        )
        return
    p_text = [_fmt(p) for p in probs]
    row = 1
    for exp, tally in decided:
        alpha, beta = exp.thresholds[0], exp.thresholds[2]
        regions = [classify(p, alpha, beta) for p in probs]
        ties = [p == alpha or p == beta or alpha == beta for p in probs]
        verdict.tie_cells += sum(ties[b] for b in block_of)
        prefix = _fmt(exp.t) + ","
        suffix = [f",{pt},{r}" for pt, r in zip(p_text, regions)]
        seen = {"POS": 0, "BND": 0, "NEG": 0}
        for obj, b in zip(objects, block_of):
            line = lines[row]
            row += 1
            if line == prefix + obj + suffix[b]:
                seen[regions[b]] += 1
                continue
            fields = line.split(",")
            if (
                len(fields) != 4
                or not _close(fields[0], exp.t)
                or fields[1] != obj
                or not _close(fields[2], probs[b])
                or fields[3] not in seen
            ):
                verdict.fail(f"regions.csv line {row}: {line!r}, expected t={exp.t} {obj} p={probs[b]}")
                continue
            seen[fields[3]] += 1
            if fields[3] == regions[b]:
                continue
            if ties[b]:
                verdict.tie_flips += 1
            else:
                verdict.fail(
                    f"regions.csv line {row}: {fields[3]} at t={exp.t}, p={probs[b]}, "
                    f"alpha={alpha}, beta={beta}; oracle says {regions[b]}"
                )
        if tally != (seen["POS"], seen["BND"], seen["NEG"]):
            verdict.fail(f"summary.txt tally {tally} at t={exp.t} does not match regions.csv {seen}")
