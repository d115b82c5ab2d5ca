"""Dataset loading, the time sweep, and deterministic output files.

A sweep walks the configured time grid.  At each grid value it checks
the family-appropriate loss orderings, computes thresholds, and (for
point-valued modes) decides a region, POS, BND, or NEG, for every
indiscernibility block from the block's concept probability.  A region
depends only on that probability and the losses, so the decision, and
its cross-check against the minimum-expected-risk rule, runs once per
distinct block probability; the two rules must agree by construction,
so a mismatch raises immediately.  A row keeps one region per block
plus a layout shared by the whole sweep (objects in file order, their
blocks, block sizes and probabilities); ``SweepRow.assignments``
expands it to per-object records only when read.

Threshold and classification arithmetic runs on exact rationals built
from the evaluated losses, which makes the cross-check and all boundary
comparisons (p exactly at a threshold) deterministic.  Only the final
output values are floats.

Outputs are three files with LF line endings and floats printed to 12
significant digits:

* ``thresholds.csv``  -- t, alpha_lo, alpha_hi, beta_lo, beta_hi
  (point results repeat alpha and beta in both columns);
* ``regions.csv``     -- t, object_id, probability, region
  (omitted for band-mode and degenerate time points);
* ``summary.txt``     -- per-t region counts, degenerate time points,
  and ordering/evaluation errors.

``regions.csv`` is streamed one grid value at a time, and the summary
tallies come from block sizes, so memory grows as O(N + T*B) for N
objects, T grid values and B blocks, never as O(N*T).
"""

from __future__ import annotations

import csv
import operator
import os
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .config import RunConfig
from .expr import ExprEvalError
from .losses import LossModelError, evaluate_matrix, validate_ordering
from .rough import (
    InformationSystem,
    Region,
    RegionAssignment,
    classify,
    conditional_probability,
    partition,
)
from .risk import min_risk_region
from .thresholds import (
    RULES,
    BandPair,
    OrderingViolationError,
    PointPair,
    ThresholdError,
    ThresholdResult,
    band_thresholds,
    point_thresholds,
)

__all__ = [
    "BlockLayout",
    "DatasetError",
    "StrictSweepError",
    "SweepRow",
    "check_ordering",
    "emit_outputs",
    "load_dataset",
    "run_sweep",
    "thresholds_at",
]

_ID_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


class DatasetError(ValueError):
    """Raised for malformed dataset files."""


class StrictSweepError(RuntimeError):
    """A per-t failure promoted to a hard stop by strict ordering mode."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"t={t!r}: {reason}")
        self.t = t
        self.reason = reason


@dataclass(frozen=True)
class BlockLayout:
    """How a sweep's objects map onto its indiscernibility blocks.

    One layout is shared by every row of a sweep.  ``objects``,
    ``block_of`` (each object's block index) and ``pieces`` (each
    object's ``,object_id,`` text in ``regions.csv``) follow dataset
    order; ``sizes``, ``probabilities`` and ``texts`` (the probability
    as printed) are per block, in partition order.
    """

    objects: tuple[str, ...]
    block_of: tuple[int, ...]
    pieces: tuple[str, ...]
    sizes: tuple[int, ...]
    probabilities: tuple[float, ...]
    texts: tuple[str, ...]


@dataclass(frozen=True)
class SweepRow:
    """Outcome at one grid value.

    ``status`` is ``ok``, ``degenerate`` (point thresholds computed but
    beta > alpha, so no assignments), or ``error`` (ordering violation
    or evaluation failure; see ``message``).  A decided point-mode row
    holds one region per block in ``regions`` plus the sweep's shared
    ``layout``; every other row has empty ``regions``.
    """

    t: float
    status: str
    thresholds: ThresholdResult | None
    regions: tuple[Region, ...] = ()
    layout: BlockLayout | None = field(default=None, repr=False)
    message: str | None = None

    @property
    def assignments(self) -> Sequence[RegionAssignment]:
        """One assignment per object in dataset order (empty unless the
        row is decided), each built only when indexed or iterated."""

        if not self.regions:
            return ()
        return _Assignments(self.layout, self.regions)


class _Assignments(Sequence):
    """Read-only view of a decided row's per-object assignments."""

    __slots__ = ("_layout", "_regions")

    def __init__(self, layout: BlockLayout, regions: tuple[Region, ...]):
        self._layout = layout
        self._regions = regions

    def __len__(self) -> int:
        return len(self._layout.objects)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        layout = self._layout
        block = layout.block_of[index]
        return RegionAssignment(
            layout.objects[index], layout.probabilities[block], self._regions[block]
        )

    def __iter__(self) -> Iterator[RegionAssignment]:
        return map(self.__getitem__, range(len(self)))


def load_dataset(path: str, decision_attr: str, positive_value: str) -> InformationSystem:
    """Read a CSV dataset into an :class:`InformationSystem`.

    The first column holds object ids (restricted to ``[A-Za-z0-9_-]``);
    the remaining header names are attributes.  Rows must all have the
    header's width, ids must be unique, the decision attribute must be
    one of the columns, and at least one object row is required.
    """

    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            table = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from None
    if not table:
        raise DatasetError("dataset is empty: missing header row")
    header = table[0]
    if len(header) < 2:
        raise DatasetError("header must name an id column and at least one attribute")
    attributes = tuple(header[1:])
    if any(not name for name in attributes):
        raise DatasetError("header contains an empty attribute name")
    if len(set(attributes)) != len(attributes):
        raise DatasetError("header contains duplicate attribute names")
    if decision_attr not in attributes:
        raise DatasetError(
            f"decision attribute {decision_attr!r} not found in dataset columns"
        )

    objects: list[str] = []
    rows: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for lineno, row in enumerate(table[1:], start=2):
        if len(row) != len(header):
            raise DatasetError(
                f"row {lineno} has {len(row)} fields, expected {len(header)}"
            )
        obj = row[0]
        if not _ID_RE.fullmatch(obj):
            raise DatasetError(
                f"row {lineno}: object id {obj!r} is not limited to [A-Za-z0-9_-]"
            )
        if obj in seen:
            raise DatasetError(f"duplicate object id {obj!r}")
        seen.add(obj)
        objects.append(obj)
        rows.append(tuple(row[1:]))
    if not objects:
        raise DatasetError("dataset has no objects")
    return InformationSystem(objects, attributes, rows, decision_attr, positive_value)


def _checked_entries(config: RunConfig, t: float):
    """The six entries at ``t``, each evaluated once, and every violation
    of the ordering chains the config's (family, mode) rule requires."""

    orderings, _ = RULES[config.family, config.mode]
    entries = evaluate_matrix(config.matrix, t)
    violations = [
        violation
        for ordering in orderings
        for violation in validate_ordering(entries, t, ordering)
    ]
    return entries, violations


def _evaluate_at(config: RunConfig, t: float):
    """Validate orderings and compute thresholds at one grid value.

    Returns ``(result, exact_pair, exact_scalars)`` where the last two
    are ``None`` for band modes.  Raises ``LossModelError``,
    ``ExprEvalError``, or ``ThresholdError`` on failure; an evaluation
    error wins over an ordering violation.
    """

    entries, violations = _checked_entries(config, t)
    if violations:
        raise OrderingViolationError(violations[0])
    _, representative = RULES[config.family, config.mode]
    if representative == "band":
        return band_thresholds(entries), None, None
    scalars = [Fraction(getattr(entry, representative)) for entry in entries]
    pair = point_thresholds(*scalars)
    result = PointPair(float(pair.alpha), float(pair.beta))
    return result, pair, scalars


def thresholds_at(config: RunConfig, t: float) -> tuple[ThresholdResult, bool]:
    """Thresholds at a single time value, plus a degeneracy flag.

    The flag is True when a point result has beta > alpha (no regions
    can be assigned there).  Needs no dataset.
    """

    result, pair, _ = _evaluate_at(config, t)
    degenerate = pair is not None and pair.beta > pair.alpha
    return result, degenerate


def check_ordering(config: RunConfig, t: float) -> list[str]:
    """Messages for every ordering violation at ``t`` (empty when fine).

    Uses the same family- and mode-appropriate chains as the sweep.
    Evaluation failures propagate as exceptions.
    """

    return [str(violation) for violation in _checked_entries(config, t)[1]]


_PER_T_ERRORS = (LossModelError, ExprEvalError, ThresholdError)


def run_sweep(
    config: RunConfig,
    strict: bool | None = None,
    system: InformationSystem | None = None,
) -> list[SweepRow]:
    """Execute the configured sweep and return one row per grid value.

    ``strict`` overrides ``config.strict_ordering`` when given.  With
    strict mode off, per-t failures become ``error`` rows and beta >
    alpha becomes a ``degenerate`` row; with it on, either aborts the
    sweep with :class:`StrictSweepError`.  ``system`` substitutes an
    already-loaded dataset (the config's file is read otherwise).
    """

    if strict is None:
        strict = config.strict_ordering
    if system is None:
        system = load_dataset(
            config.dataset_path, config.decision_attr, config.positive_value
        )
    try:
        blocks = partition(system, config.condition_attrs)
    except ValueError as exc:
        raise DatasetError(str(exc)) from None
    concept = system.concept
    exact = [conditional_probability(concept, block) for block in blocks.blocks]
    slot: dict[Fraction, int] = {}
    slot_of_block = [slot.setdefault(p, len(slot)) for p in exact]
    distinct = list(slot)
    block_of = {
        obj: index for index, block in enumerate(blocks.blocks) for obj in block
    }
    probabilities = tuple(float(p) for p in exact)
    layout = BlockLayout(
        objects=system.objects,
        block_of=tuple(block_of[obj] for obj in system.objects),
        pieces=tuple(f",{obj}," for obj in system.objects),
        sizes=tuple(len(block) for block in blocks.blocks),
        probabilities=probabilities,
        texts=tuple(map(_fmt, probabilities)),
    )

    rows: list[SweepRow] = []
    for t in config.time_grid:
        try:
            result, pair, scalars = _evaluate_at(config, t)
        except _PER_T_ERRORS as exc:
            if strict:
                raise StrictSweepError(t, str(exc)) from exc
            rows.append(SweepRow(t, "error", None, message=str(exc)))
            continue
        if pair is None:
            rows.append(SweepRow(t, "ok", result))
            continue
        if pair.beta > pair.alpha:
            if strict:
                raise StrictSweepError(
                    t,
                    f"beta ({float(pair.beta)!r}) exceeds alpha ({float(pair.alpha)!r})",
                )
            rows.append(SweepRow(t, "degenerate", result))
            continue
        # both rules are pure functions of (p, losses): one check per
        # distinct probability covers every block that has it
        decided = []
        for p in distinct:
            region = classify(p, pair.alpha, pair.beta)
            check = min_risk_region(p, *scalars)
            if check is not region:
                raise RuntimeError(
                    f"threshold rule and risk rule disagree at t={t!r}, "
                    f"p={p!r}: {region.value} vs {check.value}"
                )
            decided.append(region)
        regions = tuple(map(decided.__getitem__, slot_of_block))
        rows.append(SweepRow(t, "ok", result, regions, layout))
    return rows


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _threshold_columns(result: ThresholdResult) -> tuple[str, str, str, str]:
    if isinstance(result, PointPair):
        alpha, beta = _fmt(result.alpha), _fmt(result.beta)
        return alpha, alpha, beta, beta
    assert isinstance(result, BandPair)
    return (
        _fmt(result.alpha_lo),
        _fmt(result.alpha_hi),
        _fmt(result.beta_lo),
        _fmt(result.beta_hi),
    )


def emit_outputs(rows: list[SweepRow], out_dir: str) -> None:
    """Write thresholds.csv, regions.csv, and summary.txt to ``out_dir``.

    Rows are ordered by ascending t regardless of input order, floats
    carry 12 significant digits, and lines end with LF, so identical
    sweeps produce byte-identical files.
    """

    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(rows, key=lambda row: row.t)

    lines = ["t,alpha_lo,alpha_hi,beta_lo,beta_hi"]
    for row in ordered:
        if row.thresholds is not None:
            lines.append(",".join((_fmt(row.t),) + _threshold_columns(row.thresholds)))
    _write_lines(os.path.join(out_dir, "thresholds.csv"), lines)

    with open(
        os.path.join(out_dir, "regions.csv"), "w", encoding="utf-8", newline="\n"
    ) as handle:
        handle.write("t,object_id,probability,region\n")
        for row in ordered:
            if row.regions:
                handle.write(_region_lines(row))

    counts = {status: 0 for status in ("ok", "degenerate", "error")}
    for row in ordered:
        counts[row.status] += 1
    lines = [
        "three-way sweep summary",
        f"time points: {len(ordered)}",
        "status counts: ok={ok} degenerate={degenerate} error={error}".format(**counts),
        "per-t results:",
    ]
    for row in ordered:
        if row.status == "error":
            lines.append(f"  t={_fmt(row.t)}: error")
        elif row.status == "degenerate":
            lines.append(f"  t={_fmt(row.t)}: degenerate (beta > alpha)")
        elif not row.regions:
            lines.append(f"  t={_fmt(row.t)}: thresholds only (band mode)")
        else:
            tally = {region: 0 for region in Region}
            for size, region in zip(row.layout.sizes, row.regions):
                tally[region] += size
            lines.append(
                f"  t={_fmt(row.t)}: "
                f"POS={tally[Region.POS]} BND={tally[Region.BND]} NEG={tally[Region.NEG]}"
            )
    degenerate_ts = [_fmt(row.t) for row in ordered if row.status == "degenerate"]
    lines.append(
        "degenerate time points (beta > alpha): "
        + (", ".join(degenerate_ts) if degenerate_ts else "none")
    )
    error_rows = [row for row in ordered if row.status == "error"]
    if error_rows:
        lines.append("ordering violations / evaluation errors:")
        for row in error_rows:
            lines.append(f"  t={_fmt(row.t)}: {row.message}")
    else:
        lines.append("ordering violations / evaluation errors: none")
    _write_lines(os.path.join(out_dir, "summary.txt"), lines)


def _region_lines(row: SweepRow) -> str:
    """The ``t,object_id,probability,region`` lines of one decided row."""

    layout = row.layout
    t = _fmt(row.t)
    cells = [
        f"{text},{region.value}\n" for text, region in zip(layout.texts, row.regions)
    ]
    # t + t.join(...) puts t in front of every object's ",id,p,region\n"
    return t + t.join(
        map(operator.add, layout.pieces, map(cells.__getitem__, layout.block_of))
    )


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
