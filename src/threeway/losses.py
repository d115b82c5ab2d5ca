"""Time-dependent loss functions for three-way decision making.

A loss matrix has six entries, one per (action, state) pair:

    ======  ========================  ========================
    entry   action                    state
    ======  ========================  ========================
    pp      accept                    in the concept
    bp      defer                     in the concept
    np      reject                    in the concept
    nn      reject                    outside the concept
    bn      defer                     outside the concept
    pn      accept                    outside the concept
    ======  ========================  ========================

Each entry is one of five ``LossSpec`` variants, all built from
expressions in the time variable ``t``:

* ``PointLoss``       -- a single value.
* ``UniformLoss``     -- a uniform distribution on [a(t), b(t)]; its
  expected loss is the midpoint.
* ``NormalBandLoss``  -- a normal distribution summarized by the band
  [mu - n*sigma, mu + n*sigma] for n in {1, 2, 3}.
* ``IntervalLoss``    -- an interval [lo(t), hi(t)].
* ``FuzzyLoss``       -- a discrete fuzzy number; an eta-cut keeps the
  values whose membership reaches eta(t), and the hull of the kept
  values is the entry's interval.

Every evaluation enforces non-negative losses.  ``evaluate_entry``
reduces any entry to one ``Entry`` record ``(lo, central, hi)``: the
lower, central, and upper representative the threshold rules choose
from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .expr import TimeExpr

__all__ = [
    "ENTRY_NAMES",
    "Entry",
    "FuzzyElement",
    "FuzzyLoss",
    "IntervalLoss",
    "LossMatrix",
    "LossModelError",
    "LossSpec",
    "NormalBandLoss",
    "OrderingMode",
    "OrderingViolation",
    "PointLoss",
    "UniformLoss",
    "cut_set",
    "evaluate_entry",
    "evaluate_matrix",
    "validate_ordering",
]


class LossModelError(ValueError):
    """Raised when a loss specification cannot be evaluated at some t."""


@dataclass(frozen=True)
class PointLoss:
    value: TimeExpr


@dataclass(frozen=True)
class UniformLoss:
    a: TimeExpr
    b: TimeExpr


@dataclass(frozen=True)
class NormalBandLoss:
    mu: TimeExpr
    sigma: TimeExpr
    n: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2, or 3, got {self.n!r}")


@dataclass(frozen=True)
class IntervalLoss:
    lo: TimeExpr
    hi: TimeExpr


@dataclass(frozen=True)
class FuzzyElement:
    value: TimeExpr
    membership: TimeExpr


@dataclass(frozen=True)
class FuzzyLoss:
    elements: tuple[FuzzyElement, ...]
    eta: TimeExpr
    strong: bool = False

    def __init__(
        self,
        elements: Iterable[FuzzyElement],
        eta: TimeExpr,
        strong: bool = False,
    ):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "strong", bool(strong))
        if not self.elements:
            raise ValueError("fuzzy loss needs at least one element")


LossSpec = Union[PointLoss, UniformLoss, NormalBandLoss, IntervalLoss, FuzzyLoss]

ENTRY_NAMES = ("pp", "bp", "np", "nn", "bn", "pn")


@dataclass(frozen=True)
class LossMatrix:
    """Six loss entries, all of the same variant family."""

    pp: LossSpec
    bp: LossSpec
    np_: LossSpec
    nn: LossSpec
    bn: LossSpec
    pn: LossSpec

    def __post_init__(self) -> None:
        family = type(self.pp)
        for name, spec in self.entries:
            if type(spec) is not family:
                raise ValueError(
                    "mixed loss families: "
                    f"pp is {family.__name__} but {name} is {type(spec).__name__}"
                )

    @property
    def entries(self) -> tuple[tuple[str, LossSpec], ...]:
        """The six (name, spec) pairs in canonical order."""
        specs = (self.pp, self.bp, self.np_, self.nn, self.bn, self.pn)
        return tuple(zip(ENTRY_NAMES, specs))

    @property
    def family(self) -> type:
        return type(self.pp)


def cut_set(
    elements: Iterable[FuzzyElement],
    eta_value: float,
    strong: bool,
    t: float,
) -> frozenset[float]:
    """Values of a discrete fuzzy number whose membership reaches ``eta_value``.

    Memberships must lie in [0, 1], as must ``eta_value``.  When two
    elements evaluate to the same value at ``t``, the larger membership
    wins.  ``strong`` switches the comparison from ``>=`` to ``>``.
    """

    if not 0 <= eta_value <= 1:
        raise LossModelError(f"cut level must be in [0, 1], got {eta_value!r}")
    merged: dict[float, float] = {}
    for element in elements:
        value = element.value(t)
        membership = element.membership(t)
        if not 0 <= membership <= 1:
            raise LossModelError(
                f"membership of '{element.membership}' is {membership!r} "
                f"at t={t!r}, outside [0, 1]"
            )
        if membership > merged.get(value, -1.0):
            merged[value] = membership
    if strong:
        kept = {v for v, m in merged.items() if m > eta_value}
    else:
        kept = {v for v, m in merged.items() if m >= eta_value}
    return frozenset(kept)


class Entry(NamedTuple):
    """One loss entry at one t: lower, central, and upper representative.

    Point entries repeat their value.  Uniform entries span their
    support [a, b] with the midpoint (the expected loss) as centre;
    normal entries span mu -/+ n*sigma around mu; interval and fuzzy
    entries span their interval (a fuzzy entry's cut hull) around its
    midpoint.
    """

    lo: float
    central: float
    hi: float


def evaluate_entry(spec: LossSpec, t: float) -> Entry:
    """Evaluate one loss entry at time ``t``, each expression once.

    Violated shape constraints (a > b, negative sigma, mu - n*sigma < 0,
    lo > hi, empty cut, negative loss) raise ``LossModelError``.
    """

    if isinstance(spec, PointLoss):
        value = spec.value(t)
        if value < 0:
            raise LossModelError(f"loss must be non-negative, got {value!r}")
        return Entry(value, value, value)
    if isinstance(spec, UniformLoss):
        a = spec.a(t)
        b = spec.b(t)
        if a > b:
            raise LossModelError(
                f"uniform endpoints inverted at t={t!r}: "
                f"'{spec.a}' = {a!r} > '{spec.b}' = {b!r}"
            )
        if a < 0:
            raise LossModelError(f"loss must be non-negative, got {a!r} at t={t!r}")
        return Entry(a, (a + b) / 2, b)
    if isinstance(spec, NormalBandLoss):
        mu = spec.mu(t)
        sigma = spec.sigma(t)
        if sigma < 0:
            raise LossModelError(f"sigma is negative ({sigma!r}) at t={t!r}")
        spread = spec.n * sigma
        if mu - spread < 0:
            raise LossModelError(
                f"normal band dips below zero at t={t!r}: "
                f"mu - n*sigma = {mu - spread!r}"
            )
        return Entry(mu - spread, mu, mu + spread)
    if isinstance(spec, IntervalLoss):
        lo = spec.lo(t)
        hi = spec.hi(t)
        if lo > hi:
            raise LossModelError(
                f"interval endpoints inverted at t={t!r}: "
                f"'{spec.lo}' = {lo!r} > '{spec.hi}' = {hi!r}"
            )
        if lo < 0:
            raise LossModelError(f"loss must be non-negative, got {lo!r} at t={t!r}")
        return Entry(lo, (lo + hi) / 2, hi)
    if isinstance(spec, FuzzyLoss):
        eta_value = spec.eta(t)
        if not 0 <= eta_value <= 1:
            raise LossModelError(
                f"cut level '{spec.eta}' is {eta_value!r} at t={t!r}, outside [0, 1]"
            )
        kept = cut_set(spec.elements, eta_value, spec.strong, t)
        if not kept:
            raise LossModelError(
                f"empty cut at t={t!r}: no membership reaches {eta_value!r}"
            )
        lo = min(kept)
        if lo < 0:
            raise LossModelError(f"loss must be non-negative, got {lo!r} at t={t!r}")
        hi = max(kept)
        return Entry(lo, (lo + hi) / 2, hi)
    raise TypeError(f"not a loss spec: {spec!r}")


def evaluate_matrix(matrix: LossMatrix, t: float) -> tuple[Entry, ...]:
    """The six entries at ``t`` in canonical order (pp, bp, np, nn, bn, pn).

    Entries are evaluated in that order, so when several fail the
    first one's error is the one raised.
    """

    return tuple(evaluate_entry(spec, t) for _, spec in matrix.entries)


class OrderingMode(enum.Enum):
    """Which representative of each entry the ordering check uses."""

    CENTRAL = "central"
    LOWER = "lower"
    UPPER = "upper"
    INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class OrderingViolation:
    constraint: str
    t: float
    lhs: float
    rhs: float

    def __str__(self) -> str:
        return f"{self.constraint} fails at t={self.t!r}: {self.lhs!r} > {self.rhs!r}"


# The Entry field compared on the left and on the right entry of each link.
_SIDES = {
    OrderingMode.CENTRAL: ("central", "central"),
    OrderingMode.LOWER: ("lo", "lo"),
    OrderingMode.UPPER: ("hi", "hi"),
    OrderingMode.INTERLEAVED: ("hi", "lo"),
}
_LABELS = {"lo": "lower", "central": "central", "hi": "upper"}


def validate_ordering(
    entries: Sequence[Entry], t: float, mode: OrderingMode
) -> list[OrderingViolation]:
    """Violations of the loss-ordering chains among evaluated entries.

    For the scalar modes the constraint is ``pp <= bp <= np`` and
    ``nn <= bn <= pn`` on the chosen representative (central value,
    all lower bounds, or all upper bounds).  INTERLEAVED instead
    demands that consecutive entries' bands do not overlap:
    ``upper(pp) <= lower(bp)``, ``upper(bp) <= lower(np)``, and the
    same along the nn/bn/pn chain.  Violations come in chain order.
    """

    left_side, right_side = _SIDES[mode]
    violations = []
    # links pp-bp, bp-np, nn-bn, bn-pn
    for i in (0, 1, 3, 4):
        lhs = getattr(entries[i], left_side)
        rhs = getattr(entries[i + 1], right_side)
        if lhs > rhs:
            constraint = (
                f"{_LABELS[left_side]}({ENTRY_NAMES[i]}) <= "
                f"{_LABELS[right_side]}({ENTRY_NAMES[i + 1]})"
            )
            violations.append(OrderingViolation(constraint, t, lhs, rhs))
    return violations
