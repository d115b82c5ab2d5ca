"""Acceptance and rejection thresholds from six evaluated loss entries.

For scalar losses the two cut points of the minimum-expected-risk rule
have closed forms:

    alpha = (pn - bn) / ((pn - bn) + (bp - pp))
    beta  = (bn - nn) / ((bn - nn) + (np - bp))

An object is accepted when its concept probability reaches ``alpha``
and rejected when it does not exceed ``beta``.  Every family reduces to
this scalar case through ``RULES``, which names for each (family, mode)
pair the ordering chains that must hold and the representative taken
from each entry's ``(lo, central, hi)`` record:

* point and uniform entries use their central value (a uniform entry's
  midpoint), and a uniform matrix must order both endpoint chains;
* normal entries use their mean (``central``), or a four-formula
  envelope over their mu -/+ n*sigma bands (``band``);
* interval and fuzzy entries (a fuzzy entry's interval is its cut hull)
  use every lower endpoint (``optimistic``), every upper endpoint
  (``pessimistic``), or the envelope (``band``), which brackets the
  thresholds of every pointwise selection from the six intervals when
  they satisfy the interleaved ordering.

Nothing here clamps a scalar threshold: if a computed value escapes
[0, 1] the input orderings were violated and an error is raised.  Band
envelopes are clamped to [0, 1], matching how they are defined.

All arithmetic is plain ``+ - * /`` on whatever real type the inputs
carry, so ``fractions.Fraction`` inputs yield exact results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .losses import Entry, OrderingMode, OrderingViolation

__all__ = [
    "BandPair",
    "DEGENERATE_TOL",
    "DegenerateMatrixError",
    "OrderingViolationError",
    "PointPair",
    "RULES",
    "ThresholdError",
    "ThresholdResult",
    "band_extremes",
    "band_thresholds",
    "point_thresholds",
]

# (family, mode) -> (the ordering chains that must hold, in the order they
# are checked; the Entry field fed to point_thresholds, or "band" for the
# envelope).  The keys are exactly the valid families and modes of a run.
RULES = {
    ("point", None): ((OrderingMode.CENTRAL,), "central"),
    ("uniform", None): ((OrderingMode.LOWER, OrderingMode.UPPER), "central"),
    ("normal", "central"): ((OrderingMode.CENTRAL,), "central"),
    ("normal", "band"): ((OrderingMode.CENTRAL,), "band"),
    ("interval", "optimistic"): ((OrderingMode.LOWER,), "lo"),
    ("interval", "pessimistic"): ((OrderingMode.UPPER,), "hi"),
    ("interval", "band"): ((OrderingMode.INTERLEAVED,), "band"),
    ("fuzzy", "optimistic"): ((OrderingMode.LOWER,), "lo"),
    ("fuzzy", "pessimistic"): ((OrderingMode.UPPER,), "hi"),
    ("fuzzy", "band"): ((OrderingMode.INTERLEAVED,), "band"),
}

DEGENERATE_TOL = 1e-12


class ThresholdError(ValueError):
    """Raised when thresholds cannot be computed from the given losses."""


class DegenerateMatrixError(ThresholdError):
    """Raised when a threshold denominator vanishes (or goes negative)."""


class OrderingViolationError(ThresholdError):
    """Raised when a required loss-ordering chain fails.

    Carries the first failing link as ``violation``.
    """

    def __init__(self, violation: OrderingViolation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class PointPair:
    """A single (alpha, beta) threshold pair.

    ``beta <= alpha`` is deliberately not required: the crossover case
    is meaningful and must be reported by callers, not hidden here.
    """

    alpha: float
    beta: float


@dataclass(frozen=True)
class BandPair:
    """Envelopes [alpha_lo, alpha_hi] and [beta_lo, beta_hi]."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float

    def __post_init__(self) -> None:
        for name, value in (
            ("alpha_lo", self.alpha_lo),
            ("alpha_hi", self.alpha_hi),
            ("beta_lo", self.beta_lo),
            ("beta_hi", self.beta_hi),
        ):
            if not 0 <= value <= 1:
                raise ThresholdError(f"{name} is {value!r}, outside [0, 1]")
        if self.alpha_lo > self.alpha_hi:
            raise ThresholdError(
                f"alpha envelope inverted: {self.alpha_lo!r} > {self.alpha_hi!r}"
            )
        if self.beta_lo > self.beta_hi:
            raise ThresholdError(
                f"beta envelope inverted: {self.beta_lo!r} > {self.beta_hi!r}"
            )


ThresholdResult = Union[PointPair, BandPair]


def _ratio(num, den, what: str):
    if den < DEGENERATE_TOL:
        raise DegenerateMatrixError(
            f"{what} denominator is {den!r}; must be positive"
        )
    return num / den


def point_thresholds(pp, bp, np_, nn, bn, pn) -> PointPair:
    """Thresholds for six scalar losses.

    Requires the usual ordering chains (pp <= bp <= np and
    nn <= bn <= pn, all non-negative); violations surface either as a
    non-positive denominator or as a threshold escaping [0, 1], both of
    which raise.  Denominators smaller than ``DEGENERATE_TOL`` count as
    zero.
    """

    alpha = _ratio((pn - bn), (pn - bn) + (bp - pp), "alpha")
    beta = _ratio((bn - nn), (bn - nn) + (np_ - bp), "beta")
    if not 0 <= alpha <= 1:
        raise ThresholdError(
            f"alpha is {alpha!r}, outside [0, 1]; loss orderings are violated"
        )
    if not 0 <= beta <= 1:
        raise ThresholdError(
            f"beta is {beta!r}, outside [0, 1]; loss orderings are violated"
        )
    return PointPair(alpha, beta)


def band_extremes(entries: Sequence[Entry]) -> tuple[float, float, float, float]:
    """The four envelope ratios (alpha_lo, alpha_hi, beta_lo, beta_hi)
    from six entries' (lo, hi) bounds, before clamping to [0, 1].

    The upper ratios can legitimately exceed 1 and the lower ones can
    go negative; :func:`band_thresholds` applies the clamping.
    """

    pp, bp, np_, nn, bn, pn = entries
    alpha_lo = _ratio(
        pn.lo - bn.hi, (pn.hi - bn.lo) + (bp.hi - pp.lo), "alpha envelope lower"
    )
    alpha_hi = _ratio(
        pn.hi - bn.lo, (pn.lo - bn.hi) + (bp.lo - pp.hi), "alpha envelope upper"
    )
    beta_lo = _ratio(
        bn.lo - nn.hi, (bn.hi - nn.lo) + (np_.hi - bp.lo), "beta envelope lower"
    )
    beta_hi = _ratio(
        bn.hi - nn.lo, (bn.lo - nn.hi) + (np_.lo - bp.hi), "beta envelope upper"
    )
    return alpha_lo, alpha_hi, beta_lo, beta_hi


def band_thresholds(entries: Sequence[Entry]) -> BandPair:
    """Threshold envelope from six entries' bounds, clamped to [0, 1].

    All four envelope denominators must be positive.
    """

    alpha_lo, alpha_hi, beta_lo, beta_hi = band_extremes(entries)
    pair = (
        max(alpha_lo, 0.0),
        min(alpha_hi, 1.0),
        max(beta_lo, 0.0),
        min(beta_hi, 1.0),
    )
    if pair[0] > pair[1] or pair[2] > pair[3]:
        raise ThresholdError(
            f"threshold envelope collapsed after clamping: {pair!r}; "
            "loss orderings are violated"
        )
    return BandPair(*pair)
