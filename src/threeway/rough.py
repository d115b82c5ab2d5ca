"""Information systems, indiscernibility partitions, and three-way regions.

An information system is a finite table: rows are objects, columns are
attributes, and every cell holds an opaque string value.  A designated
decision attribute together with a positive value picks out the target
concept (the subset of objects to be approximated).  Grouping objects
that agree on a chosen set of condition attributes yields the
indiscernibility partition; each block's overlap with the concept gives
the membership probability used by :func:`classify`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Sequence

__all__ = [
    "DegenerateThresholdsError",
    "InformationSystem",
    "Partition",
    "Region",
    "RegionAssignment",
    "classify",
    "conditional_probability",
    "partition",
]


class Region(enum.Enum):
    POS = "POS"
    BND = "BND"
    NEG = "NEG"


class DegenerateThresholdsError(ValueError):
    """Raised when classification is attempted with beta > alpha."""


@dataclass(frozen=True)
class InformationSystem:
    """A finite attribute-value table with a designated concept.

    ``rows[i][j]`` is the value of ``attributes[j]`` on ``objects[i]``.
    The table must be total: every object has a value for every
    attribute.  Object ids must be unique.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    decision_attr: str
    positive_value: str

    def __init__(
        self,
        objects: Sequence[str],
        attributes: Sequence[str],
        rows: Sequence[Sequence[str]],
        decision_attr: str,
        positive_value: str,
    ):
        object.__setattr__(self, "objects", tuple(objects))
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        object.__setattr__(self, "decision_attr", decision_attr)
        object.__setattr__(self, "positive_value", positive_value)
        if len(set(self.objects)) != len(self.objects):
            seen: set[str] = set()
            for obj in self.objects:
                if obj in seen:
                    raise ValueError(f"duplicate object id {obj!r}")
                seen.add(obj)
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        if len(self.rows) != len(self.objects):
            raise ValueError(
                f"expected {len(self.objects)} rows, got {len(self.rows)}"
            )
        width = len(self.attributes)
        for obj, row in zip(self.objects, self.rows):
            if len(row) != width:
                raise ValueError(
                    f"row for {obj!r} has {len(row)} values, expected {width}"
                )
        if self.decision_attr not in self.attributes:
            raise ValueError(f"missing decision attribute {self.decision_attr!r}")

    def attribute_index(self, attr: str) -> int:
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise ValueError(f"unknown attribute {attr!r}") from None

    @property
    def concept(self) -> frozenset[str]:
        """Objects whose decision value equals the positive value."""
        j = self.attribute_index(self.decision_attr)
        return frozenset(
            obj for obj, row in zip(self.objects, self.rows) if row[j] == self.positive_value
        )


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering all objects, in first-seen order."""

    blocks: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class RegionAssignment:
    object_id: str
    probability: float
    region: Region


def partition(system: InformationSystem, condition_attrs: Sequence[str]) -> Partition:
    """Group objects that agree on every attribute in ``condition_attrs``."""

    attrs = tuple(condition_attrs)
    if not attrs:
        raise ValueError("condition_attrs must be non-empty")
    indices = [system.attribute_index(a) for a in attrs]
    groups: dict[tuple[str, ...], list[str]] = {}
    for obj, row in zip(system.objects, system.rows):
        key = tuple(row[i] for i in indices)
        groups.setdefault(key, []).append(obj)
    return Partition(tuple(frozenset(members) for members in groups.values()))


def conditional_probability(
    concept: AbstractSet[str], block: AbstractSet[str]
) -> Fraction:
    """Share of ``block`` that lies inside ``concept``, as an exact ratio."""

    if not block:
        raise ValueError("block must be non-empty")
    return Fraction(len(concept & block), len(block))


def classify(p: float, alpha: float, beta: float) -> Region:
    """Three-way region for membership probability ``p``.

    POS when ``p >= alpha``, NEG when ``p <= beta``, BND in between.
    Ties favor POS over NEG over BND, so ``alpha == beta == p`` is POS.
    Works with any real type that supports comparison (float,
    Fraction).
    """

    if beta > alpha:
        raise DegenerateThresholdsError(
            f"beta ({beta!r}) exceeds alpha ({alpha!r}); regions are undefined"
        )
    if p >= alpha:
        return Region.POS
    if p <= beta:
        return Region.NEG
    return Region.BND
