"""Seeded synthetic workloads for the threeway benchmark.

Each workload builds a config (the JSON a user would write), a CSV
dataset, and a ``Model``: the same loss matrix kept as exact rational
functions of ``t``, which the oracle evaluates with ``fractions.Fraction``.
Every expression written into the config comes from an ``Expr`` whose
text and exact value are produced together, so the oracle never parses
the config and never imports threeway.

Sizes (objects, blocks, grid points, elements per entry) are the same
for every seed; the seed only draws values.  Nothing is redrawn: ties
between a block probability and a threshold are left in and counted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ENTRY_NAMES = ("pp", "bp", "np", "nn", "bn", "pn")


def dec(value: Fraction) -> str:
    """Exact decimal text of a Fraction whose denominator is 2^a * 5^b."""

    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    digits = 0
    while (value * 10**digits).denominator != 1:
        digits += 1
        if digits > 30:
            raise ValueError(f"{value} has no finite decimal expansion")
    scaled = str((value * 10**digits).numerator).rjust(digits + 1, "0")
    if digits == 0:
        return sign + scaled
    return f"{sign}{scaled[:-digits]}.{scaled[-digits:]}"


@dataclass(frozen=True)
class Expr:
    """A t-expression: the text the program parses and its exact value."""

    kind: str  # "lin": c0 + c1*t, "cut": 1 - 1/(c0*t)
    c0: Fraction
    c1: Fraction = Fraction(0)

    @property
    def text(self) -> str:
        if self.kind == "lin":
            return f"{dec(self.c0)}+{dec(self.c1)}*t"
        return f"1-1/({dec(self.c0)}*t)"

    def __call__(self, t: Fraction) -> Fraction:
        if self.kind == "lin":
            return self.c0 + self.c1 * t
        return 1 - 1 / (self.c0 * t)


def lin(c0, c1=0) -> Expr:
    return Expr("lin", Fraction(c0), Fraction(c1))


@dataclass(frozen=True)
class Grid:
    start: str
    stop: str
    step: str

    def points(self) -> list[Fraction]:
        """Exact grid points start + k*step; stop is a whole number of steps."""

        start, stop, step = Fraction(self.start), Fraction(self.stop), Fraction(self.step)
        span = (stop - start) / step
        if span.denominator != 1:
            raise ValueError("benchmark grids end on a whole number of steps")
        return [start + k * step for k in range(int(span) + 1)]


@dataclass(frozen=True)
class Model:
    """Exact description of one generated run, for the oracle.

    ``entries[name]`` holds the payload expressions of one loss entry:
    ``(a, b)`` for uniform, ``(lo, hi)`` for interval, and a tuple of
    ``(value, membership)`` pairs for fuzzy.
    """

    family: str
    mode: str | None
    entries: dict
    eta: Expr | None
    grid: Grid
    objects: tuple[str, ...]
    block_of: tuple[int, ...]  # index into ``probabilities`` per object
    probabilities: tuple[Fraction, ...]  # in first-seen block order


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    csv_text: str
    model: Model

    @property
    def sizes(self) -> dict:
        return {
            "objects": len(self.model.objects),
            "blocks": len(self.model.probabilities),
            "grid_points": len(self.model.grid.points()),
        }


def _dataset(rng: random.Random, n_blocks: int, mean_size: int, spread: int):
    """Objects in shuffled order, grouped into exactly ``n_blocks`` blocks.

    Every block starts at ``mean_size``; pairs of blocks then trade up to
    ``spread`` objects, so the total and the block count never change.
    Each block gets a uniformly drawn number of positive objects.
    """

    sizes = [mean_size] * n_blocks
    for j in range(0, n_blocks - 1, 2):
        d = rng.randint(0, spread)
        sizes[j] += d
        sizes[j + 1] -= d
    members = []
    for block, size in enumerate(sizes):
        positives = rng.randint(0, size)
        members.extend((block, k < positives) for k in range(size))
    rng.shuffle(members)

    width = len(str(n_blocks))
    lines = ["id,g1,g2,label"]
    objects, first_seen, block_of, counts = [], {}, [], {}
    for i, (block, positive) in enumerate(members, start=1):
        obj = f"o{i}"
        objects.append(obj)
        lines.append(
            f"{obj},a{block // 50:0{width}d},b{block % 50:02d},{'yes' if positive else 'no'}"
        )
        index = first_seen.setdefault(block, len(first_seen))
        block_of.append(index)
        pos, total = counts.get(index, (0, 0))
        counts[index] = (pos + positive, total + 1)
    probabilities = tuple(Fraction(*counts[i]) for i in range(len(first_seen)))
    return "\n".join(lines) + "\n", tuple(objects), tuple(block_of), probabilities


def _config(family, mode, matrix, grid: Grid, extra=None) -> dict:
    config = {
        "dataset_path": "data.csv",
        "condition_attrs": ["g1", "g2"],
        "decision_attr": "label",
        "positive_value": "yes",
        "loss_family": family,
        "loss_matrix": matrix,
        "time_grid": {
            "start": float(grid.start),
            "stop": float(grid.stop),
            "step": float(grid.step),
        },
    }
    if mode is not None:
        config["mode"] = mode
    config.update(extra or {})
    return config


def rows(seed: int, scale: float = 1.0) -> Workload:
    """Uniform demo matrix, tens of large blocks, grid 0..3 step 0.01.

    alpha = (t+11)/(4t+14) and beta = (2t+6)/(3t+12) cross near
    t = 2.476, so the last 53 of 301 points are degenerate; the other 248
    each write one row per object.
    """

    rng = random.Random(f"rows-{seed}")
    size = max(2, round(50 * scale))
    csv_text, objects, block_of, probs = _dataset(rng, 30, size, size * 3 // 5)
    pairs = ((0, 0, 0, 0), (2, 2, 4, 4), (6, 3, 12, 5), (0, 0, 0, 0), (2, 1, 10, 3), (14, 2, 20, 4))
    entries = {name: (lin(a0, a1), lin(b0, b1)) for name, (a0, a1, b0, b1) in zip(ENTRY_NAMES, pairs)}
    grid = Grid("0", "3", "0.01")
    matrix = {
        name: {"uniform": {"a": a.text, "b": b.text}} for name, (a, b) in entries.items()
    }
    model = Model("uniform", None, entries, None, grid, objects, block_of, probs)
    return Workload("rows", _config("uniform", None, matrix, grid), csv_text, model)


def _tenths(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), 10)


def blocks(seed: int, scale: float = 1.0) -> Workload:
    """Interval ``optimistic``, thousands of small blocks, grid 0..0.5 step 0.1.

    Lower endpoints are built as pp <= bp <= np and nn <= bn <= pn with
    differences A = pn-bn >= C = bn-nn > 0 and D = np-bp >= B = bp-pp > 0,
    so beta <= alpha at every t and no point is degenerate.  Coefficients
    are tenths, so alpha and beta have small denominators and often equal
    a block probability exactly.
    """

    rng = random.Random(f"blocks-{seed}")
    csv_text, objects, block_of, probs = _dataset(rng, max(2, round(3000 * scale)), 10, 8)

    def positive() -> Expr:
        return lin(_tenths(rng, 1, 20), _tenths(rng, 0, 10))

    def plus(a: Expr, b: Expr) -> Expr:
        return lin(a.c0 + b.c0, a.c1 + b.c1)

    pp, nn = lin(_tenths(rng, 0, 5), _tenths(rng, 0, 5)), lin(_tenths(rng, 0, 5), 0)
    gap_b, gap_c = positive(), positive()
    bp, bn = plus(pp, gap_b), plus(nn, gap_c)
    np_ = plus(bp, plus(gap_b, lin(_tenths(rng, 1, 10), 0)))
    pn = plus(bn, plus(gap_c, lin(_tenths(rng, 1, 10), 0)))
    entries = {}
    for name, low in zip(ENTRY_NAMES, (pp, bp, np_, nn, bn, pn)):
        entries[name] = (low, plus(low, lin(_tenths(rng, 0, 30), _tenths(rng, 0, 10))))
    grid = Grid("0", "0.5", "0.1")
    matrix = {
        name: {"interval": {"lo": lo.text, "hi": hi.text}} for name, (lo, hi) in entries.items()
    }
    model = Model("interval", "optimistic", entries, None, grid, objects, block_of, probs)
    return Workload("blocks", _config("interval", "optimistic", matrix, grid), csv_text, model)


def bands(seed: int, scale: float = 1.0) -> Workload:
    """Fuzzy ``band`` mode, nine elements per entry, grid 1..11 step 0.01.

    Each chain's six hull edges are increasing linear functions of t, so
    the interleaved ordering holds with a margin everywhere.  Three
    elements per entry carry membership 1 or the eta expression itself
    (identical text, so identical floats) and span the hull; six more
    carry memberships 1-1/(k*t) with k below eta's constant, strictly
    under the cut for every t >= 1, so they are evaluated and dropped.
    """

    rng = random.Random(f"bands-{seed}")
    csv_text, objects, block_of, probs = _dataset(rng, 4, 5, 4)
    k_eta = rng.randint(3, 5)
    eta = Expr("cut", Fraction(k_eta))

    def chain():
        c0, c1 = _tenths(rng, 0, 20), _tenths(rng, 0, 10)
        edges = []
        for _ in range(6):
            edges.append(lin(c0, c1))
            c0 += _tenths(rng, 5, 30)
            c1 += _tenths(rng, 0, 10)
        return [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]

    hulls = chain() + chain()
    entries = {}
    for name, (lo, hi) in zip(ENTRY_NAMES, hulls):
        middle = lin((lo.c0 + hi.c0) / 2, (lo.c1 + hi.c1) / 2)
        kept = [lo, middle, hi]
        elements = [(value, eta if rng.random() < 0.5 else lin(1)) for value in kept]
        for _ in range(6):
            value = lin(_tenths(rng, 0, 80), _tenths(rng, 0, 40))
            elements.append((value, Expr("cut", Fraction(rng.randint(1, k_eta - 1)))))
        rng.shuffle(elements)
        entries[name] = tuple(elements)
    steps = max(1, round(1000 * scale))
    grid = Grid("1", dec(1 + Fraction(steps, 100)), "0.01")
    matrix = {
        name: {
            "fuzzy": {
                "elements": [{"value": v.text, "membership": m.text} for v, m in elements]
            }
        }
        for name, elements in entries.items()
    }
    model = Model("fuzzy", "band", entries, eta, grid, objects, block_of, probs)
    config = _config("fuzzy", "band", matrix, grid, {"eta": eta.text})
    return Workload("bands", config, csv_text, model)


WORKLOADS = {"rows": rows, "bands": bands, "blocks": blocks}
