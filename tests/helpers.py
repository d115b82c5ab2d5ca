"""Shared matrices, configs, and generators for the test suite."""

from __future__ import annotations

import json
import os
import random

from threeway import (
    Const,
    FuzzyElement,
    FuzzyLoss,
    IntervalLoss,
    LossMatrix,
    NormalBandLoss,
    PointLoss,
    RunConfig,
    TimeExpr,
    TimeGrid,
    UniformLoss,
    parse,
    thresholds_at,
)

TOL = 1e-12

ENTRY_ORDER = ("pp", "bp", "np_", "nn", "bn", "pn")


def const_expr(value: float) -> TimeExpr:
    return TimeExpr(Const(float(value)))


def _matrix(specs) -> LossMatrix:
    return LossMatrix(**dict(zip(ENTRY_ORDER, specs)))


def point_matrix(*values) -> LossMatrix:
    return _matrix([PointLoss(parse(str(v))) for v in values])


def uniform_matrix(*pairs) -> LossMatrix:
    return _matrix([UniformLoss(parse(a), parse(b)) for a, b in pairs])


def interval_matrix(*pairs) -> LossMatrix:
    return _matrix([IntervalLoss(parse(str(lo)), parse(str(hi))) for lo, hi in pairs])


def interval_matrix_const(bounds) -> LossMatrix:
    return _matrix(
        [IntervalLoss(const_expr(lo), const_expr(hi)) for lo, hi in bounds]
    )


def normal_matrix(pairs, n: int) -> LossMatrix:
    return _matrix([NormalBandLoss(parse(mu), parse(sigma), n) for mu, sigma in pairs])


def fuzzy_matrix(entry_elements, eta: str, strong: bool = False) -> LossMatrix:
    eta_expr = parse(eta)
    specs = []
    for elements in entry_elements:
        specs.append(
            FuzzyLoss(
                [FuzzyElement(parse(v), parse(m)) for v, m in elements],
                eta_expr,
                strong,
            )
        )
    return _matrix(specs)


FAMILY_OF = {
    PointLoss: "point",
    UniformLoss: "uniform",
    NormalBandLoss: "normal",
    IntervalLoss: "interval",
    FuzzyLoss: "fuzzy",
}


def matrix_config(matrix: LossMatrix, mode: str | None = None) -> RunConfig:
    """A run config around a matrix built in code; its dataset is never read."""

    return RunConfig(
        dataset_path="unused.csv",
        condition_attrs=("shade",),
        decision_attr="approved",
        positive_value="yes",
        family=FAMILY_OF[matrix.family],
        matrix=matrix,
        mode=mode,
        time_grid=TimeGrid(0, 0, 1),
        strict_ordering=False,
    )


def matrix_thresholds(matrix: LossMatrix, t: float, mode: str | None = None):
    """The thresholds ``thresholds_at`` reports for a matrix built in code."""

    result, _ = thresholds_at(matrix_config(matrix, mode), t)
    return result


# ---------------------------------------------------------------------------
# The worked example used throughout the suite: a uniform matrix whose
# thresholds have the closed forms below.

UNIFORM_DEMO_PAIRS = (
    ("0", "0"),
    ("2*t+2", "4*t+4"),
    ("3*t+6", "5*t+12"),
    ("0", "0"),
    ("t+2", "3*t+10"),
    ("2*t+14", "4*t+20"),
)
UNIFORM_ALPHA = "(t+11)/(4*t+14)"
UNIFORM_BETA = "(2*t+6)/(3*t+12)"


def uniform_demo_matrix() -> LossMatrix:
    return uniform_matrix(*UNIFORM_DEMO_PAIRS)


# Interval companion example, with optimistic/pessimistic closed forms.

INTERVAL_DEMO_PAIRS = (
    ("t", "2*t+2"),
    ("2*t+3", "2*t+5"),
    ("3*t+6", "3*t+8"),
    ("2*t", "2*t+2"),
    ("3*t+2", "3*t+6"),
    ("4*t+8", "4*t+10"),
)
INTERVAL_OPT_ALPHA = "(t+6)/(2*t+9)"
INTERVAL_OPT_BETA = "(t+2)/(2*t+5)"
INTERVAL_PES_ALPHA = "(t+4)/(t+7)"
INTERVAL_PES_BETA = "(t+4)/(2*t+7)"


def interval_demo_matrix() -> LossMatrix:
    return interval_matrix(*INTERVAL_DEMO_PAIRS)


# Normal companion example: shared spread n*sigma = (t+2)/2, band envelopes
# with the closed forms below (the upper two before clamping to [0, 1]).

NORMAL_DEMO_PAIRS = (
    ("(3*t+2)/2", "(t+2)/2"),
    ("(5*t+8)/2", "(t+2)/2"),
    ("(7*t+14)/2", "(t+2)/2"),
    ("(3*t+2)/2", "(t+2)/2"),
    ("(5*t+8)/2", "(t+2)/2"),
    ("(7*t+18)/2", "(t+2)/2"),
)
NORMAL_ALPHA_LO = "3/(4*t+12)"
NORMAL_ALPHA_HI = "(2*t+7)/4"
NORMAL_BETA_LO = "1/(4*t+10)"
NORMAL_BETA_HI = "(2*t+5)/2"


def normal_demo_matrix() -> LossMatrix:
    return normal_matrix(NORMAL_DEMO_PAIRS, n=1)


# Fuzzy companion example: nine-element discrete fuzzy numbers whose cut at
# eta = 1-1/(3*t) collapses each entry to the interval demo pair.

FUZZY_ETA = "1-1/(3*t)"

_M_HIGH = "1-1/(3*t)"   # highest membership tier, survives the cut
_M_MID = "1-1/(2*t)"
_M_LOW = "1-1/t"

FUZZY_DEMO_ELEMENTS = (
    # pp -> cut hull [t, 2*t+2]
    (
        ("t", _M_HIGH), ("t+1", _M_HIGH), ("2*t+2", _M_HIGH),
        ("3*t+3", _M_LOW), ("5*t+3", _M_MID), ("4*t+6", _M_MID),
        ("4*t+8", _M_MID), ("4*t+9", _M_LOW), ("4*t+10", _M_LOW),
    ),
    # bp -> [2*t+3, 2*t+5]
    (
        ("2*t+3", _M_HIGH), ("2*t+4", _M_HIGH), ("2*t+5", _M_HIGH),
        ("3*t+6", _M_LOW), ("3*t+7", _M_MID), ("4*t+6", _M_MID),
        ("4*t+8", _M_MID), ("4*t+9", _M_LOW), ("4*t+10", _M_LOW),
    ),
    # np -> [3*t+6, 3*t+8]
    (
        ("3*t+6", _M_HIGH), ("3*t+7", _M_HIGH), ("3*t+8", _M_HIGH),
        ("4*t+9", _M_LOW), ("5*t+9", _M_MID), ("4*t+10", _M_MID),
        ("4*t+11", _M_MID), ("4*t+12", _M_LOW), ("5*t+10", _M_LOW),
    ),
    # nn -> [2*t, 2*t+2]
    (
        ("2*t", _M_HIGH), ("2*t+1", _M_HIGH), ("2*t+2", _M_HIGH),
        ("3*t+3", _M_LOW), ("5*t+3", _M_MID), ("4*t+6", _M_MID),
        ("4*t+8", _M_MID), ("4*t+9", _M_LOW), ("4*t+10", _M_LOW),
    ),
    # bn -> [3*t+2, 3*t+6]
    (
        ("3*t+2", _M_HIGH), ("3*t+4", _M_HIGH), ("3*t+6", _M_HIGH),
        ("4*t+6", _M_LOW), ("5*t+6", _M_MID), ("4*t+7", _M_MID),
        ("4*t+8", _M_MID), ("4*t+9", _M_LOW), ("4*t+10", _M_LOW),
    ),
    # pn -> [4*t+8, 4*t+10]
    (
        ("4*t+8", _M_HIGH), ("4*t+9", _M_HIGH), ("4*t+10", _M_HIGH),
        ("4*t+11", _M_LOW), ("4*t+12", _M_MID), ("4*t+13", _M_MID),
        ("5*t+11", _M_MID), ("4*t+15", _M_LOW), ("5*t+10", _M_LOW),
    ),
)


def fuzzy_demo_matrix(strong: bool = False) -> LossMatrix:
    return fuzzy_matrix(FUZZY_DEMO_ELEMENTS, FUZZY_ETA, strong)


# A standalone discrete fuzzy number with value collisions at small t; its
# cut at eta = 1-1/(2*t) and the strong variant have the closed element
# lists below.

FUZZY_NUMBER_ELEMENTS = (
    ("t+1", "1-1/t"),
    ("2*t+1", "1-1/(2*t)"),
    ("t+3", "1-1/t"),
    ("4*t+1", "1-1/(2*t)"),
    ("2*t-1", "1-1/(2*t+1)"),
    ("4*t-1", "1-1/(2*t)"),
    ("4*t^2+1", "1-1/t"),
    ("2*t^2+1", "1-1/(2*t+1)"),
    ("4*t^2+2*t-1", "1-1/t"),
)
FUZZY_NUMBER_ETA = "1-1/(2*t)"
FUZZY_NUMBER_CUT = ("2*t+1", "4*t+1", "4*t-1", "2*t-1", "2*t^2+1")
FUZZY_NUMBER_STRONG_CUT = ("2*t-1", "2*t^2+1")


def fuzzy_number_elements() -> list[FuzzyElement]:
    return [FuzzyElement(parse(v), parse(m)) for v, m in FUZZY_NUMBER_ELEMENTS]


# ---------------------------------------------------------------------------
# Dataset and config builders for sweep/CLI tests.

DATASET_BLOCKS = (("a", 4, 3), ("b", 4, 2), ("c", 2, 0), ("d", 2, 2), ("e", 5, 3))


def dataset_csv() -> str:
    lines = ["id,shade,approved"]
    i = 0
    for shade, size, positives in DATASET_BLOCKS:
        for k in range(size):
            i += 1
            lines.append(f"o{i},{shade},{'yes' if k < positives else 'no'}")
    return "\n".join(lines) + "\n"


def base_config() -> dict:
    return {
        "dataset_path": "data.csv",
        "condition_attrs": ["shade"],
        "decision_attr": "approved",
        "positive_value": "yes",
        "time_grid": {"start": 0, "stop": 10, "step": 1},
        "strict_ordering": False,
    }


def point_config(values) -> dict:
    config = base_config()
    names = ("pp", "bp", "np", "nn", "bn", "pn")
    config["loss_family"] = "point"
    config["loss_matrix"] = {
        name: {"point": {"value": str(v)}} for name, v in zip(names, values)
    }
    return config


def uniform_config() -> dict:
    config = base_config()
    names = ("pp", "bp", "np", "nn", "bn", "pn")
    config["loss_family"] = "uniform"
    config["loss_matrix"] = {
        name: {"uniform": {"a": a, "b": b}}
        for name, (a, b) in zip(names, UNIFORM_DEMO_PAIRS)
    }
    return config


def interval_config(mode: str) -> dict:
    config = base_config()
    names = ("pp", "bp", "np", "nn", "bn", "pn")
    config["loss_family"] = "interval"
    config["mode"] = mode
    config["loss_matrix"] = {
        name: {"interval": {"lo": lo, "hi": hi}}
        for name, (lo, hi) in zip(names, INTERVAL_DEMO_PAIRS)
    }
    return config


def normal_config(mode: str) -> dict:
    config = base_config()
    names = ("pp", "bp", "np", "nn", "bn", "pn")
    config["loss_family"] = "normal"
    config["mode"] = mode
    config["n"] = 1
    config["loss_matrix"] = {
        name: {"normal": {"mu": mu, "sigma": sigma}}
        for name, (mu, sigma) in zip(names, NORMAL_DEMO_PAIRS)
    }
    return config


def fuzzy_config(mode: str) -> dict:
    config = base_config()
    config["time_grid"] = {"start": 1, "stop": 5, "step": 1}
    names = ("pp", "bp", "np", "nn", "bn", "pn")
    config["loss_family"] = "fuzzy"
    config["mode"] = mode
    config["eta"] = FUZZY_ETA
    config["loss_matrix"] = {
        name: {
            "fuzzy": {
                "elements": [
                    {"value": v, "membership": m} for v, m in elements
                ]
            }
        }
        for name, elements in zip(names, FUZZY_DEMO_ELEMENTS)
    }
    return config


def write_run_files(directory, config: dict) -> str:
    """Write config.json plus the demo dataset; return the config path."""

    dataset_path = os.path.join(directory, "data.csv")
    with open(dataset_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dataset_csv())
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(config, handle, indent=2)
    return config_path


# ---------------------------------------------------------------------------
# Random generators (seeded by callers).

def random_scalar_chain(rng: random.Random) -> tuple[int, int, int, int, int, int]:
    """Strictly increasing integer chains pp < bp < np and nn < bn < pn."""

    pp = rng.randint(0, 5)
    bp = pp + rng.randint(1, 6)
    np_ = bp + rng.randint(1, 6)
    nn = rng.randint(0, 5)
    bn = nn + rng.randint(1, 6)
    pn = bn + rng.randint(1, 6)
    return pp, bp, np_, nn, bn, pn


def random_interval_bounds(rng: random.Random):
    """Six (lo, hi) pairs, strictly interleaved along both chains."""

    def chain():
        edges = []
        x = rng.uniform(0.0, 2.0)
        for _ in range(6):
            edges.append(x)
            x += rng.uniform(0.3, 3.0)
        return [(edges[0], edges[1]), (edges[2], edges[3]), (edges[4], edges[5])]

    p_chain = chain()
    n_chain = chain()
    return (p_chain[0], p_chain[1], p_chain[2], n_chain[0], n_chain[1], n_chain[2])


def random_normal_pairs(rng: random.Random, n: int):
    """Six (mu, sigma) expression pairs valid for every t >= 0.

    Means are increasing linear functions with gaps of at least 2 along
    each chain; spreads are constants small enough that the shifted
    chains stay ordered and every band stays positive.
    """

    def mu_chain():
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(0.0, 2.0)
        out = []
        for _ in range(3):
            out.append(f"{a!r}+{b!r}*t")
            a += rng.uniform(2.0, 5.0)
            b += rng.uniform(0.0, 2.0)
        return out

    def sigma() -> str:
        return repr(rng.uniform(0.0, 0.45 / n))

    p_mu = mu_chain()
    n_mu = mu_chain()
    mus = (p_mu[0], p_mu[1], p_mu[2], n_mu[0], n_mu[1], n_mu[2])
    return [(mu, sigma()) for mu in mus]
