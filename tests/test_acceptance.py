"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line
(visible with ``pytest -s``).  Tolerances are 1e-12 for the closed-form
regressions and containment properties, and exact equality for the
region-equivalence and partition oracles, which run on rationals.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

from threeway import (
    FuzzyElement,
    FuzzyLoss,
    LossMatrix,
    Region,
    RunConfig,
    band_extremes,
    classify,
    conditional_probability,
    cut_set,
    evaluate_entry,
    evaluate_matrix,
    load_dataset,
    min_risk_region,
    parse,
    partition,
    point_thresholds,
    run_sweep,
)
from threeway.cli import main

import helpers
from helpers import (
    FUZZY_NUMBER_CUT,
    FUZZY_NUMBER_ETA,
    FUZZY_NUMBER_STRONG_CUT,
    INTERVAL_DEMO_PAIRS,
    INTERVAL_OPT_ALPHA,
    INTERVAL_OPT_BETA,
    INTERVAL_PES_ALPHA,
    INTERVAL_PES_BETA,
    NORMAL_ALPHA_HI,
    NORMAL_ALPHA_LO,
    NORMAL_BETA_HI,
    NORMAL_BETA_LO,
    TOL,
    UNIFORM_ALPHA,
    UNIFORM_BETA,
    const_expr,
    fuzzy_demo_matrix,
    fuzzy_number_elements,
    interval_config,
    interval_demo_matrix,
    interval_matrix_const,
    matrix_thresholds,
    normal_demo_matrix,
    normal_matrix,
    point_config,
    random_interval_bounds,
    random_normal_pairs,
    random_scalar_chain,
    uniform_config,
    uniform_demo_matrix,
    write_run_files,
)

from test_rough import make_system, pairwise_blocks


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_uniform_closed_form_regression():
    with criterion("uniform family reproduces its closed-form thresholds"):
        matrix = uniform_demo_matrix()
        alpha = parse(UNIFORM_ALPHA)
        beta = parse(UNIFORM_BETA)
        for t in (0.0, 1.0, 2.0, 5.0, 10.0):
            pair = matrix_thresholds(matrix, t)
            assert abs(pair.alpha - alpha(t)) <= TOL, (t, pair)
            assert abs(pair.beta - beta(t)) <= TOL, (t, pair)


def test_interval_closed_form_regression():
    with criterion("interval family reproduces optimistic/pessimistic forms"):
        matrix = interval_demo_matrix()
        forms = {
            "optimistic": (parse(INTERVAL_OPT_ALPHA), parse(INTERVAL_OPT_BETA)),
            "pessimistic": (parse(INTERVAL_PES_ALPHA), parse(INTERVAL_PES_BETA)),
        }
        for mode, (alpha, beta) in forms.items():
            for t in (0.0, 1.0, 2.0, 5.0, 10.0):
                pair = matrix_thresholds(matrix, t, mode)
                assert abs(pair.alpha - alpha(t)) <= TOL, (mode, t, pair)
                assert abs(pair.beta - beta(t)) <= TOL, (mode, t, pair)


def test_fuzzy_reduction_regression():
    with criterion("fuzzy cuts collapse to the interval matrix and thresholds"):
        fuzzy = fuzzy_demo_matrix()
        interval = interval_demo_matrix()
        for t in (1.0, 2.0, 5.0):
            for (_, fuzzy_spec), (_, interval_spec) in zip(
                fuzzy.entries, interval.entries
            ):
                got = evaluate_entry(fuzzy_spec, t)
                want = evaluate_entry(interval_spec, t)
                assert abs(got.lo - want.lo) <= TOL, (t, got, want)
                assert abs(got.hi - want.hi) <= TOL, (t, got, want)
            for mode, alpha, beta in (
                ("optimistic", INTERVAL_OPT_ALPHA, INTERVAL_OPT_BETA),
                ("pessimistic", INTERVAL_PES_ALPHA, INTERVAL_PES_BETA),
            ):
                pair = matrix_thresholds(fuzzy, t, mode)
                assert abs(pair.alpha - parse(alpha)(t)) <= TOL, (mode, t, pair)
                assert abs(pair.beta - parse(beta)(t)) <= TOL, (mode, t, pair)

        # standalone fuzzy number: cut and strong cut, exact membership
        elements = fuzzy_number_elements()
        eta = parse(FUZZY_NUMBER_ETA)
        for t in (1.0, 2.0, 5.0):
            cut = cut_set(elements, eta(t), False, t)
            strong = cut_set(elements, eta(t), True, t)
            assert cut == {parse(v)(t) for v in FUZZY_NUMBER_CUT}, (t, cut)
            assert strong == {parse(v)(t) for v in FUZZY_NUMBER_STRONG_CUT}, (
                t,
                strong,
            )


def test_normal_band_regression():
    with criterion("normal band envelope matches its closed forms pre-clamp"):
        matrix = normal_demo_matrix()
        forms = (
            parse(NORMAL_ALPHA_LO),
            parse(NORMAL_ALPHA_HI),
            parse(NORMAL_BETA_LO),
            parse(NORMAL_BETA_HI),
        )
        for t in (1.0, 2.0, 5.0):
            raw = band_extremes(evaluate_matrix(matrix, t))
            for got, form in zip(raw, forms):
                assert abs(got - form(t)) <= TOL, (t, raw)


def test_risk_rule_equivalence():
    with criterion("threshold regions equal minimum-risk regions exactly"):
        rng = random.Random(90210)
        probes = [Fraction(k, 100) for k in range(101)]
        usable = 0
        attempts = 0
        while usable < 200:
            attempts += 1
            assert attempts < 4000, "generator starved"
            losses = [Fraction(v) for v in random_scalar_chain(rng)]
            pair = point_thresholds(*losses)
            if pair.beta > pair.alpha:
                continue    # regions undefined at crossover points
            usable += 1
            for p in probes + [pair.alpha, pair.beta]:
                assert min_risk_region(p, *losses) == classify(
                    p, pair.alpha, pair.beta
                ), (losses, p)


def _fuzzy_twin(bounds) -> LossMatrix:
    """A fuzzy matrix whose cut hulls equal the given interval bounds.

    Each entry carries both endpoints at full membership, an interior
    point, and a far decoy below the cut level.
    """

    specs = []
    for lo, hi in bounds:
        elements = [
            FuzzyElement(const_expr(lo), const_expr(1.0)),
            FuzzyElement(const_expr((lo + hi) / 2), const_expr(1.0)),
            FuzzyElement(const_expr(hi), const_expr(1.0)),
            FuzzyElement(const_expr(hi + 50.0), const_expr(0.2)),
        ]
        specs.append(FuzzyLoss(elements, const_expr(0.5)))
    return LossMatrix(**dict(zip(helpers.ENTRY_ORDER, specs)))


def test_selection_containment():
    with criterion("interior loss selections stay inside the threshold bands"):
        rng = random.Random(61803)
        for _ in range(50):
            bounds = random_interval_bounds(rng)
            interval_band = matrix_thresholds(
                interval_matrix_const(bounds), 0.0, "band"
            )
            fuzzy_band = matrix_thresholds(_fuzzy_twin(bounds), 0.0, "band")
            assert fuzzy_band == interval_band, (bounds,)
            for _ in range(1000):
                picks = [rng.uniform(lo, hi) for lo, hi in bounds]
                pair = point_thresholds(*picks)
                for band in (interval_band, fuzzy_band):
                    assert band.alpha_lo - TOL <= pair.alpha <= band.alpha_hi + TOL
                    assert band.beta_lo - TOL <= pair.beta <= band.beta_hi + TOL


def test_normal_containment():
    with criterion("edge-based normal thresholds stay inside the clamped band"):
        rng = random.Random(2718)
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            matrix = normal_matrix(random_normal_pairs(rng, n), n=n)
            for t in (1.0, 2.0, 5.0):
                band = matrix_thresholds(matrix, t, "band")
                entries = evaluate_matrix(matrix, t)
                for side in ("lo", "hi"):
                    pair = point_thresholds(*(getattr(e, side) for e in entries))
                    assert band.alpha_lo - TOL <= pair.alpha <= band.alpha_hi + TOL
                    assert band.beta_lo - TOL <= pair.beta <= band.beta_hi + TOL


def test_partition_oracle_and_region_cover(tmp_path):
    with criterion("partitions match the pairwise oracle; regions cover U"):
        rng = random.Random(31337)
        for _ in range(500):
            n_attrs = rng.randint(1, 3)
            attrs = [f"a{i}" for i in range(n_attrs)]
            rows = []
            for i in range(rng.randint(1, 10)):
                values = [rng.choice("xyzw") for _ in attrs]
                rows.append((f"o{i}", *values, rng.choice(["yes", "no"])))
            system = make_system(rows, attributes=attrs)
            chosen = attrs[: rng.randint(1, n_attrs)]
            blocks = partition(system, chosen)
            assert set(blocks.blocks) == pairwise_blocks(system, chosen)
            concept = system.concept
            for block in blocks.blocks:
                want = Fraction(sum(obj in concept for obj in block), len(block))
                assert conditional_probability(concept, block) == want

        # every sweep assigns each object to exactly one region at every
        # non-degenerate time point
        dataset = tmp_path / "data.csv"
        dataset.write_text(helpers.dataset_csv(), encoding="utf-8")
        system = load_dataset(str(dataset), "approved", "yes")
        sweeps = (
            uniform_config(),
            interval_config("optimistic"),
            interval_config("pessimistic"),
            point_config(["0", "6", "13", "0", "8", "20"]),
        )
        checked = 0
        for data in sweeps:
            for row in run_sweep(RunConfig.from_dict(data), system=system):
                if row.status != "ok":
                    continue
                ids = [a.object_id for a in row.assignments]
                assert sorted(ids) == sorted(system.objects)
                assert all(a.region in Region for a in row.assignments)
                checked += 1
        assert checked > 0


def test_output_determinism(tmp_path):
    with criterion("repeated runs write byte-identical output files"):
        config_path = write_run_files(str(tmp_path), uniform_config())
        for sub in ("first", "second"):
            code = main(
                ["run", "--config", config_path, "--out", str(tmp_path / sub)]
            )
            assert code == 0
        for name in ("thresholds.csv", "regions.csv", "summary.txt"):
            first = (tmp_path / "first" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second, name
