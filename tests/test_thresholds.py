"""Threshold computation for every loss family."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threeway import (
    BandPair,
    ConfigError,
    DegenerateMatrixError,
    OrderingViolationError,
    PointPair,
    RunConfig,
    ThresholdError,
    band_extremes,
    evaluate_matrix,
    parse,
    point_thresholds,
)

from helpers import (
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
    fuzzy_demo_matrix,
    interval_demo_matrix,
    interval_matrix,
    interval_config,
    interval_matrix_const,
    matrix_thresholds,
    normal_demo_matrix,
    normal_matrix,
    random_interval_bounds,
    random_normal_pairs,
    random_scalar_chain,
    uniform_config,
    uniform_demo_matrix,
    uniform_matrix,
)


def _edge_thresholds(matrix, t: float, side: str) -> PointPair:
    """Point thresholds from every entry's lower (or upper) edge at ``t``."""

    return point_thresholds(*(getattr(e, side) for e in evaluate_matrix(matrix, t)))


def test_point_thresholds_worked_example():
    pair = point_thresholds(0, 6, 13, 0, 8, 20)
    assert pair.alpha == pytest.approx(2 / 3, abs=TOL)
    assert pair.beta == pytest.approx(8 / 15, abs=TOL)


def test_point_thresholds_symmetric_matrix():
    assert point_thresholds(0, 1, 2, 0, 1, 2) == PointPair(0.5, 0.5)


def test_point_thresholds_exact_with_fractions():
    pair = point_thresholds(
        Fraction(0), Fraction(6), Fraction(13), Fraction(0), Fraction(8), Fraction(20)
    )
    assert pair == PointPair(Fraction(2, 3), Fraction(8, 15))


def _bisect(g, lo: float = 0.0, hi: float = 1.0) -> float:
    glo = g(lo)
    assert glo > 0 > g(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_point_thresholds_match_risk_crossings():
    """alpha equates accept/defer risk, beta equates defer/reject risk."""

    rng = random.Random(7041)
    for _ in range(100):
        pp, bp, np_, nn, bn, pn = random_scalar_chain(rng)
        pair = point_thresholds(pp, bp, np_, nn, bn, pn)

        def accept_minus_defer(p):
            return (pp * p + pn * (1 - p)) - (bp * p + bn * (1 - p))

        def defer_minus_reject(p):
            return (bp * p + bn * (1 - p)) - (np_ * p + nn * (1 - p))

        assert pair.alpha == pytest.approx(_bisect(accept_minus_defer), abs=1e-9)
        assert pair.beta == pytest.approx(_bisect(defer_minus_reject), abs=1e-9)


def test_point_thresholds_zero_denominators():
    with pytest.raises(DegenerateMatrixError, match="alpha"):
        point_thresholds(1, 1, 2, 0, 1, 1)
    with pytest.raises(DegenerateMatrixError, match="beta"):
        point_thresholds(0, 2, 2, 1, 1, 3)
    with pytest.raises(DegenerateMatrixError):
        point_thresholds(1, 1, 1, 1, 1, 1)


def test_point_thresholds_near_zero_denominator_counts_as_zero():
    with pytest.raises(DegenerateMatrixError):
        point_thresholds(0.0, 2e-13, 1.0, 0.0, 0.0, 2e-13)


def test_point_thresholds_out_of_range_is_an_error():
    with pytest.raises(ThresholdError, match="outside"):
        point_thresholds(6, 1, 20, 0, 1, 11)


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.5, 2.0, 3.0, 7.0, 100.0]),
)
def test_point_thresholds_scale_invariant(pp, dbp, dnp, nn, dbn, dpn, c):
    losses = (pp, pp + dbp, pp + dbp + dnp, nn, nn + dbn, nn + dbn + dpn)
    base = point_thresholds(*losses)
    scaled = point_thresholds(*(c * v for v in losses))
    assert scaled.alpha == pytest.approx(base.alpha, abs=TOL)
    assert scaled.beta == pytest.approx(base.beta, abs=TOL)


def test_uniform_demo_closed_forms():
    matrix = uniform_demo_matrix()
    alpha = parse(UNIFORM_ALPHA)
    beta = parse(UNIFORM_BETA)
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        pair = matrix_thresholds(matrix, t)
        assert pair.alpha == pytest.approx(alpha(t), abs=TOL)
        assert pair.beta == pytest.approx(beta(t), abs=TOL)


def test_uniform_demo_goes_degenerate_for_large_t():
    pair = matrix_thresholds(uniform_demo_matrix(), 5.0)
    assert pair.beta > pair.alpha   # reported, not raised


def test_uniform_equals_point_on_collapsed_entries():
    values = ("0", "3", "7", "1", "4", "9")
    collapsed = uniform_matrix(*((v, v) for v in values))
    pair = matrix_thresholds(collapsed, 2.0)
    point = point_thresholds(*(float(v) for v in values))
    assert pair == point


def test_uniform_requires_both_endpoint_chains():
    bad = uniform_matrix(
        ("0", "9"),     # upper endpoint overtakes bp's upper endpoint
        ("1", "2"),
        ("3", "4"),
        ("0", "1"),
        ("2", "3"),
        ("4", "5"),
    )
    with pytest.raises(OrderingViolationError) as err:
        matrix_thresholds(bad, 0.0)
    assert "upper(pp) <= upper(bp)" in str(err.value)


def test_uniform_rejects_other_families():
    config = uniform_config()
    config["loss_matrix"]["bn"] = {"interval": {"lo": "1", "hi": "2"}}
    with pytest.raises(ConfigError, match="variant 'interval' but loss_family"):
        RunConfig.from_dict(config)


def test_normal_band_extremes_closed_forms():
    matrix = normal_demo_matrix()
    forms = [
        parse(NORMAL_ALPHA_LO),
        parse(NORMAL_ALPHA_HI),
        parse(NORMAL_BETA_LO),
        parse(NORMAL_BETA_HI),
    ]
    for t in (1.0, 2.0, 5.0):
        raw = band_extremes(evaluate_matrix(matrix, t))
        for got, form in zip(raw, forms):
            assert got == pytest.approx(form(t), abs=TOL)


def test_normal_band_thresholds_clamp_to_unit_interval():
    band = matrix_thresholds(normal_demo_matrix(), 1.0, "band")
    assert band == BandPair(0.1875, 1.0, 1 / 14, 1.0)


def test_normal_special_thresholds():
    matrix = normal_demo_matrix()
    assert _edge_thresholds(matrix, 1.0, "lo") == PointPair(0.6, 0.5)
    assert _edge_thresholds(matrix, 1.0, "hi") == PointPair(0.6, 0.5)


def test_normal_zero_spread_collapses_to_point_thresholds():
    mus = ("2.5", "6.5", "10.5", "2.5", "6.5", "12.5")
    matrix = normal_matrix([(mu, "0") for mu in mus], n=1)
    band = matrix_thresholds(matrix, 1.0, "band")
    point = point_thresholds(*(float(mu) for mu in mus))
    assert band == BandPair(point.alpha, point.alpha, point.beta, point.beta)
    assert _edge_thresholds(matrix, 1.0, "lo") == point
    assert _edge_thresholds(matrix, 1.0, "hi") == point


def test_normal_specials_lie_inside_clamped_band():
    rng = random.Random(440)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        matrix = normal_matrix(random_normal_pairs(rng, n), n=n)
        for t in (1.0, 2.0, 5.0):
            band = matrix_thresholds(matrix, t, "band")
            for side in ("lo", "hi"):
                pair = _edge_thresholds(matrix, t, side)
                assert band.alpha_lo - TOL <= pair.alpha <= band.alpha_hi + TOL
                assert band.beta_lo - TOL <= pair.beta <= band.beta_hi + TOL


def test_interval_closed_forms():
    matrix = interval_demo_matrix()
    forms = {
        "optimistic": (parse(INTERVAL_OPT_ALPHA), parse(INTERVAL_OPT_BETA)),
        "pessimistic": (parse(INTERVAL_PES_ALPHA), parse(INTERVAL_PES_BETA)),
    }
    for mode, (alpha, beta) in forms.items():
        for t in (0.0, 1.0, 2.0, 5.0, 10.0):
            pair = matrix_thresholds(matrix, t, mode)
            assert pair.alpha == pytest.approx(alpha(t), abs=TOL)
            assert pair.beta == pytest.approx(beta(t), abs=TOL)


def test_interval_band_at_unit_time():
    band = matrix_thresholds(interval_demo_matrix(), 1.0, "band")
    assert band == BandPair(0.2, 1.0, 1 / 13, 1.0)


def test_interval_band_contains_one_sided_pairs():
    matrix = interval_demo_matrix()
    for t in (0.0, 1.0, 3.0, 8.0):
        band = matrix_thresholds(matrix, t, "band")
        for mode in ("optimistic", "pessimistic"):
            pair = matrix_thresholds(matrix, t, mode)
            assert band.alpha_lo - TOL <= pair.alpha <= band.alpha_hi + TOL
            assert band.beta_lo - TOL <= pair.beta <= band.beta_hi + TOL


def test_interval_band_contains_interior_selections():
    rng = random.Random(96)
    for _ in range(10):
        bounds = random_interval_bounds(rng)
        matrix = interval_matrix_const(bounds)
        band = matrix_thresholds(matrix, 0.0, "band")
        for _ in range(200):
            picks = [rng.uniform(lo, hi) for lo, hi in bounds]
            pair = point_thresholds(*picks)
            assert band.alpha_lo - TOL <= pair.alpha <= band.alpha_hi + TOL
            assert band.beta_lo - TOL <= pair.beta <= band.beta_hi + TOL


def test_interval_modes_are_validated():
    with pytest.raises(ConfigError, match="mode"):
        RunConfig.from_dict(interval_config("middle"))


def test_interval_band_requires_interleaved_chains():
    overlapping = interval_matrix(
        ("0", "5"),
        ("4", "6"),
        ("7", "8"),
        ("0", "1"),
        ("2", "3"),
        ("4", "5"),
    )
    with pytest.raises(OrderingViolationError):
        matrix_thresholds(overlapping, 0.0, "band")


def test_interval_one_sided_ordering_checks():
    bad_lower = interval_matrix(
        ("6", "7"),     # lower chain broken, upper chain fine
        ("1", "8"),
        ("3", "9"),
        ("0", "1"),
        ("2", "3"),
        ("4", "5"),
    )
    with pytest.raises(OrderingViolationError):
        matrix_thresholds(bad_lower, 0.0, "optimistic")
    pair = matrix_thresholds(bad_lower, 0.0, "pessimistic")
    assert 0 <= pair.beta and pair.alpha <= 1


def test_fuzzy_matches_interval_after_cut():
    fuzzy = fuzzy_demo_matrix()
    interval = interval_demo_matrix()
    for t in (1.0, 2.0, 5.0):
        for mode in ("optimistic", "pessimistic"):
            assert matrix_thresholds(fuzzy, t, mode) == matrix_thresholds(
                interval, t, mode
            )
        assert matrix_thresholds(fuzzy, t, "band") == matrix_thresholds(
            interval, t, "band"
        )


def test_fuzzy_band_at_unit_time():
    assert matrix_thresholds(fuzzy_demo_matrix(), 1.0, "band") == BandPair(
        0.2, 1.0, 1 / 13, 1.0
    )


def test_band_pair_validation():
    with pytest.raises(ThresholdError, match="outside"):
        BandPair(-0.1, 0.5, 0.1, 0.2)
    with pytest.raises(ThresholdError, match="inverted"):
        BandPair(0.6, 0.5, 0.1, 0.2)


def test_point_pair_allows_crossover():
    pair = PointPair(0.4, 0.6)
    assert pair.beta > pair.alpha
