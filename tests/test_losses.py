"""Loss families: evaluation, cuts, bands, and ordering validation."""

from __future__ import annotations

import pytest

from threeway import (
    Entry,
    FuzzyElement,
    FuzzyLoss,
    IntervalLoss,
    LossMatrix,
    LossModelError,
    NormalBandLoss,
    OrderingMode,
    PointLoss,
    UniformLoss,
    cut_set,
    evaluate_entry,
    evaluate_matrix,
    parse,
    validate_ordering,
)

from helpers import (
    FUZZY_NUMBER_CUT,
    FUZZY_NUMBER_STRONG_CUT,
    fuzzy_demo_matrix,
    fuzzy_number_elements,
    interval_matrix,
    interval_demo_matrix,
    normal_demo_matrix,
    point_matrix,
    uniform_demo_matrix,
)


def _violations(matrix, t, mode):
    return validate_ordering(evaluate_matrix(matrix, t), t, mode)


def test_point_evaluates_to_scalar():
    value = evaluate_entry(PointLoss(parse("2*t+1")), 3.0)
    assert value == Entry(7.0, 7.0, 7.0)


def test_point_rejects_negative_value():
    with pytest.raises(LossModelError):
        evaluate_entry(PointLoss(parse("t-5")), 0.0)


def test_uniform_evaluates_to_midpoint():
    spec = UniformLoss(parse("2*t+2"), parse("4*t+4"))
    assert evaluate_entry(spec, 1.0) == Entry(4.0, 6.0, 8.0)
    # degenerate a == b collapses to the point value
    flat = UniformLoss(parse("3"), parse("3"))
    assert evaluate_entry(flat, 9.0) == Entry(3.0, 3.0, 3.0)


def test_uniform_rejects_inverted_or_negative_endpoints():
    with pytest.raises(LossModelError, match="inverted"):
        evaluate_entry(UniformLoss(parse("2"), parse("t")), 1.0)
    with pytest.raises(LossModelError, match="non-negative"):
        evaluate_entry(UniformLoss(parse("t-9"), parse("t")), 1.0)


def test_normal_band_endpoints():
    spec = NormalBandLoss(parse("(3*t+2)/2"), parse("(t+2)/2"), n=1)
    assert evaluate_entry(spec, 1.0) == Entry(1.0, 2.5, 4.0)
    wide = NormalBandLoss(parse("10"), parse("2"), n=3)
    assert evaluate_entry(wide, 0.0) == Entry(4.0, 10.0, 16.0)


def test_normal_band_width_scales_with_n():
    for n in (1, 2, 3):
        spec = NormalBandLoss(parse("10"), parse("1"), n=n)
        band = evaluate_entry(spec, 0.0)
        assert band.hi - band.lo == pytest.approx(2 * n)


def test_normal_band_rejects_bad_shapes():
    with pytest.raises(ValueError, match="n must be"):
        NormalBandLoss(parse("1"), parse("1"), n=4)
    with pytest.raises(LossModelError, match="sigma"):
        evaluate_entry(NormalBandLoss(parse("5"), parse("0-1"), n=1), 0.0)
    with pytest.raises(LossModelError, match="below zero"):
        evaluate_entry(NormalBandLoss(parse("1"), parse("1"), n=2), 0.0)


def test_interval_band_and_errors():
    spec = IntervalLoss(parse("t"), parse("2*t+2"))
    assert evaluate_entry(spec, 2.0) == Entry(2.0, 4.0, 6.0)
    with pytest.raises(LossModelError, match="inverted"):
        evaluate_entry(IntervalLoss(parse("2"), parse("t")), 1.0)
    with pytest.raises(LossModelError, match="non-negative"):
        evaluate_entry(IntervalLoss(parse("t-9"), parse("t")), 1.0)


def test_fuzzy_cut_hull_matches_closed_form():
    elements = fuzzy_number_elements()
    spec = FuzzyLoss(elements, parse("1-1/(2*t)"))
    for t in (1.0, 2.0, 5.0):
        expected = {parse(v)(t) for v in FUZZY_NUMBER_CUT}
        entry = evaluate_entry(spec, t)
        assert (entry.lo, entry.hi) == (min(expected), max(expected))


def test_fuzzy_cut_and_strong_cut_membership():
    elements = fuzzy_number_elements()
    for t in (1.0, 2.0, 5.0):
        eta = parse("1-1/(2*t)")(t)
        cut = cut_set(elements, eta, False, t)
        strong = cut_set(elements, eta, True, t)
        assert cut == {parse(v)(t) for v in FUZZY_NUMBER_CUT}
        assert strong == {parse(v)(t) for v in FUZZY_NUMBER_STRONG_CUT}
        assert strong <= cut


def test_cut_set_keeps_max_membership_on_value_collision():
    elements = [
        FuzzyElement(parse("2"), parse("0.2")),
        FuzzyElement(parse("2"), parse("0.9")),
        FuzzyElement(parse("5"), parse("0.4")),
    ]
    assert cut_set(elements, 0.5, False, 0.0) == {2.0}
    # strong comparison at the max membership excludes the value
    assert cut_set(elements, 0.9, True, 0.0) == frozenset()


def test_cut_set_validates_levels_and_memberships():
    elements = [FuzzyElement(parse("1"), parse("2"))]
    with pytest.raises(LossModelError, match="cut level"):
        cut_set(elements, 1.5, False, 0.0)
    with pytest.raises(LossModelError, match="membership"):
        cut_set(elements, 0.5, False, 0.0)


def test_fuzzy_empty_cut_is_an_error():
    spec = FuzzyLoss([FuzzyElement(parse("3"), parse("0.1"))], parse("0.5"))
    with pytest.raises(LossModelError, match="empty cut"):
        evaluate_entry(spec, 1.0)


def test_fuzzy_eta_outside_unit_interval_is_an_error():
    spec = FuzzyLoss([FuzzyElement(parse("3"), parse("1"))], parse("2"))
    with pytest.raises(LossModelError, match="cut level"):
        evaluate_entry(spec, 1.0)


def test_fuzzy_strong_cut_of_demo_matrix_is_empty():
    # every element at the top membership tier sits exactly at eta
    matrix = fuzzy_demo_matrix(strong=True)
    with pytest.raises(LossModelError, match="empty cut"):
        evaluate_entry(matrix.pp, 1.0)


def test_fuzzy_loss_requires_elements():
    with pytest.raises(ValueError, match="at least one"):
        FuzzyLoss([], parse("0.5"))


def test_matrix_rejects_mixed_families():
    with pytest.raises(ValueError, match="mixed"):
        LossMatrix(
            pp=PointLoss(parse("0")),
            bp=PointLoss(parse("1")),
            np_=PointLoss(parse("2")),
            nn=PointLoss(parse("0")),
            bn=UniformLoss(parse("1"), parse("2")),
            pn=PointLoss(parse("3")),
        )


def test_matrix_entries_order_and_family():
    matrix = uniform_demo_matrix()
    assert [name for name, _ in matrix.entries] == [
        "pp", "bp", "np", "nn", "bn", "pn",
    ]
    assert matrix.family is UniformLoss


def test_band_and_scalar_invariants():
    with pytest.raises(LossModelError):
        evaluate_entry(PointLoss(parse("-0.5")), 0.0)
    with pytest.raises(LossModelError):
        evaluate_entry(IntervalLoss(parse("-1"), parse("2")), 0.0)
    with pytest.raises(LossModelError):
        evaluate_entry(IntervalLoss(parse("3"), parse("2")), 0.0)


def test_bounds_at_repeats_scalars():
    assert evaluate_entry(PointLoss(parse("4")), 0.0) == Entry(4.0, 4.0, 4.0)
    entry = evaluate_entry(IntervalLoss(parse("1"), parse("3")), 0.0)
    assert (entry.lo, entry.hi) == (1.0, 3.0)


def test_central_at_uses_band_midpoint():
    assert evaluate_entry(IntervalLoss(parse("1"), parse("3")), 0.0).central == 2.0


def test_ordering_ok_for_demo_matrices():
    t = 1.0
    assert _violations(uniform_demo_matrix(), t, OrderingMode.LOWER) == []
    assert _violations(uniform_demo_matrix(), t, OrderingMode.UPPER) == []
    assert _violations(normal_demo_matrix(), t, OrderingMode.CENTRAL) == []
    assert _violations(interval_demo_matrix(), t, OrderingMode.INTERLEAVED) == []


def test_ordering_violation_names_constraint():
    swapped = interval_matrix(
        ("3*t+6", "3*t+8"),   # pp and np exchanged
        ("2*t+3", "2*t+5"),
        ("t", "2*t+2"),
        ("2*t", "2*t+2"),
        ("3*t+2", "3*t+6"),
        ("4*t+8", "4*t+10"),
    )
    violations = _violations(swapped, 1.0, OrderingMode.LOWER)
    assert violations
    first = violations[0]
    assert first.constraint == "lower(pp) <= lower(bp)"
    assert first.lhs == 9.0
    assert first.rhs == 5.0
    assert "fails at t=" in str(first)


def test_interleaved_rejects_overlapping_bands():
    overlapping = interval_matrix(
        ("0", "5"),
        ("4", "6"),
        ("7", "8"),
        ("0", "1"),
        ("2", "3"),
        ("4", "5"),
    )
    violations = _violations(overlapping, 0.0, OrderingMode.INTERLEAVED)
    assert [v.constraint for v in violations] == ["upper(pp) <= lower(bp)"]
    assert violations[0].lhs == 5.0
    assert violations[0].rhs == 4.0


def test_central_ordering_violation_on_point_matrix():
    matrix = point_matrix("t", "1", "5", "0", "1", "5")
    assert _violations(matrix, 1.0, OrderingMode.CENTRAL) == []
    violations = _violations(matrix, 2.0, OrderingMode.CENTRAL)
    assert violations[0].constraint == "central(pp) <= central(bp)"
