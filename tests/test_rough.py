"""Information systems, indiscernibility partitions, and region assignment."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threeway import (
    DegenerateThresholdsError,
    InformationSystem,
    Region,
    classify,
    conditional_probability,
    partition,
)


def make_system(rows, attributes=("color", "size"), decision="approved"):
    """rows: list of (object_id, values..., decision_value)."""

    objects = [r[0] for r in rows]
    data = [tuple(r[1:]) for r in rows]
    return InformationSystem(
        objects=objects,
        attributes=list(attributes) + [decision],
        rows=data,
        decision_attr=decision,
        positive_value="yes",
    )


def pairwise_blocks(system: InformationSystem, attrs) -> set[frozenset[str]]:
    """Brute-force oracle: group objects by pairwise agreement on attrs."""

    idx = [system.attributes.index(a) for a in attrs]
    row_of = dict(zip(system.objects, system.rows))
    blocks: list[set[str]] = []
    for obj in system.objects:
        for block in blocks:
            other = next(iter(block))
            if all(row_of[obj][j] == row_of[other][j] for j in idx):
                block.add(obj)
                break
        else:
            blocks.append({obj})
    return {frozenset(b) for b in blocks}


SYSTEM = make_system(
    [
        ("o1", "red", "small", "yes"),
        ("o2", "red", "small", "no"),
        ("o3", "red", "large", "yes"),
        ("o4", "blue", "large", "no"),
        ("o5", "blue", "large", "no"),
        ("o6", "red", "small", "yes"),
    ]
)


def test_partition_single_attribute():
    blocks = partition(SYSTEM, ["color"]).blocks
    assert blocks == (
        frozenset({"o1", "o2", "o3", "o6"}),
        frozenset({"o4", "o5"}),
    )


def test_partition_two_attributes():
    blocks = partition(SYSTEM, ["color", "size"]).blocks
    assert set(blocks) == {
        frozenset({"o1", "o2", "o6"}),
        frozenset({"o3"}),
        frozenset({"o4", "o5"}),
    }


def test_partition_blocks_in_first_seen_order():
    blocks = partition(SYSTEM, ["size"]).blocks
    assert blocks[0] == frozenset({"o1", "o2", "o6"})
    assert blocks[1] == frozenset({"o3", "o4", "o5"})


def test_partition_rejects_bad_attrs():
    with pytest.raises(ValueError):
        partition(SYSTEM, [])
    with pytest.raises(ValueError):
        partition(SYSTEM, ["weight"])


def test_partition_matches_pairwise_oracle_on_random_tables():
    rng = random.Random(2025)
    for _ in range(60):
        n_attrs = rng.randint(1, 3)
        attrs = [f"a{i}" for i in range(n_attrs)]
        rows = []
        for i in range(rng.randint(1, 10)):
            values = [rng.choice("xyz") for _ in attrs]
            rows.append((f"o{i}", *values, rng.choice(["yes", "no"])))
        system = make_system(rows, attributes=attrs)
        chosen = attrs[: rng.randint(1, n_attrs)]
        assert set(partition(system, chosen).blocks) == pairwise_blocks(
            system, chosen
        )


def test_concept_collects_positive_objects():
    assert SYSTEM.concept == frozenset({"o1", "o3", "o6"})


def test_conditional_probability_counts():
    block = frozenset({"o1", "o2", "o6"})
    assert conditional_probability(SYSTEM.concept, block) == pytest.approx(2 / 3)
    assert conditional_probability(SYSTEM.concept, frozenset({"o4"})) == 0


def test_conditional_probability_matches_exact_ratio():
    block = frozenset({"o1", "o2", "o6"})
    p = conditional_probability(SYSTEM.concept, block)
    assert p == Fraction(2, 3)


def test_conditional_probability_rejects_empty_block():
    with pytest.raises(ValueError):
        conditional_probability(SYSTEM.concept, frozenset())


def test_system_validation():
    with pytest.raises(ValueError, match="duplicate object"):
        make_system([("o1", "r", "s", "yes"), ("o1", "r", "s", "no")])
    with pytest.raises(ValueError, match="o2"):
        # ragged row is named by its object
        InformationSystem(
            objects=["o1", "o2"],
            attributes=["color", "approved"],
            rows=[("red", "yes"), ("blue",)],
            decision_attr="approved",
            positive_value="yes",
        )
    with pytest.raises(ValueError, match="decision"):
        InformationSystem(
            objects=["o1"],
            attributes=["color"],
            rows=[("red",)],
            decision_attr="approved",
            positive_value="yes",
        )


def test_value_lookup():
    row = dict(zip(SYSTEM.objects, SYSTEM.rows))["o3"]
    assert row[SYSTEM.attribute_index("size")] == "large"
    with pytest.raises(ValueError, match="weight"):
        SYSTEM.attribute_index("weight")


@pytest.mark.parametrize(
    "p,alpha,beta,region",
    [
        (0.9, 0.7, 0.3, Region.POS),
        (0.7, 0.7, 0.3, Region.POS),     # p == alpha accepts
        (0.5, 0.7, 0.3, Region.BND),
        (0.3, 0.7, 0.3, Region.NEG),     # p == beta rejects
        (0.1, 0.7, 0.3, Region.NEG),
        (0.5, 0.5, 0.5, Region.POS),     # acceptance wins on a full tie
        (0.0, 0.5, 0.0, Region.NEG),
        (1.0, 1.0, 0.0, Region.POS),
    ],
)
def test_classify_boundaries(p, alpha, beta, region):
    assert classify(p, alpha, beta) == region


def test_classify_accepts_fractions():
    assert classify(Fraction(2, 3), Fraction(2, 3), Fraction(8, 15)) == Region.POS
    assert classify(Fraction(8, 15), Fraction(2, 3), Fraction(8, 15)) == Region.NEG
    assert classify(Fraction(3, 5), Fraction(2, 3), Fraction(8, 15)) == Region.BND


def test_classify_rejects_degenerate_thresholds():
    with pytest.raises(DegenerateThresholdsError):
        classify(0.5, 0.3, 0.7)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_classify_assigns_exactly_one_region(p, x, y):
    beta, alpha = sorted([x, y])
    region = classify(p, alpha, beta)
    memberships = [
        p >= alpha,
        beta < p < alpha,
        p <= beta,
    ]
    assert region in (Region.POS, Region.BND, Region.NEG)
    # the chosen region is consistent with its defining inequality
    if region == Region.POS:
        assert memberships[0]
    elif region == Region.BND:
        assert memberships[1]
    else:
        assert memberships[2]


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_raising_alpha_never_creates_acceptance(p, x, y, z):
    beta, alpha1, alpha2 = sorted([x, y, z])
    if classify(p, alpha2, beta) == Region.POS:
        assert classify(p, alpha1, beta) == Region.POS
