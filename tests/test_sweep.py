"""Dataset loading, the time sweep, and output files."""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction

import pytest

import threeway.sweep as sweep
from threeway import (
    BandPair,
    DatasetError,
    PointPair,
    Region,
    RegionAssignment,
    RunConfig,
    StrictSweepError,
    check_ordering,
    classify,
    conditional_probability,
    emit_outputs,
    load_dataset,
    parse,
    run_sweep,
    thresholds_at,
)

from helpers import (
    TOL,
    UNIFORM_ALPHA,
    UNIFORM_BETA,
    dataset_csv,
    interval_config,
    point_config,
    uniform_config,
    write_run_files,
)


@pytest.fixture()
def demo_system(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(dataset_csv(), encoding="utf-8")
    return load_dataset(str(path), "approved", "yes")


def _config(data: dict) -> RunConfig:
    return RunConfig.from_dict(data)


def test_load_dataset_happy_path(demo_system):
    assert len(demo_system.objects) == 17
    assert demo_system.objects[0] == "o1"
    assert demo_system.attributes == ("shade", "approved")
    assert demo_system.rows[0] == ("a", "yes")
    assert len(demo_system.concept) == 10


def _load_text(tmp_path, text: str):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return load_dataset(str(path), "approved", "yes")


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "missing header"),
        ("id\no1\n", "at least one attribute"),
        ("id,,approved\no1,x,yes\n", "empty attribute name"),
        ("id,shade,shade\no1,x,y\n", "duplicate attribute names"),
        ("id,shade\no1,x\n", "decision attribute 'approved' not found"),
        ("id,shade,approved\no1,x\n", "row 2 has 2 fields, expected 3"),
        ("id,shade,approved\no1,x,yes\no1,y,no\n", "duplicate object id"),
        ("id,shade,approved\no 1,x,yes\n", "not limited to"),
        ("id,shade,approved\n", "no objects"),
    ],
)
def test_load_dataset_errors(tmp_path, text, match):
    with pytest.raises(DatasetError, match=match):
        _load_text(tmp_path, text)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset(str(tmp_path / "nope.csv"), "approved", "yes")


def test_uniform_sweep_statuses_and_thresholds(demo_system):
    rows = run_sweep(_config(uniform_config()), system=demo_system)
    assert [row.t for row in rows] == [float(k) for k in range(11)]
    assert [row.status for row in rows] == ["ok"] * 3 + ["degenerate"] * 8

    alpha = parse(UNIFORM_ALPHA)
    beta = parse(UNIFORM_BETA)
    for row in rows:
        assert isinstance(row.thresholds, PointPair)
        assert row.thresholds.alpha == pytest.approx(alpha(row.t), abs=TOL)
        assert row.thresholds.beta == pytest.approx(beta(row.t), abs=TOL)
    # degenerate rows keep thresholds but assign nothing
    assert rows[3].assignments == ()


def test_uniform_sweep_assignments_at_unit_time(demo_system):
    rows = run_sweep(_config(uniform_config()), system=demo_system)
    row = rows[1]
    assert len(row.assignments) == 17
    assert row.assignments[0] == RegionAssignment("o1", 0.75, Region.POS)
    assert row.assignments[-1] == RegionAssignment("o17", 0.6, Region.BND)
    assert row.assignments[:2] == (row.assignments[0], row.assignments[1])

    by_region = {region: 0 for region in Region}
    for assignment in row.assignments:
        by_region[assignment.region] += 1
    assert by_region == {Region.POS: 6, Region.BND: 5, Region.NEG: 6}

    # objects come out in dataset order
    assert [a.object_id for a in row.assignments] == [
        f"o{i}" for i in range(1, 18)
    ]


def test_sweep_regions_partition_every_object(demo_system):
    for data in (uniform_config(), point_config(["0", "6", "13", "0", "8", "20"])):
        for row in run_sweep(_config(data), system=demo_system):
            if row.status == "ok" and row.assignments:
                assert len(row.assignments) == len(demo_system.objects)
                assert {a.object_id for a in row.assignments} == set(
                    demo_system.objects
                )


def test_degenerate_point_matrix_is_reported_not_raised(demo_system):
    config = _config(point_config(["0", "10", "10.5", "0", "5", "6"]))
    rows = run_sweep(config, system=demo_system)
    assert all(row.status == "degenerate" for row in rows)
    pair = rows[0].thresholds
    assert pair.alpha == pytest.approx(1 / 11, abs=TOL)
    assert pair.beta == pytest.approx(10 / 11, abs=TOL)


def test_degenerate_matrix_under_strict_mode(demo_system):
    config = _config(point_config(["0", "10", "10.5", "0", "5", "6"]))
    with pytest.raises(StrictSweepError, match="beta") as err:
        run_sweep(config, strict=True, system=demo_system)
    assert err.value.t == 0.0


def test_ordering_violation_becomes_error_row(demo_system):
    config = _config(point_config(["t", "1", "5", "0", "1", "5"]))
    rows = run_sweep(config, system=demo_system)
    assert [row.status for row in rows] == ["ok"] * 2 + ["error"] * 9
    bad = rows[2]
    assert bad.thresholds is None
    assert "central(pp) <= central(bp)" in bad.message
    with pytest.raises(StrictSweepError):
        run_sweep(config, strict=True, system=demo_system)


def test_evaluation_error_becomes_error_row(demo_system):
    config = point_config(["0", "6", "13", "0", "8", "20+1/(t-2)"])
    config["time_grid"] = {"start": 0, "stop": 4, "step": 1}
    rows = run_sweep(_config(config), system=demo_system)
    assert [row.status for row in rows] == ["ok", "ok", "error", "ok", "ok"]
    assert "division by zero" in rows[2].message


def test_band_sweep_has_no_assignments(demo_system):
    rows = run_sweep(_config(interval_config("band")), system=demo_system)
    for row in rows:
        assert row.status == "ok"
        assert isinstance(row.thresholds, BandPair)
        assert row.assignments == ()
    assert rows[1].thresholds == BandPair(0.2, 1.0, 1 / 13, 1.0)


def test_thresholds_at_needs_no_dataset():
    result, degenerate = thresholds_at(_config(uniform_config()), 1.0)
    assert isinstance(result, PointPair)
    assert not degenerate
    result, degenerate = thresholds_at(_config(uniform_config()), 5.0)
    assert degenerate
    result, degenerate = thresholds_at(_config(interval_config("band")), 1.0)
    assert isinstance(result, BandPair)
    assert not degenerate


def test_check_ordering_messages():
    assert check_ordering(_config(uniform_config()), 1.0) == []
    config = _config(point_config(["t", "1", "5", "0", "1", "5"]))
    messages = check_ordering(config, 3.0)
    assert len(messages) == 1
    assert "central(pp) <= central(bp)" in messages[0]


def test_emit_outputs_exact_lines(tmp_path, demo_system):
    rows = run_sweep(_config(uniform_config()), system=demo_system)
    out = tmp_path / "out"
    emit_outputs(rows, str(out))

    thresholds = (out / "thresholds.csv").read_text(encoding="utf-8").splitlines()
    assert thresholds[0] == "t,alpha_lo,alpha_hi,beta_lo,beta_hi"
    assert thresholds[1] == "0,0.785714285714,0.785714285714,0.5,0.5"
    assert thresholds[2] == "1,0.666666666667,0.666666666667,0.533333333333,0.533333333333"
    assert len(thresholds) == 12   # header + every grid value, degenerates included

    regions = (out / "regions.csv").read_text(encoding="utf-8").splitlines()
    assert regions[0] == "t,object_id,probability,region"
    assert "1,o1,0.75,POS" in regions
    assert "1,o13,0.6,BND" in regions
    assert len(regions) == 1 + 3 * 17   # only the three non-degenerate t

    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "three-way sweep summary"
    assert summary[1] == "time points: 11"
    assert summary[2] == "status counts: ok=3 degenerate=8 error=0"
    assert "  t=1: POS=6 BND=5 NEG=6" in summary
    assert "degenerate time points (beta > alpha): 3, 4, 5, 6, 7, 8, 9, 10" in summary
    assert summary[-1] == "ordering violations / evaluation errors: none"


def test_emit_outputs_lists_errors(tmp_path, demo_system):
    config = point_config(["0", "6", "13", "0", "8", "20+1/(t-2)"])
    config["time_grid"] = {"start": 0, "stop": 4, "step": 1}
    rows = run_sweep(_config(config), system=demo_system)
    emit_outputs(rows, str(tmp_path))
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert "ordering violations / evaluation errors:" in summary
    assert "division by zero" in summary


def test_emit_outputs_band_mode(tmp_path, demo_system):
    rows = run_sweep(_config(interval_config("band")), system=demo_system)
    emit_outputs(rows, str(tmp_path))
    regions = (tmp_path / "regions.csv").read_text(encoding="utf-8")
    assert regions == "t,object_id,probability,region\n"
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert "thresholds only (band mode)" in summary


def test_emit_outputs_deterministic_and_order_free(tmp_path, demo_system):
    rows = run_sweep(_config(uniform_config()), system=demo_system)
    emit_outputs(rows, str(tmp_path / "a"))
    emit_outputs(rows, str(tmp_path / "b"))
    emit_outputs(list(reversed(rows)), str(tmp_path / "c"))
    for name in ("thresholds.csv", "regions.csv", "summary.txt"):
        first = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == first
        assert (tmp_path / "c" / name).read_bytes() == first


def test_run_sweep_reads_dataset_from_config(tmp_path):
    config_path = write_run_files(str(tmp_path), uniform_config())
    rows = run_sweep(RunConfig.load(config_path))
    assert len(rows) == 11
    assert rows[0].status == "ok"


def test_run_sweep_rejects_unknown_condition_attr(demo_system):
    config = uniform_config()
    config["condition_attrs"] = ["texture"]
    with pytest.raises(DatasetError, match="texture"):
        run_sweep(_config(config), system=demo_system)


def test_run_sweep_missing_dataset_file():
    config = uniform_config()
    config["dataset_path"] = os.path.join(os.sep, "nonexistent", "data.csv")
    with pytest.raises(DatasetError, match="cannot read"):
        run_sweep(_config(config))


# Blocks whose objects interleave in file order; a, b and c share p = 3/4.
SHARED_BLOCKS = (
    ("a", 4, 3),
    ("b", 4, 3),
    ("c", 8, 6),
    ("d", 5, 1),
    ("e", 5, 3),
    ("f", 2, 0),
    ("g", 1, 1),
)
SHARED_DISTINCT = {Fraction(positives, size) for _, size, positives in SHARED_BLOCKS}


@pytest.fixture()
def shared_system(tmp_path):
    queues = [
        [(shade, k < positives) for k in range(size)]
        for shade, size, positives in SHARED_BLOCKS
    ]
    lines = ["id,shade,approved"]
    while any(queues):
        for queue in queues:
            if queue:
                shade, positive = queue.pop(0)
                lines.append(f"x{len(lines)},{shade},{'yes' if positive else 'no'}")
    return _load_text(tmp_path, "\n".join(lines) + "\n")


def _shared_config() -> RunConfig:
    """Uniform demo: ok at t = 0, 0.5, 1.5, 2, an evaluation error at
    t = 1, and degenerate from t = 2.5 on."""

    config = uniform_config()
    config["loss_matrix"]["pn"]["uniform"]["b"] = "4*t+20+0/(t-1)"
    config["time_grid"] = {"start": 0, "stop": 4, "step": 0.5}
    return _config(config)


def test_risk_cross_check_runs_once_per_distinct_probability(shared_system, monkeypatch):
    seen = []
    real = sweep.min_risk_region

    def counting(p, *losses):
        seen.append(p)
        return real(p, *losses)

    monkeypatch.setattr(sweep, "min_risk_region", counting)
    rows = run_sweep(_shared_config(), system=shared_system)
    decided = sum(row.status == "ok" for row in rows)
    assert decided == 4
    assert len(seen) == len(SHARED_DISTINCT) * decided
    assert Counter(seen) == {p: decided for p in SHARED_DISTINCT}


@pytest.mark.parametrize("wrong_at", sorted(SHARED_DISTINCT), ids=str)
def test_risk_cross_check_disagreement_raises(shared_system, monkeypatch, wrong_at):
    real = sweep.min_risk_region
    other = {Region.POS: Region.NEG, Region.NEG: Region.BND, Region.BND: Region.POS}

    def wrong(p, *losses):
        region = real(p, *losses)
        return other[region] if p == wrong_at else region

    monkeypatch.setattr(sweep, "min_risk_region", wrong)
    with pytest.raises(RuntimeError, match="threshold rule and risk rule disagree"):
        run_sweep(_shared_config(), system=shared_system)


def test_streamed_regions_match_per_object_expansion(tmp_path, shared_system, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return RegionAssignment(*args)

    monkeypatch.setattr(sweep, "RegionAssignment", counting)
    rows = run_sweep(_shared_config(), system=shared_system)
    emit_outputs(rows, str(tmp_path))
    assert {row.status for row in rows} == {"ok", "error", "degenerate"}
    assert sum(len(row.assignments) for row in rows) == 4 * 29
    assert built == []

    # every object of every decided t, straight from the dataset
    shade = shared_system.attribute_index("shade")
    members = {}
    for obj, values in zip(shared_system.objects, shared_system.rows):
        members.setdefault(values[shade], set()).add(obj)
    expected = ["t,object_id,probability,region"]
    tallies = []
    for row in rows:
        if row.status != "ok":
            continue
        tally = Counter()
        for obj, values in zip(shared_system.objects, shared_system.rows):
            p = conditional_probability(shared_system.concept, members[values[shade]])
            region = classify(p, row.thresholds.alpha, row.thresholds.beta)
            expected.append(f"{row.t:.12g},{obj},{float(p):.12g},{region.value}")
            tally[region.value] += 1
        tallies.append(
            f"  t={row.t:.12g}: POS={tally['POS']} BND={tally['BND']} NEG={tally['NEG']}"
        )
    assert [values[shade] for values in shared_system.rows[:7]] == list("abcdefg")
    assert (tmp_path / "regions.csv").read_text(encoding="utf-8") == (
        "\n".join(expected) + "\n"
    )
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in summary if "POS=" in line] == tallies

    # the rows still expand on access, through the same constructor
    assert list(rows[0].assignments) == [rows[0].assignments[k] for k in range(29)]
    assert len(built) == 2 * 29
