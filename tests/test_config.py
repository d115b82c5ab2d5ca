"""JSON configuration parsing and the time grid."""

from __future__ import annotations

import json
import os

import pytest

from threeway import (
    ConfigError,
    FuzzyLoss,
    IntervalLoss,
    NormalBandLoss,
    RunConfig,
    TimeGrid,
    UniformLoss,
)

from helpers import fuzzy_config, interval_config, normal_config, uniform_config


def test_uniform_round_trip():
    config = RunConfig.from_dict(uniform_config())
    assert config.family == "uniform"
    assert config.mode is None
    assert config.condition_attrs == ("shade",)
    assert config.decision_attr == "approved"
    assert config.positive_value == "yes"
    assert config.strict_ordering is False
    assert config.matrix.family is UniformLoss
    assert config.time_grid.points() == [float(k) for k in range(11)]
    assert str(config.matrix.bp.a) == "2*t+2"


def test_interval_and_normal_and_fuzzy_round_trips():
    interval = RunConfig.from_dict(interval_config("band"))
    assert interval.mode == "band"
    assert interval.matrix.family is IntervalLoss

    normal = RunConfig.from_dict(normal_config("central"))
    assert normal.mode == "central"
    assert normal.matrix.family is NormalBandLoss
    assert normal.matrix.pp.n == 1

    fuzzy = RunConfig.from_dict(fuzzy_config("optimistic"))
    assert fuzzy.matrix.family is FuzzyLoss
    assert fuzzy.matrix.pp.strong is False
    assert len(fuzzy.matrix.pn.elements) == 9


def test_load_resolves_dataset_path(tmp_path):
    config = uniform_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    loaded = RunConfig.load(str(path))
    assert loaded.dataset_path == str(tmp_path / "data.csv")
    # absolute paths pass through untouched
    config["dataset_path"] = os.path.join(os.sep, "data", "x.csv")
    path.write_text(json.dumps(config), encoding="utf-8")
    assert RunConfig.load(str(path)).dataset_path == config["dataset_path"]


def test_load_reports_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.load(str(bad))


def _expect_error(config: dict, match: str):
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_dict(config)


def test_top_level_validation():
    _expect_error([], "JSON object")
    config = uniform_config()
    config["surprise"] = 1
    _expect_error(config, "unknown config fields: surprise")

    config = uniform_config()
    del config["dataset_path"]
    _expect_error(config, "dataset_path")

    config = uniform_config()
    config["condition_attrs"] = []
    _expect_error(config, "condition_attrs")
    config["condition_attrs"] = ["shade", "shade"]
    _expect_error(config, "duplicates")

    config = uniform_config()
    config["loss_family"] = "triangular"
    _expect_error(config, "loss_family")

    config = uniform_config()
    config["strict_ordering"] = "yes"
    _expect_error(config, "strict_ordering")


def test_mode_validation():
    config = uniform_config()
    config["mode"] = "band"
    _expect_error(config, "takes no mode")

    config = interval_config("band")
    del config["mode"]
    _expect_error(config, "mode for the interval family")

    config = interval_config("sideways")
    _expect_error(config, "mode for the interval family")

    config = normal_config("optimistic")
    _expect_error(config, "mode for the normal family")


def test_n_validation():
    config = normal_config("central")
    del config["n"]
    _expect_error(config, "n must be 1, 2, or 3")
    config["n"] = 4
    _expect_error(config, "n must be 1, 2, or 3")
    config["n"] = True
    _expect_error(config, "n must be 1, 2, or 3")

    config = uniform_config()
    config["n"] = 1
    _expect_error(config, "only valid for the normal family")


def test_eta_and_strong_validation():
    config = fuzzy_config("band")
    del config["eta"]
    _expect_error(config, "eta")

    config = fuzzy_config("band")
    config["eta"] = "1-1/"
    _expect_error(config, "eta")

    config = fuzzy_config("band")
    config["strong"] = "no"
    _expect_error(config, "strong must be a boolean")

    config = uniform_config()
    config["eta"] = "0.5"
    _expect_error(config, "only valid for the fuzzy family")

    config = uniform_config()
    config["strong"] = True
    _expect_error(config, "only valid for the fuzzy family")


def test_matrix_validation():
    config = uniform_config()
    del config["loss_matrix"]["pn"]
    _expect_error(config, "missing entries: pn")

    config = uniform_config()
    config["loss_matrix"]["xx"] = {"uniform": {"a": "0", "b": "1"}}
    _expect_error(config, "unknown entries: xx")

    config = uniform_config()
    config["loss_matrix"]["pp"] = {"point": {"value": "0"}}
    _expect_error(config, "variant 'point' but loss_family is 'uniform'")

    config = uniform_config()
    config["loss_matrix"]["pp"] = {"uniform": {"a": "0"}}
    _expect_error(config, "loss_matrix.pp.uniform.b")

    config = uniform_config()
    config["loss_matrix"]["pp"] = {"uniform": {"a": "0", "b": "1", "c": "2"}}
    _expect_error(config, "unknown fields: c")

    config = uniform_config()
    config["loss_matrix"]["pp"] = {"uniform": {"a": "2t", "b": "1"}}
    _expect_error(config, "loss_matrix.pp.uniform.a")

    config = fuzzy_config("band")
    config["loss_matrix"]["pp"] = {"fuzzy": {"elements": []}}
    _expect_error(config, "non-empty list")

    config = fuzzy_config("band")
    config["loss_matrix"]["pp"] = {"fuzzy": {"elements": [{"value": "1"}]}}
    _expect_error(config, r"elements\[0\]")


def test_grid_validation():
    config = uniform_config()
    config["time_grid"] = {"start": 0, "stop": 1}
    _expect_error(config, "time_grid")
    config["time_grid"] = {"start": 0, "stop": 1, "step": 1, "pace": 2}
    _expect_error(config, "unknown fields: pace")
    config["time_grid"] = {"start": 0, "stop": 1, "step": "fast"}
    _expect_error(config, "time_grid")
    config["time_grid"] = {"start": 2, "stop": 1, "step": 1}
    _expect_error(config, "stop")
    config["time_grid"] = {"start": 0, "stop": 1, "step": 0}
    _expect_error(config, "step")


def test_grid_points_basic():
    assert TimeGrid(0, 10, 1).points() == [float(k) for k in range(11)]
    assert TimeGrid(1, 1, 0.5).points() == [1.0]


def test_grid_excludes_unreachable_stop():
    points = TimeGrid(0, 1, 0.3).points()
    assert len(points) == 4
    assert points[0] == 0.0
    assert points[-1] == pytest.approx(0.9)


def test_grid_includes_stop_within_tolerance():
    points = TimeGrid(0, 0.3, 0.1).points()
    assert len(points) == 4
    assert points[-1] == pytest.approx(0.3)


def test_grid_point_count_and_values_agree_with_points():
    for grid in (TimeGrid(0, 10, 1), TimeGrid(0, 1, 0.3), TimeGrid(0, 0.3, 0.1)):
        assert grid.points() == [grid.point(k) for k in range(grid.count)]
        assert list(grid) == grid.points()
    # neither count nor point builds the grid, so a huge one costs nothing
    huge = TimeGrid(0, 1e12, 1)
    assert huge.count == 10**12 + 1
    assert huge.point(huge.count - 1) == 1e12


def test_grid_rejects_non_finite():
    with pytest.raises(ConfigError, match="finite"):
        TimeGrid(0, float("inf"), 1)
