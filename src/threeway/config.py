"""Run configuration: one JSON document describing a full sweep.

A run needs a dataset, the attributes that define indiscernibility, a
concept (decision attribute plus positive value), a six-entry loss
matrix in one of the five families, a family-appropriate mode, and a
time grid.  Example::

    {
      "dataset_path": "data.csv",
      "condition_attrs": ["color", "size"],
      "decision_attr": "approved",
      "positive_value": "yes",
      "loss_family": "uniform",
      "loss_matrix": {
        "pp": {"uniform": {"a": "0", "b": "0"}},
        "bp": {"uniform": {"a": "2*t+2", "b": "4*t+4"}},
        "np": {"uniform": {"a": "3*t+6", "b": "5*t+12"}},
        "nn": {"uniform": {"a": "0", "b": "0"}},
        "bn": {"uniform": {"a": "t+2", "b": "3*t+10"}},
        "pn": {"uniform": {"a": "2*t+14", "b": "4*t+20"}}
      },
      "time_grid": {"start": 0, "stop": 10, "step": 1},
      "strict_ordering": false
    }

Family-specific extras: ``n`` (1, 2, or 3) for the normal family,
``eta`` (an expression) and optional ``strong`` flag for the fuzzy
family, and ``mode``: ``central`` or ``band`` for normal,
``optimistic``, ``pessimistic``, or ``band`` for interval and fuzzy.
The point and uniform families take no mode.  ``dataset_path`` is
resolved relative to the configuration file's directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterator

from .expr import ExprSyntaxError, TimeExpr, parse
from .losses import (
    ENTRY_NAMES,
    FuzzyElement,
    FuzzyLoss,
    IntervalLoss,
    LossMatrix,
    LossSpec,
    NormalBandLoss,
    PointLoss,
    UniformLoss,
)
from .thresholds import RULES

__all__ = ["ConfigError", "RunConfig", "TimeGrid", "FAMILIES"]

FAMILIES = tuple(dict.fromkeys(family for family, _ in RULES))

GRID_ENDPOINT_TOL = 1e-9


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent run configuration."""


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class TimeGrid:
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        for name, value in (("start", self.start), ("stop", self.stop), ("step", self.step)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"time_grid.{name} must be a number, got {value!r}")
            if not _finite(value):
                raise ConfigError(f"time_grid.{name} must be finite, got {value!r}")
        if self.step <= 0:
            raise ConfigError(f"time_grid.step must be positive, got {self.step!r}")
        if self.stop < self.start:
            raise ConfigError(
                f"time_grid.stop ({self.stop!r}) is below start ({self.start!r})"
            )
        if not math.isfinite((float(self.stop) - float(self.start)) / float(self.step)):
            raise ConfigError(
                "time_grid is too long: (stop - start) / step overflows a float"
            )

    @property
    def count(self) -> int:
        """Number of grid values, closed on both ends.

        ``stop`` itself is included when (stop - start) / step is within
        1e-9 of an integer.
        """

        span = (self.stop - self.start) / self.step
        nearest = round(span)
        if abs(span - nearest) <= GRID_ENDPOINT_TOL:
            return int(nearest) + 1
        return int(math.floor(span)) + 1

    def point(self, k: int) -> float:
        """Grid value ``k`` (0 <= k < count): start + k*step."""

        # coerce so integer-valued JSON grids still sweep float t
        return float(self.start + k * self.step)

    def __iter__(self) -> Iterator[float]:
        """The grid values in order, produced one at a time."""

        return map(self.point, range(self.count))

    def points(self) -> list[float]:
        """Every grid value, as a list."""

        return list(self)


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    condition_attrs: tuple[str, ...]
    decision_attr: str
    positive_value: str
    family: str
    matrix: LossMatrix
    mode: str | None
    time_grid: TimeGrid
    strict_ordering: bool

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """Read a JSON configuration file.

        Relative ``dataset_path`` values are resolved against the
        file's directory.
        """

        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError("config nests too deeply to parse") from None
        return cls.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_dict(cls, data: object, base_dir: str | None = None) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "dataset_path",
            "condition_attrs",
            "decision_attr",
            "positive_value",
            "loss_family",
            "loss_matrix",
            "mode",
            "n",
            "eta",
            "strong",
            "time_grid",
            "strict_ordering",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")

        dataset_path = _string(data, "dataset_path")
        if base_dir is not None and not os.path.isabs(dataset_path):
            dataset_path = os.path.join(base_dir, dataset_path)

        raw_attrs = data.get("condition_attrs")
        if (
            not isinstance(raw_attrs, list)
            or not raw_attrs
            or not all(isinstance(a, str) and a for a in raw_attrs)
        ):
            raise ConfigError("condition_attrs must be a non-empty list of names")
        if len(set(raw_attrs)) != len(raw_attrs):
            raise ConfigError("condition_attrs contains duplicates")

        decision_attr = _string(data, "decision_attr")
        positive_value = _string(data, "positive_value")

        family = _string(data, "loss_family")
        if family not in FAMILIES:
            raise ConfigError(
                f"loss_family must be one of {', '.join(FAMILIES)}; got {family!r}"
            )

        mode = data.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise ConfigError(f"mode must be a string or null, got {mode!r}")
        allowed = tuple(m for f, m in RULES if f == family)
        if mode not in allowed:
            if allowed == (None,):
                raise ConfigError(
                    f"the {family} family takes no mode, got {mode!r}"
                )
            raise ConfigError(
                f"mode for the {family} family must be one of "
                f"{', '.join(m for m in allowed if m)}; got {mode!r}"
            )

        n = data.get("n")
        if family == "normal":
            if not isinstance(n, int) or isinstance(n, bool) or n not in (1, 2, 3):
                raise ConfigError(f"n must be 1, 2, or 3 for the normal family, got {n!r}")
        elif n is not None:
            raise ConfigError("field n is only valid for the normal family")

        eta_text = data.get("eta")
        strong = data.get("strong")
        if family == "fuzzy":
            if not isinstance(eta_text, str):
                raise ConfigError("eta (a t-expression string) is required for the fuzzy family")
            eta = _expr(eta_text, "eta")
            if strong is None:
                strong = False
            if not isinstance(strong, bool):
                raise ConfigError(f"strong must be a boolean, got {strong!r}")
        else:
            if eta_text is not None:
                raise ConfigError("field eta is only valid for the fuzzy family")
            if strong is not None:
                raise ConfigError("field strong is only valid for the fuzzy family")
            eta = None

        raw_matrix = data.get("loss_matrix")
        if not isinstance(raw_matrix, dict):
            raise ConfigError("loss_matrix must be an object with entries pp, bp, np, nn, bn, pn")
        missing = [name for name in ENTRY_NAMES if name not in raw_matrix]
        extra = sorted(set(raw_matrix) - set(ENTRY_NAMES))
        if missing:
            raise ConfigError(f"loss_matrix is missing entries: {', '.join(missing)}")
        if extra:
            raise ConfigError(f"loss_matrix has unknown entries: {', '.join(extra)}")
        specs = {
            name: _entry_spec(name, raw_matrix[name], family, n, eta, strong)
            for name in ENTRY_NAMES
        }
        matrix = LossMatrix(
            pp=specs["pp"],
            bp=specs["bp"],
            np_=specs["np"],
            nn=specs["nn"],
            bn=specs["bn"],
            pn=specs["pn"],
        )

        raw_grid = data.get("time_grid")
        if not isinstance(raw_grid, dict):
            raise ConfigError("time_grid must be an object with start, stop, step")
        grid_extra = sorted(set(raw_grid) - {"start", "stop", "step"})
        if grid_extra:
            raise ConfigError(f"time_grid has unknown fields: {', '.join(grid_extra)}")
        try:
            grid = TimeGrid(
                raw_grid.get("start"), raw_grid.get("stop"), raw_grid.get("step")
            )
        except ConfigError:
            raise
        except TypeError:
            raise ConfigError("time_grid needs numeric start, stop, step") from None

        strict = data.get("strict_ordering", False)
        if not isinstance(strict, bool):
            raise ConfigError(f"strict_ordering must be a boolean, got {strict!r}")

        return cls(
            dataset_path=dataset_path,
            condition_attrs=tuple(raw_attrs),
            decision_attr=decision_attr,
            positive_value=positive_value,
            family=family,
            matrix=matrix,
            mode=mode,
            time_grid=grid,
            strict_ordering=strict,
        )


def _string(data: dict, field: str) -> str:
    value = data.get(field)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{field} must be a non-empty string, got {value!r}")
    return value


def _expr(text: object, where: str) -> TimeExpr:
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be a t-expression string, got {text!r}")
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _entry_spec(
    name: str,
    raw: object,
    family: str,
    n: int | None,
    eta: TimeExpr | None,
    strong: bool | None,
) -> LossSpec:
    where = f"loss_matrix.{name}"
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(
            f"{where} must be an object with exactly one variant key, e.g. "
            '{"uniform": {"a": "...", "b": "..."}}'
        )
    (variant, payload), = raw.items()
    if variant != family:
        raise ConfigError(
            f"{where} uses variant {variant!r} but loss_family is {family!r}"
        )
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}.{variant} must be an object")

    def fields(*names: str) -> list[TimeExpr]:
        extra = sorted(set(payload) - set(names))
        if extra:
            raise ConfigError(f"{where}.{variant} has unknown fields: {', '.join(extra)}")
        return [_expr(payload.get(f), f"{where}.{variant}.{f}") for f in names]

    if family == "point":
        (value,) = fields("value")
        return PointLoss(value)
    if family == "uniform":
        a, b = fields("a", "b")
        return UniformLoss(a, b)
    if family == "normal":
        mu, sigma = fields("mu", "sigma")
        assert n is not None
        return NormalBandLoss(mu, sigma, n)
    if family == "interval":
        lo, hi = fields("lo", "hi")
        return IntervalLoss(lo, hi)
    # fuzzy
    raw_elements = payload.get("elements")
    extra = sorted(set(payload) - {"elements"})
    if extra:
        raise ConfigError(f"{where}.fuzzy has unknown fields: {', '.join(extra)}")
    if not isinstance(raw_elements, list) or not raw_elements:
        raise ConfigError(f"{where}.fuzzy.elements must be a non-empty list")
    elements = []
    for i, item in enumerate(raw_elements):
        if not isinstance(item, dict) or set(item) != {"value", "membership"}:
            raise ConfigError(
                f"{where}.fuzzy.elements[{i}] must be "
                '{"value": "...", "membership": "..."}'
            )
        elements.append(
            FuzzyElement(
                _expr(item["value"], f"{where}.fuzzy.elements[{i}].value"),
                _expr(item["membership"], f"{where}.fuzzy.elements[{i}].membership"),
            )
        )
    assert eta is not None and strong is not None
    return FuzzyLoss(elements, eta, strong)
