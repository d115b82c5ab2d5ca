"""Byte-for-byte regression of ``threeway run`` for every (family, mode) pair.

Each directory under ``tests/golden/`` holds one ``config.json`` (all of
them read ``tests/golden/data.csv``) next to the three output files a
run wrote for it.  Every grid includes ordering violations and
evaluation errors, and every point-valued mode includes degenerate
time points, so the files pin the reported messages as well as the
thresholds and regions.
"""

from __future__ import annotations

import os

import pytest

from threeway.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CASES = (
    "point",
    "uniform",
    "normal-central",
    "normal-band",
    "interval-optimistic",
    "interval-pessimistic",
    "interval-band",
    "fuzzy-optimistic",
    "fuzzy-pessimistic",
    "fuzzy-band",
)
OUTPUTS = ("thresholds.csv", "regions.csv", "summary.txt")


@pytest.mark.parametrize("case", CASES)
def test_run_matches_golden_files(tmp_path, case):
    config_path = os.path.join(GOLDEN, case, "config.json")
    assert main(["run", "--config", config_path, "--out", str(tmp_path)]) == 0
    for name in OUTPUTS:
        with open(os.path.join(GOLDEN, case, name), "rb") as handle:
            expected = handle.read()
        assert (tmp_path / name).read_bytes() == expected, f"{case}/{name}"
