"""Smoke test of the benchmark in ``perfbench/``, at its self-test size."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import threeway

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_benchmark_imports_only_public_names():
    with open(os.path.join(PERFBENCH, "layers.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threeway"
        for alias in node.names
    }
    assert "thresholds_at" in imported
    assert imported <= set(threeway.__all__), imported - set(threeway.__all__)


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
