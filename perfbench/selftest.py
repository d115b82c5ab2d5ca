"""Self-test of the benchmark's output check, at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It asserts that:

* every workload, at two seeds, passes the oracle check on the
  program's own output;
* a copy of ``regions.csv`` with one non-tie cell flipped fails it;
* a copy of ``thresholds.csv`` with one threshold off by 1e-6 fails it,
  for a point-mode and a band-mode workload;
* a copy with one tie cell flipped (and its summary tally moved to
  match) passes, with the flip counted in ``tie_flips``;
* ``BENCHMARK.json`` declares exactly the workloads and metrics the
  benchmark produces.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import oracle
import run
import workloads

SCALE = 0.05
SEEDS = (1, 2)
OTHER_REGION = {"POS": "BND", "BND": "NEG", "NEG": "POS"}


def _program_output(launcher, workload: workloads.Workload, work_dir: str) -> str:
    bench = run.Run(launcher, workload, work_dir)
    code, _, _, _ = launcher.spawn(bench.cli("run", "--config", bench.config, "--out", bench.out), bench.log)
    if code != 0:
        with open(bench.log, encoding="utf-8") as handle:
            raise SystemExit(f"threeway run failed on {workload.name}: {handle.read()}")
    return bench.out


def _copy(out_dir: str, name: str) -> str:
    target = f"{out_dir}-{name}"
    shutil.copytree(out_dir, target)
    return target


def _edit(path: str, edit) -> None:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    edit(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))


def _cells(workload: workloads.Workload):
    """(regions.csv line index, t text, region, is_tie) of every decided cell."""

    model = workload.model
    line = 1
    for exp in oracle.expected_points(model):
        if exp.status != "ok" or model.mode == "band":
            continue
        alpha, beta = exp.thresholds[0], exp.thresholds[2]
        for b in model.block_of:
            p = model.probabilities[b]
            tie = p == alpha or p == beta or alpha == beta
            yield line, f"{float(exp.t):.12g}", oracle.classify(p, alpha, beta), tie
            line += 1


def _flip(out_dir: str, line_no: int, t_text: str, region: str) -> None:
    """Move one regions.csv cell to another region and its summary tally with it."""

    new = OTHER_REGION[region]

    def regions(lines):
        fields = lines[line_no].split(",")
        fields[3] = new
        lines[line_no] = ",".join(fields)

    def summary(lines):
        for i, line in enumerate(lines):
            if line.startswith(f"  t={t_text}: POS="):
                tally = dict(re.findall(r"(POS|BND|NEG)=(\d+)", line))
                tally[region] = str(int(tally[region]) - 1)
                tally[new] = str(int(tally[new]) + 1)
                lines[i] = f"  t={t_text}: POS={tally['POS']} BND={tally['BND']} NEG={tally['NEG']}"

    _edit(os.path.join(out_dir, "regions.csv"), regions)
    _edit(os.path.join(out_dir, "summary.txt"), summary)


def _nudge_threshold(out_dir: str) -> None:
    def thresholds(lines):
        fields = lines[1].split(",")
        fields[1] = repr(float(fields[1]) + 1e-6)
        lines[1] = ",".join(fields)

    _edit(os.path.join(out_dir, "thresholds.csv"), thresholds)


def main() -> int:
    failures = []

    def expect(condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
        if not condition:
            failures.append(what)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    produced = {**run.END_TO_END, **run.PER_LAYER}
    expect(declared == produced, "BENCHMARK.json declares the metrics and units run.py reports")
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads workloads.py builds",
    )

    root = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        outputs = {}
        with run.Launcher() as launcher:
            for name, build in workloads.WORKLOADS.items():
                for seed in SEEDS:
                    workload = build(seed, scale=SCALE)
                    out = _program_output(launcher, workload, os.path.join(root, f"{name}-{seed}"))
                    outputs[name, seed] = workload, out
        for (name, seed), (workload, out) in outputs.items():
            verdict = oracle.check_outputs(workload.model, out)
            expect(verdict.correct, f"{name} seed {seed} {workload.sizes}: program output passes {verdict.problems[:2]}")

        for name in ("rows", "blocks"):
            workload, out = outputs[name, SEEDS[0]]
            line_no, t_text, region, _ = next(c for c in _cells(workload) if not c[3])
            bad = _copy(out, "flip")
            _flip(bad, line_no, t_text, region)
            verdict = oracle.check_outputs(workload.model, bad)
            expect(not verdict.correct, f"{name}: one non-tie cell flipped is rejected: {verdict.problems[:1]}")

        for name in ("rows", "bands"):
            workload, out = outputs[name, SEEDS[0]]
            bad = _copy(out, "nudge")
            _nudge_threshold(bad)
            verdict = oracle.check_outputs(workload.model, bad)
            expect(not verdict.correct, f"{name}: one threshold off by 1e-6 is rejected: {verdict.problems[:1]}")

        tie_cases = (
            (workload, out, cell)
            for (name, _), (workload, out) in outputs.items()
            for cell in _cells(workload)
            if cell[3]
        )
        case = next(tie_cases, None)
        expect(case is not None, "some tiny workload has a tie cell")
        if case is not None:
            workload, out, (line_no, t_text, region, _) = case
            flipped = _copy(out, "tie")
            before = oracle.check_outputs(workload.model, out).tie_flips
            _flip(flipped, line_no, t_text, region)
            verdict = oracle.check_outputs(workload.model, flipped)
            expect(
                verdict.correct and verdict.tie_flips == before + 1,
                f"{workload.name}: one tie cell flipped is counted, not failed "
                f"(tie_flips {before} -> {verdict.tie_flips})",
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest: " + ("PASS" if not failures else f"FAIL ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
