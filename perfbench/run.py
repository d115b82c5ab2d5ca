"""Benchmark for ``threeway run``: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rows --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --report            # every workload, both modes

Each invocation generates a seeded dataset and config (``workloads.py``),
then runs ``threeway run`` in a closed loop with one client: one child
process at a time, the next started when the previous one has exited,
until the measured run time reaches ``--seconds``.  After each run come
one ``threeway validate`` child (for ``setup_s``) and one calibration
child (``calibrate.py``); each run and validate time is scaled by the
calibrations on either side of it, so machine-speed drift cancels.  The
first run's output files are checked cell by cell against the
exact-rational oracle (``oracle.py``); every later run must reproduce
them byte for byte.

With ``--trace 1`` the same untraced loop runs, followed by TRACE_REPS
traced children (``layers.py``), each bracketed by calibrations: each
repeats the run with a span around each public call, then replays the
layers inside the sweep one at a time.  Per-layer metrics are the
medians over those children.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, the check verdict and the
environment.  The program is run from ``src`` of the checkout, so
nothing is installed; without ``src/threeway`` the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import oracle
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
OUTPUT_FILES = ("thresholds.csv", "regions.csv", "summary.txt")
MIN_RUNS = 3
TRACE_REPS = 3
LAYERS = os.path.join(ROOT, "perfbench", "layers.py")
CALIBRATION = [sys.executable, os.path.join(ROOT, "perfbench", "calibrate.py")]
# run_s and setup_s are given for a machine on which calibrate.py takes this long
CALIBRATION_REF_S = 0.25

END_TO_END = {"run_s": "s", "peak_rss_mib": "MiB", "setup_s": "s", "grid_points_per_s": "1/s"}
PER_LAYER = {
    "config.load_s": "s",
    "sweep.load_dataset_s": "s",
    "sweep.objects": "count",
    "rough.partition_s": "s",
    "rough.blocks": "count",
    "thresholds.thresholds_at_s": "s",
    "losses.check_ordering_s": "s",
    "expr.evals_per_t": "evals/t",
    "thresholds.grid_points": "count",
    "thresholds.ok_points": "count",
    "thresholds.degenerate_points": "count",
    "thresholds.error_points": "count",
    "rough.classify_s": "s",
    "risk.min_risk_region_s": "s",
    "rough.decisions": "count",
    "sweep.run_sweep_s": "s",
    "sweep.run_sweep_self_s": "s",
    "sweep.rows_built": "count",
    "sweep.rss_after_sweep_mib": "MiB",
    "sweep.emit_outputs_s": "s",
    "sweep.rows_written": "count",
    "sweep.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "check.tie_flips": "count",
    "check.tie_cells": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program, or the launcher or calibration failed."""


def environment(workload: workloads.Workload, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""

    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every measured child.

    Started before this process grows, so the children's peak RSS is
    their own (see launcher.py).  The launcher and its children get
    ``src`` on PYTHONPATH and run from the checkout root.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )

    def spawn(self, argv: list[str], log_path: str) -> tuple[int, float, float, float]:
        """Run one child to completion.

        Returns its exit code, wall seconds, peak RSS in MiB, and the
        ``time.monotonic()`` at which it was started.
        """

        self.proc.stdin.write(json.dumps({"argv": argv, "log": log_path}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher process exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall"], reply["rss_mib"], reply["start"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=170)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _digest(out_dir: str) -> tuple[str, ...]:
    out = []
    for name in OUTPUT_FILES:
        sha = hashlib.sha256()
        try:
            with open(os.path.join(out_dir, name), "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(chunk)
        except OSError:
            return ()
        out.append(sha.hexdigest())
    return tuple(out)


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


@dataclass
class Samples:
    """Per-child measurements of one invocation (good runs only)."""

    walls: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    run_scaled: list = field(default_factory=list)
    setup_scaled: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)


class Run:
    """One benchmark invocation on one generated workload."""

    def __init__(self, launcher: Launcher, workload: workloads.Workload, work_dir: str):
        self.launcher = launcher
        self.workload = workload
        self.dir = work_dir
        self.config = os.path.join(work_dir, "config.json")
        self.out = os.path.join(work_dir, "out")
        self.log = os.path.join(work_dir, "stderr.log")
        self.points = oracle.expected_points(workload.model)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdict: oracle.Verdict | None = None
        self.digest: tuple[str, ...] = ()
        os.makedirs(work_dir)
        with open(os.path.join(work_dir, "data.csv"), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(workload.csv_text)
        with open(self.config, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(workload.config, handle, indent=1)

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "threeway.cli", *args]

    def _child(self, argv: list[str], counted: bool = True) -> tuple[bool, float, float, float]:
        code, wall, rss, start = self.launcher.spawn(argv, self.log)
        if counted:
            self.attempted += 1
        if code != 0:
            self.failed += counted
            with open(self.log, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-500:]
            self.failures.append(f"{' '.join(argv[1:4])} exited {code}: {tail.strip()}")
        return code == 0, wall, rss, start

    def _outputs_ok(self, out_dir: str) -> bool:
        """Oracle check on the first outputs; byte identity after that."""

        if self.verdict is None:
            self.verdict = oracle.check_outputs(self.workload.model, out_dir, self.points)
            self.digest = _digest(out_dir)
            if not self.verdict.correct:
                self.failed += 1
                self.failures.extend(self.verdict.problems)
            return self.verdict.correct
        if _digest(out_dir) != self.digest:
            self.failed += 1
            self.failures.append(f"outputs in {out_dir} differ from the checked first run")
            return False
        return True

    def _calibrate(self) -> float:
        code, wall, _, _ = self.launcher.spawn(CALIBRATION, self.log)
        if code != 0:
            raise BenchError(f"the calibration child exited {code}")
        return wall

    def measure(self, seconds: float) -> Samples:
        """Closed loop, one client, until the runs add up to ``seconds``.

        Each run is followed by one ``validate`` child and one calibration
        child; both timings are scaled by the mean of the calibrations
        just before and just after them.
        """

        validate = self.cli("validate", "--config", self.config)
        run = self.cli("run", "--config", self.config, "--out", self.out)
        self._child(validate, counted=False)  # warm-up that also writes bytecode
        samples = Samples()
        before = self._calibrate()
        measured, runs = 0.0, 0
        while measured < seconds or runs < MIN_RUNS:
            ok, wall, rss, _ = self._child(run)
            runs += 1
            measured += wall
            ok = ok and self._outputs_ok(self.out)
            setup_ok, setup_wall, _, _ = self._child(validate)
            after = self._calibrate()
            samples.calibrations.append(after)
            scale = CALIBRATION_REF_S / ((before + after) / 2)
            before = after
            if ok:
                samples.walls.append(wall)
                samples.rss.append(rss)
                samples.run_scaled.append(wall * scale)
            if setup_ok:
                samples.setup_scaled.append(setup_wall * scale)
        return samples

    def traced(self, run_s: float) -> dict:
        """Per-layer metrics: medians over TRACE_REPS traced children.

        Each traced child is scaled by the calibrations around it, like
        the runs whose scaled median ``run_s`` is.
        """

        out = os.path.join(self.dir, "traced_out")
        result = os.path.join(self.dir, "trace.json")
        scalars = os.path.join(self.dir, "scalars.json")
        with open(scalars, "w", encoding="utf-8") as handle:
            json.dump(oracle.replay_losses(self.workload.model), handle)
        argv = [
            sys.executable, LAYERS, "--config", self.config, "--out", out,
            "--scalars", scalars, "--result", result,
        ]
        reps = []
        before = self._calibrate()
        for _ in range(TRACE_REPS):
            ok, _, _, start = self._child(argv)
            after = self._calibrate()
            if not (ok and self._outputs_ok(out)):
                return {}
            with open(result, encoding="utf-8") as handle:
                traced = json.load(handle)
            spans = traced["spans"]
            metrics = {f"{name}_s": value for name, value in spans.items()}
            metrics.update(traced["counts"])
            metrics["sweep.run_sweep_self_s"] = spans["sweep.run_sweep"] - sum(
                spans[name]
                for name in (
                    "rough.partition",
                    "thresholds.thresholds_at",
                    "rough.classify",
                    "risk.min_risk_region",
                )
            )
            scale = CALIBRATION_REF_S / ((before + after) / 2)
            metrics["trace.overhead_frac"] = (traced["pipeline_end"] - start) * scale / run_s - 1
            reps.append(metrics)
            before = after
        layer = {name: statistics.median(r[name] for r in reps) for name in reps[0]}
        with open(os.path.join(out, "regions.csv"), "rb") as handle:
            layer["sweep.rows_written"] = sum(1 for _ in handle) - 1
        layer["sweep.output_bytes"] = sum(
            os.path.getsize(os.path.join(out, name)) for name in OUTPUT_FILES
        )
        return layer


def measure(
    launcher: Launcher, name: str, seed: int, seconds: float, trace: bool
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""

    if not os.path.isfile(os.path.join(SRC, "threeway", "cli.py")):
        raise BenchError(f"no program to measure: {SRC}/threeway/cli.py is missing")
    workload = workloads.WORKLOADS[name](seed)
    work_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        run = Run(launcher, workload, work_dir)
        samples = run.measure(seconds)
        layer = run.traced(statistics.median(samples.run_scaled)) if trace and samples.run_scaled else {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    verdict = run.verdict
    failed = run.failed
    correct = failed == 0 and verdict is not None and verdict.correct
    lines = [
        f"perfbench {name} seed={seed} trace={int(trace)}",
        "  env: " + json.dumps(environment(workload, seed)),
    ]
    if trace:
        if verdict is not None:
            layer["check.tie_flips"] = verdict.tie_flips
            layer["check.tie_cells"] = verdict.tie_cells
        missing = [m for m in PER_LAYER if m not in layer]
        if missing:
            correct = False
            run.failures.append(f"per-layer metrics missing: {missing}")
        metrics = {m: {"value": layer[m], "unit": PER_LAYER[m]} for m in PER_LAYER if m in layer}
        for m, entry in metrics.items():
            note = "  (derived: run_sweep minus replayed layers)" if m == "sweep.run_sweep_self_s" else ""
            lines.append(f"  {m:30s} {entry['value']:.6g} {entry['unit']}{note}")
    else:
        metrics = {}
        if samples.run_scaled and samples.setup_scaled:
            run_s = statistics.median(samples.run_scaled)
            values = {
                "run_s": (run_s, samples.run_scaled),
                "peak_rss_mib": (statistics.median(samples.rss), samples.rss),
                "setup_s": (statistics.median(samples.setup_scaled), samples.setup_scaled),
                "grid_points_per_s": (
                    len(run.points) / run_s,
                    [len(run.points) / w for w in samples.run_scaled],
                ),
            }
            for m, (value, series) in values.items():
                unit = END_TO_END[m]
                metrics[m] = {"value": value, "unit": unit}
                q1, q3 = _quartiles(series)
                lines.append(
                    f"  {m:20s} {value:.6g} {unit}  (median of {len(series)}, quartiles {q1:.6g}..{q3:.6g})"
                )
            lines.append(
                f"  {'raw run wall':20s} {statistics.median(samples.walls):.6g} s  (median; "
                f"calibration child median {statistics.median(samples.calibrations):.4g} s, "
                f"reference {CALIBRATION_REF_S} s)"
            )
        else:
            correct = False
    error_rate = failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'error_rate':20s} {error_rate:.4g} ({failed} of {run.attempted} children)")
    if verdict is not None:
        lines.append(f"  {'tie_flips':20s} {verdict.tie_flips} count  (tie cells {verdict.tie_cells})")
    lines.append(f"  check: {'PASS' if correct else 'FAIL'}")
    lines.extend(f"    {failure}" for failure in run.failures[:10])
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark threeway run.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report",
        action="store_true",
        help="run every workload with tracing off and on and print every metric",
    )
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")
    jobs = (
        [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
        if args.report
        else [(args.workload, bool(args.trace))]
    )
    try:
        results = []
        with Launcher() as launcher:
            for name, trace in jobs:
                result, lines = measure(launcher, name, args.seed, args.seconds, trace)
                print("\n".join(lines), flush=True)
                results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.report:
        print("all checks: " + ("PASS" if all(r["correct"] for r in results) else "FAIL"))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
