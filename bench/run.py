#!/usr/bin/env python3
"""oscal-assure benchmark: one command per workload, run from the repo root.

    python3 bench/run.py --workload credit-rows --seed 1 --seconds 30 --trace 0

--trace 0 measures end to end: the real CLI, one fresh
`python -m oscal_assure.cli` process per invocation, tracing off. Its
times are scaled to a reference host speed by a fixed calibration process
timed through the run (see HostSpeed).
--trace 1 measures per layer: each invocation runs in a fresh worker
interpreter that calls `cli.main(argv)` in process, alternating iterations
with and without span wrappers. Both check every invocation against the
workload's reference. The last stdout line is one JSON object with
correct/attempted/failed/metrics; the exit code is 0 only if every check
passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from checks import Checker, Outcome
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_ROOT = ROOT / ".bench_results"
REQUIRED = (
    SRC / "oscal_assure" / "cli.py",
    ROOT / "demo" / "credit-applications.csv",
    ROOT / "demo" / "credit-scoring.oscal.yaml",
    ROOT / "demo" / "requirements-lock.txt",
)

#: Set-ups per end-to-end run; setup_s is their median.
SETUPS = 5
#: A percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10
INVOCATION_TIMEOUT_S = 150
#: Wall time of bench/calibrate.py, spawn to exit, on the reference host
#: (2 CPUs, x86_64, CPython 3.11): about its median there.
CALIBRATION_REF_S = 0.28
#: After a measurement, calibrate again once this much time has passed
#: since the last calibration.
CALIBRATE_EVERY_S = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_mean_s": "s",
    "rows_per_s": "rows/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics in the result line: those every workload exercises,
#: plus counts an optimisation is meant to move. The others are printed
#: and recorded (see PER_LAYER_PRINTED).
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "plan.parse_s": "s",
    "tabular.load_s": "s",
    "tabular.bind_s": "s",
    "tabular.cells_loaded": "count",
    "tabular.stratify_calls": "count",
    "tabular.rows_copied": "count",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "metrics.rows_scanned": "count",
    "metrics.scan_ratio": "ratio",
    "enforcement.phase_s": "s",
    "enforcement.self_s": "s",
    "serialize.determinize_s": "s",
    "serialize.serialize_s": "s",
    "serialize.bytes_out": "bytes",
    "evidence.open_session_s": "s",
    "evidence.hash_s": "s",
    "evidence.bytes_hashed": "bytes",
    "evidence.env_s": "s",
    "evidence.bom_s": "s",
    "evidence.finalize_self_s": "s",
    "evidence.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: Zero on workloads that make no such call (stratify, report path), or
#: fixed by the inputs; printed and recorded, not in the result line.
PER_LAYER_PRINTED = {
    "tabular.stratify_s": "s",
    "serialize.parse_s": "s",
    "results.validate_s": "s",
    "plan.controls": "count",
    "tabular.rows_loaded": "count",
    "metrics.rows_excluded": "count",
    "enforcement.controls": "count",
    "enforcement.observations": "count",
    "enforcement.failed_controls": "count",
    "evidence.vault_runs_at_open": "count",
    "evidence.files_written": "count",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("OSCAL_ASSURE_VAULT", None)
    return env


def _spawn(cmd: list[str], workdir: Path) -> Outcome:
    """Run `cmd` to its end. The exit code is None if it was killed (after
    INVOCATION_TIMEOUT_S) or died by a signal. The wall time runs from
    spawn to exit; the peak RSS is this process's own, from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Outcome(code if code >= 0 else None, stdout.decode("utf-8", "replace"), wall,
                   usage.ru_maxrss)


def calibration_s() -> float:
    """Wall time of one bench/calibrate.py process, spawn to exit."""
    out = _spawn([sys.executable, str(BENCH / "calibrate.py")], BENCH)
    if out.exit_code != 0:
        raise RuntimeError(f"bench/calibrate.py exited with {out.exit_code}")
    return out.wall_s


class HostSpeed:
    """How fast the shared host ran during one phase of a benchmark run
    (its set-ups, or its measured loop).

    Other tenants of the host change how fast it runs by tens of percent
    from one second to the next and from one minute to the next, which
    swamps a run short enough to repeat. A fixed calibration process is
    timed before the phase's first measurement and again after a
    measurement once CALIBRATE_EVERY_S has passed since the last one, so
    its samples spread over the phase like the measurements do. scale()
    is CALIBRATION_REF_S over their mean: it turns the phase's wall times
    into those of the reference host. A change in the program
    moves its wall times and not the calibration, so it moves the
    scaled times by the same factor."""

    def __init__(self) -> None:
        self.calibrations = [calibration_s()]
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Call after each measurement."""
        if time.perf_counter() - self._since >= CALIBRATE_EVERY_S:
            self.calibrations.append(calibration_s())
            self._since = time.perf_counter()

    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.calibrations)


def cli_process(workdir: Path):
    """Invoke the CLI in a fresh process; wall time from spawn to exit."""

    def invoke(argv) -> Outcome:
        return _spawn([sys.executable, "-m", "oscal_assure.cli", *argv], workdir)

    return invoke


def worker_process(workdir: Path, traced: bool, trace_prefix: str):
    """Invoke the CLI in process inside a fresh worker interpreter."""
    count = 0

    def invoke(argv) -> Outcome:
        nonlocal count
        count += 1
        mode = "traced" if traced else "plain"
        out = _spawn(
            [sys.executable, str(BENCH / "worker.py"), mode, f"{trace_prefix}-{count}", *argv],
            workdir,
        )
        lines = out.stdout.splitlines()
        if out.exit_code != 0 or not lines:
            return Outcome(None, "", out.wall_s, out.peak_rss_kib)
        payload = json.loads(lines[-1])
        return Outcome(
            payload["exit_code"], payload["stdout"], out.wall_s, out.peak_rss_kib,
            payload["import_ns"], payload["main_ns"], payload["spans"],
        )

    return invoke


class Run:
    """One benchmark run of one workload: its work directory, checker and
    the tally of checked invocations."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.checker: Checker | None = None
        self.sizes: dict = {}
        self.peak_rss_kib = 0

    def _tally(self, out: Outcome, problems: list[str]) -> None:
        self.attempted += 1
        self.peak_rss_kib = max(self.peak_rss_kib, out.peak_rss_kib)
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"check failed ({self.workload.name}): {'; '.join(problems)}",
                      file=sys.stderr)

    def setup(self) -> float:
        """Generate inputs, create an empty vault, make one checked
        warm-up invocation. Returns its wall time."""
        start = time.perf_counter()
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        reference, self.sizes = self.workload.generate(ROOT, self.workdir, self.seed)
        (self.workdir / "vault").mkdir()
        self.checker = Checker(reference, self.workdir)
        out = cli_process(self.workdir)(self.workload.run_argv)
        self._tally(out, self.checker.check_run(out))
        return time.perf_counter() - start

    def iteration(self, invoke) -> list[Outcome]:
        """The workload's invocations for one iteration, each checked."""
        out = invoke(self.workload.run_argv)
        self._tally(out, self.checker.check_run(out))
        outcomes = [out]
        if self.workload.reports:
            results = self.checker.run_dir() / "assessment-results.oscal.json"
            report = invoke(["report", str(results), "--format", "json"])
            self._tally(report, self.checker.check_report(report))
            outcomes.append(report)
        return outcomes


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Times scaled by HostSpeed; the unscaled ones go into the record."""
    setup_speed = HostSpeed()
    setups: list[float] = []
    for _ in range(SETUPS):
        setups.append(run.setup())
        setup_speed.tick()
    speed = HostSpeed()
    invoke = cli_process(run.workdir)
    iterations: list[float] = []
    invocations = 0
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        outcomes = run.iteration(invoke)
        invocations += len(outcomes)
        iterations.append(sum(out.wall_s for out in outcomes))
        speed.tick()
    scale = speed.scale()
    mean = statistics.mean(iterations) * scale
    metrics = {
        "setup_s": statistics.median(setups) * setup_speed.scale(),
        "run_mean_s": mean,
        "rows_per_s": run.sizes["rows"] / mean,
        "runs_per_s": invocations / (sum(iterations) * scale),
        "peak_rss_mb": run.peak_rss_kib / 1024,
    }
    extra = {
        "iterations": len(iterations),
        "invocations": invocations,
        "run_p50_s": statistics.median(iterations) * scale,
        "host_scale": scale,
        "setup_host_scale": setup_speed.scale(),
        "calibration_ref_s": CALIBRATION_REF_S,
        "calibration_s": speed.calibrations,
        "setup_calibration_s": setup_speed.calibrations,
        "unscaled_iteration_s": iterations,
        "unscaled_setup_s": setups,
    }
    if len(iterations) >= 10 * TAIL_SAMPLES:
        extra["run_p90_s"] = statistics.quantiles(iterations, n=10)[-1] * scale
    return metrics, extra


def measure_per_layer(run: Run, seconds: float) -> tuple[dict, dict, list[dict]]:
    run.setup()
    prefix = f"{run.workload.name}-{run.seed}"
    invokers = {
        False: worker_process(run.workdir, False, f"{prefix}-plain"),
        True: worker_process(run.workdir, True, f"{prefix}-traced"),
    }
    main_s: dict[bool, list[float]] = {False: [], True: []}
    per_iteration: list[dict] = []
    all_spans: list[dict] = []
    start = time.perf_counter()
    traced = False
    while not (main_s[False] and main_s[True]) or time.perf_counter() - start < seconds:
        outcomes = run.iteration(invokers[traced])
        main_s[traced].append(sum(out.main_ns for out in outcomes) / 1e9)
        if traced:
            iteration_spans = [span for out in outcomes for span in out.spans]
            all_spans += iteration_spans
            values = spans.iteration_metrics(iteration_spans)
            layer_self = spans.layer_self_s(iteration_spans)
            values["cli.import_s"] = sum(out.import_ns for out in outcomes) / 1e9
            wall = sum(out.wall_s for out in outcomes)
            values["trace.unattributed_s"] = wall - values["cli.import_s"] - sum(layer_self.values())
            values["trace.wall_s"] = wall
            values["layers"] = layer_self
            per_iteration.append(values)
        traced = not traced

    metrics = {
        name: statistics.median(values[name] for values in per_iteration)
        for name in (*PER_LAYER_UNITS, *PER_LAYER_PRINTED)
        if not name.startswith("trace.overhead")
    }
    plain = statistics.median(main_s[False])  # 0 only if every plain invocation crashed
    metrics["trace.overhead_frac"] = statistics.median(main_s[True]) / plain - 1 if plain else 0.0
    wall = statistics.median(values["trace.wall_s"] for values in per_iteration)
    layers = {
        layer: statistics.median(values["layers"].get(layer, 0.0) for values in per_iteration)
        for layer in sorted({layer for values in per_iteration for layer in values["layers"]})
    }
    extra = {
        "traced_iterations": len(main_s[True]),
        "plain_iterations": len(main_s[False]),
        "traced_wall_s": wall,
        "layer_self_s": layers,
    }
    return metrics, extra, all_spans


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    args = parser.parse_args(argv)

    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"not an oscal-assure checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, WORK_ROOT / f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            metrics, extra, trace = measure_per_layer(run, args.seconds)
            units = {**PER_LAYER_UNITS, **PER_LAYER_PRINTED}
            reported = PER_LAYER_UNITS
        else:
            metrics, extra = measure_end_to_end(run, args.seconds)
            trace = []
            units = reported = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    failed_frac = run.failed / run.attempted
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "sizes": run.sizes,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": failed_frac,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **extra,
    }
    RESULTS_ROOT.mkdir(exist_ok=True)
    stem = RESULTS_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in trace:
                handle.write(json.dumps(span) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print(f"machine {json.dumps(record['machine'])} sizes {json.dumps(run.sizes)}")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>16.10g} {unit}")
    if not args.trace:
        print(f"{'run_p50_s':<30} {extra['run_p50_s']:>16.10g} s")
        if "run_p90_s" in extra:
            print(f"{'run_p90_s':<30} {extra['run_p90_s']:>16.10g} s "
                  f"({extra['iterations']} iterations)")
        else:
            print(f"run_p90_s not reported: {extra['iterations']} iterations, "
                  f"{10 * TAIL_SAMPLES} needed")
        print(f"host scale {extra['host_scale']:.4f}: calibration mean "
              f"{statistics.mean(extra['calibration_s']):.4f} s over "
              f"{len(extra['calibration_s'])} runs, reference {CALIBRATION_REF_S} s")
    if args.trace:
        attributed = extra["traced_wall_s"] - metrics["trace.unattributed_s"]
        print("layer self time: " + ", ".join(
            f"{layer} {value:.4f} s" for layer, value in extra["layer_self_s"].items()))
        print(f"coverage: import + layer self times {attributed:.4f} s "
              f"of {extra['traced_wall_s']:.4f} s traced wall "
              f"({attributed / extra['traced_wall_s']:.1%})")
        if metrics["trace.unattributed_s"] > 0.1 * extra["traced_wall_s"]:
            print(f"unattributed_s {metrics['trace.unattributed_s']:.4f} "
                  "(outside every boundary: interpreter start-up and exit, worker I/O)")
    print(f"{'failed_frac':<30} {failed_frac:>14.6g} ratio "
          f"({run.failed} of {run.attempted} invocations)")
    print(f"record {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
