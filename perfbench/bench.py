"""Workloads, measurement phases, metrics and output checks of the benchmark.

The benchmark is one closed-loop client: it asks the public harness API for
one sweep point (``sweep_framegap`` or ``sweep_cpi`` restricted to that
point, which runs ``run_experiment``, ``nmse`` and ``bootstrap_ci``), waits
for the CSV rows, and only then asks for the next.  A pass is one whole
sweep; a phase repeats passes with the same seed until its time is up, so
every pass must return the same bytes.  ``run.py`` is the command-line entry.

Every point's wall time is also scaled to the machine's reference speed: a
fixed calibration kernel, which calls no adradar code, runs between points,
and a point's time is multiplied by ``CALIB_REF_S`` over the kernel's mean
time just before and just after it.  On a shared host whose cores slow down
by up to half for seconds to minutes at a time, the kernel slows with them,
so the scaled times keep the program's own cost and drop the host's.  The
timing metrics use the scaled times; the raw ones are printed beside them.
"""

import contextlib
import csv
import io
import math
import os
import platform
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from adradar.harness import ExperimentConfig, format_csv, sweep_cpi, sweep_framegap
from adradar.scene import Scenario

from tracer import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEEDS = (1, 9001)   # the scenario's default seed and a held-out one
REFERENCE_TRIALS = 2
REL_TOL = 1e-9                # on nmse / ci_lo / ci_hi; other columns exact
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Calibration: the kernel runs for this share of the point just timed (and at
# least CALIB_MIN_REPS times).  CALIB_REF_S is the kernel's median time on an
# otherwise idle core of a 2-core x86-64 VM; it only fixes the scale of the
# reported times, and a later change must keep it, like the kernel itself.
CALIB_SHARE = 0.08
CALIB_MIN_REPS = 8
CALIB_REF_S = 1.8e-3


@dataclass(frozen=True)
class Workload:
    """A sweep the client replays: its points and trial count."""

    why: str
    sweep: str                  # "framegap" or "cpi"
    xs: tuple                   # frame gaps, or CPI durations in seconds
    powers: tuple               # TX powers in dBm
    trials: int                 # Monte Carlo trials per sweep point
    estimators: str = "proposed"
    cpi_s: float = None         # frame-gap sweeps only

    def points(self):
        """(p_tx_dbm, x) pairs in the order the harness sweeps visit them."""
        return [(p, x) for p in self.powers for x in self.xs]

    def run_point(self, scenario, seed, trials, p_tx, x):
        if self.sweep == "framegap":
            exp = ExperimentConfig(cpi_s=self.cpi_s, trials=trials,
                                   p_tx_dbm=p_tx, seed=seed)
            return sweep_framegap(scenario, exp, [x])
        exp = ExperimentConfig(cpi_s=x, trials=trials,
                               estimators=self.estimators, seed=seed)
        return sweep_cpi(scenario, exp, [x], [p_tx])


WORKLOADS = {
    "framegap-proposed": Workload(
        why="proposed estimator only: 3 frames a trial, so correlation and "
            "LSE dominate; echo is light, the baseline is bypassed, and small "
            "gaps reach the failure path",
        sweep="framegap", xs=tuple(range(1, 11)), powers=(10.0,), trials=40,
        cpi_s=6e-4),
    "baseline-cpi1ms": Workload(
        why="baseline only at M=129: echo synthesis and many short windowed "
            "correlations in the delay-Doppler map dominate; the estimator is "
            "bypassed",
        sweep="cpi", xs=(1e-3,), powers=(20.0,), trials=8,
        estimators="baseline"),
}

# End-to-end runs use one harness worker.  The per-layer run adds an
# untraced phase with this many, for the pool's efficiency; never more
# workers than CPUs.
POOL_WORKERS = min(2, os.cpu_count() or 1)


_CAL_RNG = np.random.default_rng(20210201)
_CAL_WINDOW = _CAL_RNG.standard_normal(2048) + 1j * _CAL_RNG.standard_normal(2048)
_CAL_CODE = np.sign(_CAL_RNG.standard_normal(512))
_CAL_PHASE = np.linspace(0.0, 50.0, 2048)


def _calibration_kernel():
    """A fixed mix of the program's kinds of work, on no adradar code.

    A sliding-window matrix-vector correlation, an elementwise complex
    rotation, a random draw and a Python-level loop.
    """
    views = np.lib.stride_tricks.sliding_window_view(_CAL_WINDOW, len(_CAL_CODE))
    profile = np.abs(views @ _CAL_CODE)
    rotated = _CAL_WINDOW * np.exp(1j * _CAL_PHASE)
    noise = np.random.default_rng(7).standard_normal(len(_CAL_WINDOW))
    total = 0.0
    for value in profile[:400]:
        total += float(value)
    return total + float(np.vdot(rotated, rotated).real) + float(noise.sum())


def calibrate(busy_s=0.0):
    """Mean seconds of one calibration kernel, run for ``CALIB_SHARE`` of ``busy_s``."""
    reps, start = 0, perf_counter()
    while reps < CALIB_MIN_REPS or perf_counter() - start < CALIB_SHARE * busy_s:
        _calibration_kernel()
        reps += 1
    return (perf_counter() - start) / reps


@dataclass
class Pass:
    wall_s: float               # raw wall time of the pass's points
    trials: int
    raw_point_s: list
    point_s: list               # scaled to the reference speed
    csv: str


@dataclass
class Phase:
    workers: int
    passes: list = field(default_factory=list)
    failed_points: int = 0
    attempted_points: int = 0
    tracer: Tracer = None
    wall_s: float = 0.0
    calib_s: float = 0.0        # the latest calibration kernel time

    def trials_per_s(self, raw=False):
        """Trials over the summed point times of all passes, scaled unless ``raw``."""
        times = (p.raw_point_s if raw else p.point_s for p in self.passes)
        return sum(p.trials for p in self.passes) / sum(map(sum, times))

    def point_s_p50(self, raw=False):
        """Median over the sweep's points of each point's mean time over passes."""
        repeats = zip(*(p.raw_point_s if raw else p.point_s for p in self.passes))
        return statistics.median(statistics.fmean(times) for times in repeats)

    def deterministic(self):
        return all(p.csv == self.passes[0].csv for p in self.passes)


def measure(workload, seed, seconds, workers, between_passes=None, traced=False):
    """Replay whole passes of ``workload`` until they have taken ``seconds``.

    One untimed two-trial point runs first, so lazy set-up (the beam design
    cache, BLAS initialisation, the first pool start) is not timed.
    ``between_passes(phase)`` runs after each pass, outside the timed passes.
    """
    os.environ["ADRADAR_WORKERS"] = str(workers)
    scenario = Scenario()
    first = workload.points()[0]
    workload.run_point(scenario, seed, 2, *first)
    phase = Phase(workers=workers, tracer=Tracer() if traced else None,
                  calib_s=calibrate())
    with phase.tracer or contextlib.nullcontext():
        start = perf_counter()
        while sum(p.wall_s for p in phase.passes) < seconds or not phase.passes:
            phase.passes.append(_one_pass(workload, scenario, seed, phase))
            if between_passes is not None:
                between_passes(phase)
    phase.wall_s = perf_counter() - start
    return phase


def _one_pass(workload, scenario, seed, phase):
    rows, times, scaled = [], [], []
    for p_tx, x in workload.points():
        phase.attempted_points += 1
        args = (scenario, seed, workload.trials, p_tx, x)
        t0 = perf_counter()
        try:
            if phase.tracer is None:
                rows += workload.run_point(*args)
            else:
                rows += phase.tracer.call("bench.point", workload.run_point, *args)
        except Exception:
            traceback.print_exc()
            phase.failed_points += 1
        elapsed = perf_counter() - t0
        after = calibrate(elapsed)
        times.append(elapsed)
        scaled.append(elapsed * CALIB_REF_S / statistics.fmean((phase.calib_s, after)))
        phase.calib_s = after
    return Pass(wall_s=sum(times), trials=len(times) * workload.trials,
                raw_point_s=times, point_s=scaled, csv=format_csv(rows))


def ok_trial_frac(csv_text):
    """Successful estimator runs over runs attempted (a ``both`` trial is two runs)."""
    ok = failed = 0
    for row in csv.DictReader(io.StringIO(csv_text)):
        ok += int(row["trials"])
        failed += int(row["failures"])
    return ok / (ok + failed) if ok + failed else 0.0


def peak_rss_mb(children=True):
    """Peak resident set of this process, or of any finished child, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def reference_path(name, seed):
    return REFERENCE_DIR / f"{name}-seed{seed}.csv"


def reference_csv(workload, seed, workers):
    """The workload's sweep at ``REFERENCE_TRIALS`` trials a point, as CSV."""
    os.environ["ADRADAR_WORKERS"] = str(workers)
    scenario = Scenario()
    rows = []
    for p_tx, x in workload.points():
        rows += workload.run_point(scenario, seed, REFERENCE_TRIALS, p_tx, x)
    return format_csv(rows)


def compare_csv(got, want):
    """Mismatches between two result CSVs; empty when they agree.

    Rows agree when ``x``, ``estimator``, ``p_tx_dbm``, ``trials`` and
    ``failures`` are identical and ``nmse``, ``ci_lo``, ``ci_hi`` are within
    ``REL_TOL`` relative.
    """
    if got == want:
        return []
    got_rows = list(csv.DictReader(io.StringIO(got)))
    want_rows = list(csv.DictReader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, expected {len(want_rows)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        if g.keys() != w.keys():
            return [f"columns {list(g)}, expected {list(w)}"]
        for key in w:
            if key in ("nmse", "ci_lo", "ci_hi"):
                a, b = float(g[key]), float(w[key])
                ok = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
            else:
                ok = g[key] == w[key]
            if not ok:
                problems.append(f"row {i} {key}: {g[key]} != {w[key]}")
    return problems


def check_references(name, workload, workers):
    problems = []
    for seed in REFERENCE_SEEDS:
        want = reference_path(name, seed).read_text(encoding="utf-8")
        got = reference_csv(workload, seed, workers)
        problems += [f"{name} seed {seed}: {p}" for p in compare_csv(got, want)]
    return problems


def check_trace(traced, untraced):
    """The wrappers change no byte of the CSV, and self times are consistent."""
    problems = []
    if traced.passes[0].csv != untraced.passes[0].csv:
        problems.append("traced CSV differs from untraced")
    own = self_times(traced.tracer.spans)
    if min(own) < 0:
        problems.append(f"negative self time {min(own)} s")
    if sum(own) > traced.wall_s:
        problems.append(f"self times sum to {sum(own)} s, more than the "
                        f"{traced.wall_s} s wall")
    return problems


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit of the metrics a ``--trace 0`` run reports.
END_TO_END = {
    "trials_per_s": "1/s",
    "point_s_p50": "s",
    "ok_trial_frac": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

ESTIMATOR_ERRORS = ("NoTargetError", "DetectionShortfallError",
                    "SingularDesignError", "AssociationError")

# name -> unit.  Calls and work counts are per Monte Carlo trial; self_ms is
# the mean self time of one call unless the unit says otherwise.
PER_LAYER = {
    "sequences.correlation_profile.calls": "1/trial",
    "sequences.correlation_profile.self_ms": "ms/call",
    "sequences.correlation_profile.macs": "MAC/trial",
    "sequences.build_preamble.calls": "1/trial",
    "echo.synthesize_frame.calls": "1/trial",
    "echo.synthesize_frame.self_ms": "ms/call",
    "echo.synthesize_frame.samples": "1/trial",
    "baseline.delay_doppler_map.self_ms": "ms/call",
    "baseline.delay_doppler_map.cells": "1/trial",
    "baseline.baseline_velocities.self_ms": "ms/call",
    "baseline.failures.DetectionShortfallError": "1/trial",
    "estimator.run_pipeline.self_ms": "ms/call",
    "estimator.estimate_delays.self_ms": "ms/call",
    "estimator.lse.calls": "1/trial",
    "estimator.lse.self_ms": "ms/call",
    "estimator.build_shift_matrix.self_ms": "ms/call",
    "estimator.lse_coefficients.self_ms": "ms/call",
    **{f"estimator.failures.{e}": "1/trial" for e in ESTIMATOR_ERRORS},
    "scene.build_scene.calls": "1/trial",
    "scene.build_scene.self_ms": "ms/call",
    "scene.frame_truth.calls": "1/trial",
    "scene.frame_truth.self_ms": "ms/call",
    "scene.scene_backscatter.calls": "1/trial",
    "scene.scene_backscatter.self_ms": "ms/call",
    "phasedarray.design_wide_beam.calls": "1/setup",
    "phasedarray.design_wide_beam.self_ms": "ms/call",
    "harness.run_experiment.self_ms": "ms/trial",
    "harness.aggregate.self_ms": "ms/point",
    "harness.pool_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(traced, untraced_w1, untraced, beam_calls, beam_self_s):
    """Per-layer metrics from a traced single-worker phase.

    ``untraced_w1`` gives the tracing overhead; ``untraced`` ran with
    ``POOL_WORKERS`` harness workers and gives the pool efficiency:
    single-worker busy time in ``run_experiment`` per pass, over workers x
    the untraced wall time of a pass.
    """
    summary = summarize(traced.tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0, "errors": {}}
    trials = sum(p.trials for p in traced.passes)
    points = sum(len(p.point_s) for p in traced.passes)

    def get(name):
        return summary.get(name, empty)

    def per_call_ms(*names):
        calls = get(names[0])["calls"]
        return 1e3 * sum(get(n)["self_s"] for n in names) / calls if calls else 0.0

    # Single-worker busy time in run_experiment per pass, without the tracing
    # overhead: the untraced single-worker pass time times the traced share.
    traced_s = sum(p.wall_s for p in traced.passes)
    busy_share = get("harness.run_experiment")["total_s"] / traced_s
    busy = busy_share * statistics.median(p.wall_s for p in untraced_w1.passes)
    wall = statistics.median(p.wall_s for p in untraced.passes)
    values = {
        "sequences.correlation_profile.calls":
            get("sequences.correlation_profile")["calls"] / trials,
        "sequences.correlation_profile.self_ms":
            per_call_ms("sequences.correlation_profile"),
        "sequences.correlation_profile.macs":
            get("sequences.correlation_profile")["work"] / trials,
        "sequences.build_preamble.calls": get("sequences.build_preamble")["calls"] / trials,
        "echo.synthesize_frame.calls": get("echo.synthesize_frame")["calls"] / trials,
        "echo.synthesize_frame.self_ms": per_call_ms("echo.synthesize_frame"),
        "echo.synthesize_frame.samples": get("echo.synthesize_frame")["work"] / trials,
        "baseline.delay_doppler_map.self_ms": per_call_ms("baseline.delay_doppler_map"),
        "baseline.delay_doppler_map.cells":
            get("baseline.delay_doppler_map")["work"] / trials,
        "baseline.baseline_velocities.self_ms":
            per_call_ms("baseline.baseline_velocities"),
        "baseline.failures.DetectionShortfallError":
            get("baseline.baseline_velocities")["errors"].get(
                "DetectionShortfallError", 0) / trials,
        "estimator.run_pipeline.self_ms": per_call_ms("estimator.run_pipeline"),
        "estimator.estimate_delays.self_ms": per_call_ms("estimator.estimate_delays"),
        "estimator.lse.calls": get("estimator.build_shift_matrix")["calls"] / trials,
        "estimator.lse.self_ms":
            per_call_ms("estimator.build_shift_matrix", "estimator.lse_coefficients"),
        "estimator.build_shift_matrix.self_ms":
            per_call_ms("estimator.build_shift_matrix"),
        "estimator.lse_coefficients.self_ms": per_call_ms("estimator.lse_coefficients"),
        **{f"estimator.failures.{e}":
           get("estimator.run_pipeline")["errors"].get(e, 0) / trials
           for e in ESTIMATOR_ERRORS},
        "scene.build_scene.calls": get("scene.build_scene")["calls"] / trials,
        "scene.build_scene.self_ms": per_call_ms("scene.build_scene"),
        "scene.frame_truth.calls": get("scene.frame_truth")["calls"] / trials,
        "scene.frame_truth.self_ms": per_call_ms("scene.frame_truth"),
        "scene.scene_backscatter.calls": get("scene.scene_backscatter")["calls"] / trials,
        "scene.scene_backscatter.self_ms": per_call_ms("scene.scene_backscatter"),
        "phasedarray.design_wide_beam.calls": beam_calls,
        "phasedarray.design_wide_beam.self_ms": 1e3 * beam_self_s,
        "harness.run_experiment.self_ms":
            1e3 * get("harness.run_experiment")["self_s"] / trials,
        "harness.aggregate.self_ms":
            1e3 * (get("harness.nmse")["self_s"]
                   + get("harness.bootstrap_ci")["self_s"]) / points,
        "harness.pool_efficiency": busy / (untraced.workers * wall),
        "trace.overhead_frac":
            1.0 - traced.trials_per_s() / untraced_w1.trials_per_s(),
    }
    return values


def machine_info(workers, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers": workers,
        "seed": seed,
        "platform": platform.platform(),
    }
