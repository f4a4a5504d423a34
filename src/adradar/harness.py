"""Experiment orchestration: Monte Carlo trials, NMSE aggregation, sweeps, CSV.

Every random draw derives from (seed, trial, stream, ...) seed sequences, so
runs are reproducible bit-for-bit regardless of worker count, and common
random numbers carry across sweep points that share trial indices.  The
substreams are

    [seed, trial, 0, m]   noise of the full frame m (frame 0 and the
                          proposed estimator's frames)
    [seed, trial, 1]      Rayleigh backscatter gains
    [seed, 2]             bootstrap resamples of the NMSE interval
    [seed, trial, 3]      noise of frames 1..M-1 of the delay-Doppler map
                          over its window, drawn in frame order

numpy's SeedSequence pads a key with zeros up to four words, so [a, b],
[a, b, 0] and [a, b, 0, 0] are one stream: a key such as [seed, trial, 0]
would be frame 0's noise, and [seed, 2] is trial 2's frame-0 noise.

The ADRADAR_WORKERS environment variable sets the worker count (default 1, at
most the CPU count).  Only a multi-worker run imports the process pool.
"""

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .baseline import baseline_velocities, delay_doppler_map, map_columns, map_window
from .echo import synthesize_frame, synthesize_window, with_noise
from .errors import AggregationError, EstimationError, ScenarioError
from .estimator import PipelineConfig, detection_threshold, run_pipeline
from .scene import (Scenario, Scene, build_scene, check_db, draw_betas,
                    frame_truth, frame_truths, scene_backscatter)
from .sequences import PREAMBLE_LEN, build_preamble, correlation_profile, correlation_segment

_STREAM_NOISE = 0
_STREAM_BETA = 1
_STREAM_BOOTSTRAP = 2
_STREAM_MAP = 3

# Map frames 1 to M-1 per correlator call and noise draw.  At M = 129 on a
# 2-core x86-64 VM, 32 and 64 lose to cache misses, and 8 runs baseline trials
# 0.92-0.93x as fast as 16 for 0.6 MiB less peak RSS.
_MAP_BLOCK = 16

_CI_RESAMPLES = 500   # bootstrap resamples behind each NMSE interval
_CI_LEVEL = 0.95

# ``ExperimentConfig.estimators`` choice -> estimator names it runs, in CSV
# row order.
ESTIMATORS = {"proposed": ("proposed",), "baseline": ("baseline",),
              "both": ("proposed", "baseline")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment over a fixed scenario."""

    cpi_s: float = None           # None: use the scenario value
    trials: int = None            # None: use the scenario value
    p_tx_dbm: float = None        # None: use the scenario value
    m_i_offset: int = None        # None: use the scenario value
    estimators: str = "proposed"  # a key of ESTIMATORS
    seed: int = None              # None: use the scenario value

    def __post_init__(self):
        for name in ("trials", "m_i_offset", "seed"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.estimators not in ESTIMATORS:
            raise ValueError(f"unknown estimator selection {self.estimators!r}")
        for name in ("cpi_s", "p_tx_dbm"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.p_tx_dbm is not None:
            check_db("p_tx_dbm", self.p_tx_dbm)

    def resolve(self, scenario: Scenario) -> "ExperimentConfig":
        """This experiment with every unset field taken from ``scenario``."""
        return replace(self, **{
            name: getattr(scenario, name)
            for name in ("cpi_s", "trials", "p_tx_dbm", "m_i_offset", "seed")
            if getattr(self, name) is None})


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: truth, per-estimator estimates or failure text."""

    trial: int
    seed: int
    true_velocities: tuple
    estimates: dict               # estimator name -> tuple of velocities
    failures: dict                # estimator name -> error message
    wrap_counts: tuple = ()
    delays: tuple = ()


def _check_moving(true_v, error: type) -> None:
    """``error`` if a target is stationary: its relative error is undefined."""
    stationary = np.flatnonzero(np.any(np.atleast_2d(true_v) == 0, axis=0))
    if stationary.size:
        raise error(f"target {stationary[0]} has true velocity 0 m/s; "
                    "its relative error is undefined")


def _relative_squared_errors(records, estimator: str) -> np.ndarray:
    """(trial, target) squared relative velocity errors of the successful trials."""
    ok = [r for r in records if estimator in r.estimates]
    if not ok:
        raise AggregationError(f"no successful trials for {estimator!r}")
    true_v = np.array([r.true_velocities for r in ok])
    _check_moving(true_v, AggregationError)
    est_v = np.array([r.estimates[estimator] for r in ok])
    return ((true_v - est_v) / true_v) ** 2


def nmse(records, estimator: str = "proposed") -> float:
    """Mean over targets of the empirical mean squared relative velocity error.

    Trials that failed for the estimator are excluded.

    Raises
    ------
    AggregationError
        If no trial succeeded, or a target is stationary.
    """
    return float(np.mean(_relative_squared_errors(records, estimator), axis=0).mean())


def bootstrap_ci(records, estimator: str, seed: int):
    """Percentile bootstrap confidence interval of the NMSE over trials."""
    errors = _relative_squared_errors(records, estimator)
    rng = np.random.default_rng([seed, _STREAM_BOOTSTRAP])
    idx = rng.integers(0, len(errors), size=(_CI_RESAMPLES, len(errors)))
    stats = errors[idx].mean(axis=(1, 2))
    lo, hi = np.quantile(stats, [(1 - _CI_LEVEL) / 2, (1 + _CI_LEVEL) / 2])
    return float(lo), float(hi)


def _noiseless_frame(scene, h, m):
    """The read-only noiseless frame m of ``scene``."""
    echo = synthesize_frame(scene, frame_truth(scene, m), h)
    echo.samples.flags.writeable = False
    return echo


def _noiseless_block(scene, h, m_count, start, k_start, n):
    """The read-only noiseless map block of ``scene`` from frame ``start``
    over samples [k_start, k_start + n)."""
    truths = frame_truths(scene, range(start, min(start + _MAP_BLOCK, m_count)))
    block = synthesize_window(scene, h, truths, k_start, n)
    block.samples.flags.writeable = False
    return block


def _run_trials(scenario: Scenario, exp: ExperimentConfig, trials, point) -> list:
    """Records of consecutive ``trials`` of a resolved experiment, in order.

    ``point`` is the experiment's one scene, its pinned-gain h and its
    pipeline configuration.  A fixed-gain run builds each noiseless frame
    once, and each map block once for consecutive trials with one map
    window; a Rayleigh trial builds its own frames and blocks from its own
    gains, which enter only its h.
    """
    scene, h, cfg = point
    m_count = cfg.m_d + 1
    true_v = tuple(scene.velocities.tolist())
    echo = functools.cache(functools.partial(_noiseless_frame, scene, h))
    block = functools.lru_cache(maxsize=-(-(m_count - 1) // _MAP_BLOCK))(
        functools.partial(_noiseless_block, scene, h, m_count))
    records = []
    for trial in trials:
        if scenario.beta_mode == "rayleigh":
            # A trial uses each frame once, keeping none.
            h = scene_backscatter(scene, draw_betas(scenario, np.random.default_rng(
                [exp.seed, trial, _STREAM_BETA])))
            echo = functools.partial(_noiseless_frame, scene, h)
            block = functools.partial(_noiseless_block, scene, h, m_count)
        records.append(_run_trial(exp, trial, scene, echo, block, m_count, cfg, true_v))
    return records


def _run_trial(exp: ExperimentConfig, trial: int, scene: Scene, echo, block,
               m_count: int, cfg: PipelineConfig, true_v: tuple) -> TrialRecord:
    """One trial on ``scene``, whose noiseless frame m is ``echo(m)`` and
    whose map block from frame ``start`` is ``block(start, k_start, n)``.

    Frame 0, and frames m_i and m_d when the proposed estimator runs, are
    whole, each with the noise of substream [seed, trial, 0, m], as if
    synthesized at once.  The baseline takes frame 0's map column from the
    profile that picks its ``map_window``, then ``map_columns`` of frames 1
    to M-1 over that window's samples (zeros past an echo) in blocks of
    ``_MAP_BLOCK`` frames, streamed into ``delay_doppler_map`` one at a time.
    Each block draws its noise at once from one generator per trial, [seed,
    trial, 3]: frame by frame, (2, width) draws in order.
    """
    s_c = correlation_segment(build_preamble())  # for the baseline's frame-0 profile
    names = ESTIMATORS[exp.estimators]
    whole = {0, cfg.m_i, cfg.m_d} if "proposed" in names else {0}
    frames = {m: with_noise(echo(m), scene.noise_clutter_var, np.random.default_rng(
                  [exp.seed, trial, _STREAM_NOISE, m])) for m in sorted(whole)}
    estimates, failures = {}, {}
    wraps, delays = (), ()
    for name in names:
        try:
            if name == "proposed":
                res = run_pipeline(frames, scene.wf, scene.source_velocity,
                                   scene.tx_power, cfg)
                velocities = res.velocities
                wraps = tuple(res.doppler.wrap_count.tolist())
                delays = tuple(res.delays[0].delays.tolist())
            else:
                profile0 = correlation_profile(s_c, frames[0].samples)
                window, column0 = map_window(frames[0], profile0)
                map_rng = np.random.default_rng([exp.seed, trial, _STREAM_MAP])
                columns = itertools.chain((column0,), (map_columns(with_noise(
                    block(start, window.k_start, window.samples.shape[-1]),
                    scene.noise_clutter_var, map_rng), window)
                    for start in range(1, m_count, _MAP_BLOCK)))
                ddm = delay_doppler_map(columns, window, scene.wf.frame_period)
                velocities = baseline_velocities(ddm, scene.source_velocity, scene.wf.wavelength,
                                                 cfg.expected_targets, cfg.threshold, cfg.guard)
            estimates[name] = tuple(velocities.tolist())
        except EstimationError as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    return TrialRecord(trial=trial, seed=exp.seed, true_velocities=true_v,
                       estimates=estimates, failures=failures,
                       wrap_counts=wraps, delays=delays)


def _worker_count() -> int:
    """ADRADAR_WORKERS (default 1), capped at the CPU count."""
    raw = os.environ.get("ADRADAR_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"ADRADAR_WORKERS must be an integer >= 1, got {raw!r}")
    return min(workers, os.cpu_count() or 1)


def _set_up(scenario: Scenario, exp: ExperimentConfig):
    """(resolved ``exp``, its trials, (scene, pinned-gain h, PipelineConfig)) of one
    experiment, m_d = M - 1 and m_i = m_d - m_i_offset.  ValueError if the CPI holds
    fewer than two frames or the offset is not in [1, M - 1]; then ScenarioError for
    a delay spread too long for frame 0, m_i or m_d, or an overflowing threshold."""
    exp = exp.resolve(scenario)
    m_d = scenario.waveform().frames_per_cpi(exp.cpi_s) - 1
    m_i = m_d - exp.m_i_offset
    if not 0 <= m_i < m_d:
        raise ValueError(f"m_i offset {exp.m_i_offset} not in [1, M-1] for M={m_d + 1}")
    scene = build_scene(scenario, p_tx_dbm=exp.p_tx_dbm)
    for truth in frame_truths(scene, (0, m_i, m_d)):
        spread = int(truth.delay_samples[-1] - truth.delay_samples[0])
        if spread + PREAMBLE_LEN > scene.wf.frame_len:
            raise ScenarioError(f"delay spread {spread} + preamble {PREAMBLE_LEN} > frame_len "
                                f"{scene.wf.frame_len} samples at frame {truth.frame}")
    threshold = float(detection_threshold(scene.noise_clutter_var)) * scenario.threshold_scale
    if threshold == np.inf:
        raise ScenarioError("threshold_scale makes the detection threshold overflow")
    return exp, range(exp.trials), (scene, scene_backscatter(scene), PipelineConfig(
        m_d=m_d, m_i=m_i, threshold=threshold, expected_targets=scenario.num_targets,
        search_halfwidth=scenario.search_halfwidth, guard=scenario.guard))


def _run_points(scenario: Scenario, set_ups):
    """Each ``_set_up`` point's records from ``_run_trials``, in trial order, yielded
    point by point.  With more than one worker one process pool serves the call: its
    tasks are (point, run) pairs in point order, one even run of trials a worker."""
    workers = min([_worker_count(), *(len(trials) for _, trials, _ in set_ups)])
    if workers == 1:
        while set_ups:  # popped, so a point's scene and the preamble it caches go with its trials
            yield _run_trials(scenario, *set_ups.pop(0))
        return
    tasks = [(exp, trials[len(trials) * w // workers:len(trials) * (w + 1) // workers], point)
             for exp, trials, point in set_ups for w in range(workers)]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool, contextlib.closing(
            pool.map(_run_trials, [scenario] * len(tasks), *zip(*tasks))) as runs:
        for _ in set_ups:  # closing cancels the tasks left if the caller stops early
            yield [record for run in itertools.islice(runs, workers) for record in run]


def run_experiment(scenario: Scenario, exp: ExperimentConfig):
    """Run all trials of one experiment after ``_set_up``, in trial order."""
    (records,) = _run_points(scenario, [_set_up(scenario, exp)])
    return records


def _point_rows(exp, x_value, records):
    """CSV rows of one sweep point's records, one per estimator."""
    for name in ESTIMATORS[exp.estimators]:
        try:  # a nearly stationary target's relative error may overflow
            with np.errstate(over="raise"):
                value = nmse(records, name)
                lo, hi = bootstrap_ci(records, name, exp.seed)
        except (AggregationError, FloatingPointError) as exc:
            raise AggregationError(f"{exc} at x={x_value}") from exc
        n_fail = sum(1 for r in records if name in r.failures)
        yield {"x": x_value, "estimator": name, "p_tx_dbm": exp.p_tx_dbm,
               "nmse": value, "ci_lo": lo, "ci_hi": hi,
               "trials": len(records) - n_fail, "failures": n_fail}


def _sweep_rows(scenario, points):
    """CSV rows of every (resolved experiment, x value) point, in order.  No
    target may be stationary, and every point is set up, in order, before the
    first trial, so the first point that fails raises its own error."""
    _check_moving(scenario.target_velocities_mps, ScenarioError)
    set_ups = [_set_up(scenario, exp) for exp, _ in points]
    # map binds no name to a point's records, so they go once its rows are made
    return list(itertools.chain.from_iterable(
        map(_point_rows, *zip(*points), _run_points(scenario, set_ups))))


def sweep_framegap(scenario: Scenario, exp: ExperimentConfig, gaps):
    """NMSE of the proposed estimator versus the frame gap m_d - m_i, m_d pinned
    to M-1: each gap overrides ``exp.m_i_offset``, and "proposed" ``exp.estimators``.
    All gaps share trial seeds (common random numbers)."""
    exp = exp.resolve(scenario)
    return _sweep_rows(scenario, [
        (replace(exp, m_i_offset=int(gap), estimators="proposed"), int(gap))
        for gap in gaps])


def sweep_cpi(scenario: Scenario, exp: ExperimentConfig, cpis, p_tx_dbm_grid=None):
    """NMSE of ``exp``'s estimators versus CPI duration: each CPI overrides
    ``exp.cpi_s``, and each power of ``p_tx_dbm_grid``, if given, ``exp.p_tx_dbm``."""
    exp = exp.resolve(scenario)
    powers = [exp.p_tx_dbm] if p_tx_dbm_grid is None else list(p_tx_dbm_grid)
    return _sweep_rows(scenario, [
        (replace(exp, cpi_s=float(cpi), p_tx_dbm=float(p_tx)), float(cpi))
        for p_tx in powers for cpi in cpis])


CSV_HEADER = ("x", "estimator", "p_tx_dbm", "nmse", "ci_lo", "ci_hi",
              "trials", "failures")


def format_csv(rows) -> str:
    """Render result rows deterministically (floats to 12 significant digits)."""
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        lines.append(",".join(
            format(row[key], ".12g") if isinstance(row[key], float) else str(row[key])
            for key in CSV_HEADER))
    return "\n".join(lines) + "\n"
