import argparse
import concurrent.futures
import functools
import json
import os
import shlex
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import adradar.baseline
import adradar.harness
import adradar.selftest
from adradar import cli
from adradar.baseline import (baseline_velocities, delay_doppler_map, map_columns,
                              map_window)
from adradar.cli import run_cli
from adradar.echo import EchoFrame, synthesize_frame, synthesize_window, with_noise
from adradar.errors import AggregationError, EstimationError, ScenarioError
from adradar.estimator import (PipelineConfig, detection_threshold, raw_doppler,
                               run_pipeline)
from adradar.harness import (CSV_HEADER, ESTIMATORS, ExperimentConfig,
                             TrialRecord, _worker_count, bootstrap_ci,
                             format_csv, nmse, run_experiment, sweep_cpi,
                             sweep_framegap)
from adradar.scene import (Scenario, Scene, build_scene, draw_betas, frame_truth,
                           frame_truths, load_scenario, save_scenario,
                           scene_backscatter)
from adradar.sequences import (CORR_SEGMENT_OFFSET, build_preamble,
                               correlation_profile, correlation_segment,
                               generate_golay_pair)
from adradar.selftest import CHECKS


def record(true_v, est_v, trial=0):
    return TrialRecord(trial=trial, seed=1, true_velocities=tuple(true_v),
                       estimates={"proposed": tuple(est_v)}, failures={})


def failed_record(true_v, trial=0):
    return TrialRecord(trial=trial, seed=1, true_velocities=tuple(true_v),
                       estimates={}, failures={"proposed": "NoTargetError: x"})


def test_nmse_perfect_estimates():
    recs = [record([20.0, 25.0], [20.0, 25.0], t) for t in range(5)]
    assert nmse(recs) == 0.0


def test_nmse_single_target_arithmetic():
    recs = [record([20.0], [22.0], t) for t in range(7)]
    assert nmse(recs) == pytest.approx(0.01, rel=1e-12)


def test_nmse_averages_over_targets():
    # per-target MSEs 0.01 and 0.03 -> 0.02
    recs = [record([10.0, 10.0], [11.0, 10.0 + np.sqrt(3)], t) for t in range(3)]
    assert nmse(recs) == pytest.approx(0.02, rel=1e-12)


def test_nmse_excludes_failures_and_errors_when_empty():
    recs = [record([20.0], [21.0]), failed_record([20.0], trial=1)]
    assert nmse(recs) == pytest.approx(0.0025, rel=1e-12)
    with pytest.raises(AggregationError):
        nmse([failed_record([20.0])])


def test_stationary_target_is_an_aggregation_error():
    recs = [record([20.0, 0.0], [20.1, 0.05], t) for t in range(3)]
    with pytest.raises(AggregationError, match="target 1"):
        nmse(recs)
    with pytest.raises(AggregationError, match="target 1"):
        bootstrap_ci(recs, "proposed", seed=1)


def test_bootstrap_ci_brackets_point_estimate():
    rng = np.random.default_rng(2)
    recs = [record([20.0], [20.0 + rng.normal(0, 0.1)], t) for t in range(50)]
    point = nmse(recs)
    lo, hi = bootstrap_ci(recs, "proposed", seed=1)
    assert lo <= point <= hi
    assert lo < hi
    # deterministic given the seed
    assert (lo, hi) == bootstrap_ci(recs, "proposed", seed=1)


def test_run_experiment_record_shape():
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=3, estimators="both")
    records = run_experiment(scn, exp)
    assert [r.trial for r in records] == [0, 1, 2]
    for r in records:
        assert set(r.estimates) | set(r.failures) >= {"proposed", "baseline"}
        assert len(r.true_velocities) == 3
        if "proposed" in r.estimates:
            assert len(r.estimates["proposed"]) == 3
            assert len(r.wrap_counts) == 3


def test_zero_frame0_coefficient_fails_the_trial_not_the_sweep(monkeypatch):
    with pytest.raises(EstimationError):
        raw_doppler(1.0, 0.0, 160.4)

    def pipeline_with_a_zero_coefficient(*args):
        return raw_doppler(1.0, 0.0, 160.4)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "run_pipeline",
                        pipeline_with_a_zero_coefficient)
    records = run_experiment(Scenario(), ExperimentConfig(cpi_s=2e-4, trials=2))
    assert [r.failures for r in records] == [
        {"proposed": "ZeroCoefficientError: frame-0 coefficient is zero"}] * 2


def test_experiment_trials_deterministic_and_independent():
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=4)
    a = run_experiment(scn, exp)
    b = run_experiment(scn, exp)
    assert [r.estimates for r in a] == [r.estimates for r in b]
    # per-trial results depend only on (seed, trial): a shorter run matches
    c = run_experiment(scn, ExperimentConfig(cpi_s=2e-4, trials=2))
    assert [r.estimates for r in c] == [r.estimates for r in a[:2]]


def test_worker_count_does_not_change_results(monkeypatch):
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=4)
    serial = run_experiment(scn, exp)
    monkeypatch.setenv("ADRADAR_WORKERS", "2")
    parallel = run_experiment(scn, exp)
    assert [r.estimates for r in serial] == [r.estimates for r in parallel]


def lag_samples(frame, lags):
    """The samples of ``frame`` that the correlation lags ``lags`` read,
    sliced by hand, with zeros where they run past the frame's echo."""
    width = len(lags) + 511
    first = int(lags[0]) - frame.first_lag + width
    return np.pad(frame.samples, width)[first:first + width]


def map_window_frame(scene, h, m, lags, rng):
    """Frame m synthesized without noise, over the samples the map lags read,
    plus one (2, width) noise draw from ``rng``."""
    frame = synthesize_frame(scene, frame_truth(scene, m), h)
    samples = lag_samples(frame, lags)
    sigma = np.sqrt(scene.noise_clutter_var / 2.0)
    z = rng.standard_normal((2, len(samples)))
    noisy = np.empty_like(samples)
    noisy.real, noisy.imag = samples.real + sigma * z[0], samples.imag + sigma * z[1]
    return EchoFrame(m=m, k_start=int(lags[0]) + CORR_SEGMENT_OFFSET, samples=noisy)


def oracle_records(scn, exp):
    """``run_experiment``'s records, each trial built on its own: its scene,
    then every frame of its CPI from ``synthesize_frame(scene,
    frame_truth(...))`` plus ``with_noise`` from the substream [seed, trial, 0, m]
    and, for Rayleigh gains, the gain substream [seed, trial, 1].  The
    baseline reads frame 0's ``map_window`` and then, for m = 1 to M-1 in
    order, ``map_window_frame`` with the next noise block of the one
    substream [seed, trial, 3], each correlated on its own by
    ``map_columns``, frame 0 too."""
    exp = exp.resolve(scn)
    records = []
    for trial in range(exp.trials):
        betas = None
        if scn.beta_mode == "rayleigh":
            betas = draw_betas(scn, np.random.default_rng([exp.seed, trial, 1]))
        scene = build_scene(scn, p_tx_dbm=exp.p_tx_dbm)
        h, wf = scene_backscatter(scene, betas), scene.wf
        m_count = wf.frames_per_cpi(exp.cpi_s)
        frames = [with_noise(synthesize_frame(scene, frame_truth(scene, m), h),
                             scene.noise_clutter_var,
                             np.random.default_rng([exp.seed, trial, 0, m]))
                  for m in range(m_count)]
        threshold = detection_threshold(scene.noise_clutter_var) * scn.threshold_scale
        cfg = PipelineConfig(m_d=m_count - 1, m_i=m_count - 1 - exp.m_i_offset,
                             threshold=threshold, expected_targets=scn.num_targets,
                             search_halfwidth=scn.search_halfwidth, guard=scn.guard)
        estimates, failures, wraps, delays = {}, {}, (), ()
        for name in ESTIMATORS[exp.estimators]:
            try:
                if name == "proposed":
                    res = run_pipeline(dict(enumerate(frames)), wf,
                                       scene.source_velocity, scene.tx_power, cfg)
                    velocities = res.velocities
                    wraps = tuple(int(n) for n in res.doppler.wrap_count)
                    delays = tuple(int(d) for d in res.delays[0].delays)
                else:
                    profile0 = correlation_profile(
                        correlation_segment(build_preamble()), frames[0].samples)
                    window, _ = map_window(frames[0], profile0)
                    lags = window.first_lag + np.arange(len(window.samples) - 511)
                    map_rng = np.random.default_rng([exp.seed, trial, 3])
                    cut = [map_window_frame(scene, h, m, lags, map_rng)
                           for m in range(1, m_count)]
                    ddm = delay_doppler_map([map_columns(f, window) for f in [window] + cut],
                                            window, wf.frame_period)
                    velocities = baseline_velocities(
                        ddm, scene.source_velocity, wf.wavelength,
                        scn.num_targets, threshold, guard=scn.guard)
                estimates[name] = tuple(float(v) for v in velocities)
            except EstimationError as exc:
                failures[name] = f"{type(exc).__name__}: {exc}"
        records.append(TrialRecord(
            trial=trial, seed=exp.seed,
            true_velocities=tuple(scn.target_velocities_mps),
            estimates=estimates, failures=failures, wrap_counts=wraps,
            delays=delays))
    return records


# On two workers each case splits into two runs of consecutive trials, and
# the cases together reach both estimators' failure paths.
SHARING_CASES = {
    "proposed-gap1": (Scenario(), ExperimentConfig(
        cpi_s=6e-4, trials=10, p_tx_dbm=10.0, m_i_offset=1, seed=11)),
    "proposed-gap6": (Scenario(), ExperimentConfig(
        cpi_s=6e-4, trials=10, p_tx_dbm=10.0, m_i_offset=6, seed=11)),
    "baseline": (Scenario(), ExperimentConfig(
        cpi_s=2e-4, trials=10, p_tx_dbm=0.0, estimators="baseline", seed=4)),
    "both": (Scenario(), ExperimentConfig(
        cpi_s=2e-4, trials=10, p_tx_dbm=10.0, estimators="both", seed=3)),
    "rayleigh": (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=2e-4, trials=10, estimators="both")),
    "clutter": (Scenario(clutter_ratio=1e-10), ExperimentConfig(
        cpi_s=2e-4, trials=10, estimators="both")),
}


@pytest.fixture(scope="module")
def oracles():
    return {name: oracle_records(*case) for name, case in SHARING_CASES.items()}


def test_the_sharing_cases_reach_every_failure_path(oracles):
    failed = {name for records in oracles.values() for r in records
              for name in r.failures}
    assert failed == {"proposed", "baseline"}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(SHARING_CASES))
def test_shared_noiseless_frames_give_the_per_trial_records(monkeypatch, oracles,
                                                            case, workers):
    monkeypatch.setenv("ADRADAR_WORKERS", workers)
    assert run_experiment(*SHARING_CASES[case]) == oracles[case]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", ["both", "rayleigh"])
def test_the_estimator_selection_does_not_change_an_estimators_results(
        monkeypatch, case, workers):
    # Each estimator reads its own noise substreams, so running it alone or
    # beside the other gives the same estimates and failures.
    monkeypatch.setenv("ADRADAR_WORKERS", workers)
    scn, exp = SHARING_CASES[case]
    both = run_experiment(scn, replace(exp, estimators="both"))
    for name in ("proposed", "baseline"):
        alone = run_experiment(scn, replace(exp, estimators=name))
        assert ([(r.estimates.get(name), r.failures.get(name)) for r in alone]
                == [(r.estimates.get(name), r.failures.get(name)) for r in both])
        assert any(name in r.estimates for r in alone)


def test_a_baseline_trial_draws_only_frame_0_whole(monkeypatch):
    # Frames m_i and m_d are the proposed estimator's; the baseline reads
    # frame 0 whole and frames 1 to M-1 cut to its map window.
    scn, exp = SHARING_CASES["baseline"]
    scene = build_scene(scn, p_tx_dbm=exp.p_tx_dbm)
    m_count = scene.wf.frames_per_cpi(exp.cpi_s)
    whole = len(synthesize_frame(scene, frame_truth(scene, 0)).samples)
    lengths = []

    def counting_with_noise(frame, noise_clutter_var, rng):
        # one entry per frame the draw covers: a block counts its rows
        width = frame.samples.shape[-1]
        lengths.extend([width] * (frame.samples.size // width))
        return with_noise(frame, noise_clutter_var, rng)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "with_noise", counting_with_noise)
    runs = {}
    for selection, whole_per_trial in (("baseline", 1), ("both", 3)):
        lengths.clear()
        runs[selection] = run_experiment(scn, replace(exp, estimators=selection))
        assert lengths.count(whole) == whole_per_trial * exp.trials
        assert len(lengths) == (whole_per_trial + m_count - 1) * exp.trials
    assert ([(r.trial, r.true_velocities, r.estimates.get("baseline"),
              r.failures.get("baseline")) for r in runs["baseline"]]
            == [(r.trial, r.true_velocities, r.estimates.get("baseline"),
                 r.failures.get("baseline")) for r in runs["both"]])


# At -5 dBm, noise moves the map window of trials 0, 3 and 4 to another
# peak, so the second case rebuilds its blocks at trials 0, 1, 3 and 5.
@pytest.mark.parametrize("scn, exp, built", [
    (Scenario(), ExperimentConfig(cpi_s=1e-3, trials=3, p_tx_dbm=20.0,
                                  estimators="baseline", seed=11), [0]),
    (Scenario(), ExperimentConfig(cpi_s=2e-4, trials=6, p_tx_dbm=-5.0,
                                  estimators="baseline", seed=0), [0, 1, 3, 5]),
    (Scenario(), ExperimentConfig(cpi_s=5e-4, trials=2, p_tx_dbm=20.0,
                                  estimators="both", seed=11), [0]),
    (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=5e-4, trials=3, estimators="baseline", seed=7), [0, 1, 2]),
], ids=["fixed", "fixed-moving-window", "fixed-both", "rayleigh"])
def test_a_point_synthesizes_each_whole_frame_and_map_block_once(monkeypatch,
                                                                 scn, exp, built):
    # Whole frames are frame 0 and, for the proposed estimator, m_i and m_d:
    # once a point at fixed gains, once a trial at Rayleigh gains.  The map's
    # frames 1 to M-1 are only ever built over its window, in blocks: a
    # fixed-gain point builds a trial's blocks again only when its window
    # differs from the trial before, a Rayleigh trial always.
    whole, blocks, windows = [], [], []

    def counting_frame(scene, truth, h):
        whole.append(truth.frame)
        return synthesize_frame(scene, truth, h)

    def counting_window(scene, h, truths, k_start, n):
        blocks.append(([t.frame for t in truths], k_start, n))
        return synthesize_window(scene, h, truths, k_start, n)

    def recording_map(columns, window, frame_period):
        windows.append((window.k_start, len(window.samples)))
        return delay_doppler_map(columns, window, frame_period)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "synthesize_frame", counting_frame)
    monkeypatch.setattr(adradar.harness, "synthesize_window", counting_window)
    monkeypatch.setattr(adradar.harness, "delay_doppler_map", recording_map)
    run_experiment(scn, exp)
    m_count = build_scene(scn).wf.frames_per_cpi(exp.cpi_s)
    m_i = m_count - 1 - exp.resolve(scn).m_i_offset
    frames = [0, m_i, m_count - 1] if exp.estimators == "both" else [0]
    rayleigh = scn.beta_mode == "rayleigh"
    assert whole == frames * (exp.trials if rayleigh else 1)
    assert len(windows) == exp.trials
    assert built == [t for t in range(exp.trials)
                     if rayleigh or t == 0 or windows[t] != windows[t - 1]]
    assert blocks == [(list(range(start, min(start + 16, m_count))), *windows[t])
                      for t in built for start in range(1, m_count, 16)]


def test_the_map_frames_are_common_across_cpis(monkeypatch):
    # Frame m's map noise is the m-th block of its trial's map stream, so a
    # longer CPI begins with the shorter CPI's frames, bit for bit.
    maps = []  # each run's map window, then every item it correlates

    def recording_window(frame0, profile0):
        window, column0 = map_window(frame0, profile0)
        maps.append([window])
        return window, column0

    def recording_columns(frame, window):
        maps[-1].append(frame)
        return map_columns(frame, window)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "map_window", recording_window)
    monkeypatch.setattr(adradar.harness, "map_columns", recording_columns)
    for cpi_s in (5e-4, 1e-3):
        run_experiment(Scenario(), ExperimentConfig(
            cpi_s=cpi_s, trials=1, estimators="baseline", seed=5))
    def frame_rows(items):
        # (frame, k_start, samples) of every frame, each block split into rows
        return [(item.m + r, item.k_start, row) for item in items
                for r, row in enumerate(np.atleast_2d(item.samples))]

    short, long = (frame_rows(items) for items in maps)
    assert 2 < len(short) < len(long)
    assert [a[0] for a in short] == list(range(len(short)))
    for a, b in zip(short, long):
        assert a[:2] == b[:2]
        assert np.array_equal(a[2], b[2])
    # every frame, frame 0 included, is on frame 0's map window
    assert {(a[1], len(a[2])) for a in long} == {(long[0][1], len(long[0][2]))}


def dense_map(scn, exp, trial):
    """(lags, values) of trial ``trial``'s baseline map, rebuilt frame by
    frame without the package's correlator or map.  The noisy windows are
    the harness's stream layout: frame 0 whole with the noise of
    [seed, trial, 0, 0], whose profile gives the map lags (those within 128
    of its dominant peak, clipped to the profile), and frames 1 to M-1 over
    the samples the map lags read, zero-padded
    where those run past frame m's echo, with the m-th (2, width) draw of
    [seed, trial, 3].  Each is correlated by ``np.correlate`` against
    [-Ga, -Gb, -Ga, +Gb]; ``np.fft.fft`` then runs over the frames."""
    exp = exp.resolve(scn)
    betas = None
    if scn.beta_mode == "rayleigh":
        betas = draw_betas(scn, np.random.default_rng([exp.seed, trial, 1]))
    scene = build_scene(scn, p_tx_dbm=exp.p_tx_dbm)
    h = scene_backscatter(scene, betas)
    ga, gb = generate_golay_pair()
    s_c = np.concatenate([-ga, -gb, -ga, gb])

    def profile(x):  # sum_k s_c[k] conj(x[l + k]); s_c is real
        return np.conj(np.correlate(x, s_c, "valid"))

    frame0 = with_noise(synthesize_frame(scene, frame_truth(scene, 0), h),
                        scene.noise_clutter_var,
                        np.random.default_rng([exp.seed, trial, 0, 0]))
    profile0 = profile(frame0.samples)
    dominant = int(np.argmax(np.abs(profile0)))
    rows = np.arange(max(dominant - 128, 0), min(dominant + 128, len(profile0) - 1) + 1)
    lags = frame0.first_lag + rows
    columns = [profile0[rows]]
    rng = np.random.default_rng([exp.seed, trial, 3])
    sigma = np.sqrt(scene.noise_clutter_var / 2.0)
    for m in range(1, scene.wf.frames_per_cpi(exp.cpi_s)):
        window = lag_samples(synthesize_frame(scene, frame_truth(scene, m), h), lags)
        z = rng.standard_normal((2, len(window)))
        columns.append(profile(window + sigma * z[0] + 1j * sigma * z[1]))
    return lags, np.fft.fft(np.stack(columns, axis=1), axis=1)


# Target 2 at 17.9285 m sits near a rounding boundary: its delay steps from
# 211 to 210 samples at frame 22, inside the map block of frames 17 to 32.
# At -20 dBm and seed 34, noise moves trial 0's map window to the end of
# frame 0's echo, one sample past the echo of frames 22 to 128.
STEP = (Scenario(target_ranges_m=(14.0, 15.7, 17.9285)), ExperimentConfig(
    cpi_s=1e-3, trials=2, p_tx_dbm=-20.0, estimators="baseline", seed=34))


def test_the_step_case_steps_a_delay_inside_a_block_past_the_window_end():
    scn, exp = STEP
    scene = build_scene(scn, p_tx_dbm=exp.p_tx_dbm)
    last = [frame_truth(scene, m).delay_samples[-1] for m in range(129)]
    assert last[:22] == [211] * 22 and last[22:] == [210] * 107
    # trial 0's window ends where frame 0's echo does, at 211 + 3328
    lags, _ = dense_map(scn, exp, 0)
    assert lags[-1] + CORR_SEGMENT_OFFSET + 512 == 211 + 3328


# M - 1 = 128 map frames fill whole blocks; 63 and 24 leave a shorter last one.
@pytest.mark.parametrize("scn, exp", [
    (Scenario(), ExperimentConfig(cpi_s=1e-3, trials=2, p_tx_dbm=20.0,
                                  estimators="baseline", seed=11)),
    (Scenario(), ExperimentConfig(cpi_s=5e-4, trials=2, p_tx_dbm=0.0,
                                  estimators="both", seed=4)),
    (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=2e-4, trials=3, estimators="baseline", seed=7)),
    STEP,
], ids=["fixed-1ms", "fixed-0dBm", "rayleigh", "delay-step"])
def test_the_baseline_map_matches_a_dense_reference(monkeypatch, scn, exp):
    maps = []

    def recording_map(columns, window, frame_period):
        maps.append(delay_doppler_map(columns, window, frame_period))
        return maps[-1]

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "delay_doppler_map", recording_map)
    run_experiment(scn, exp)
    assert len(maps) == exp.trials
    for trial, ddm in enumerate(maps):
        lags, values = dense_map(scn, exp, trial)
        assert np.array_equal(ddm.lags, lags)
        assert ddm.values.shape == values.shape
        peak = np.max(np.abs(values))
        assert np.max(np.abs(ddm.values - values)) <= 1e-12 * peak
        assert np.array_equal(np.argmax(np.abs(ddm.values), axis=1),
                              np.argmax(np.abs(values), axis=1))


def dense_baseline_velocities(scn, exp, lags, values):
    """The baseline velocities read from a ``dense_map`` by the documented
    rules as plain loops, or the failure's class name: rows whose maximum
    over Doppler bins is above threshold * M * 0.5, picked greedily by that
    maximum (the first on ties) with rows within ``guard`` lags of a pick
    suppressed, then in delay order, each at its strongest bin's centre."""
    scene = build_scene(scn, p_tx_dbm=exp.resolve(scn).p_tx_dbm)
    m_count = values.shape[1]
    threshold = 512 * np.sqrt(scene.noise_clutter_var) * scn.threshold_scale
    map_threshold = threshold * m_count * 0.5
    mag = np.abs(values).tolist()
    row_max = [max(row) for row in mag]
    alive = [i for i in range(len(lags)) if row_max[i] > map_threshold]
    picks = []
    while alive and len(picks) < scn.num_targets:
        best = alive[0]
        for i in alive:
            if row_max[i] > row_max[best]:
                best = i
        picks.append(best)
        alive = [i for i in alive if abs(int(lags[i]) - int(lags[best])) > scn.guard]
    if len(picks) < scn.num_targets:
        return "DetectionShortfallError"
    bins = -np.fft.fftfreq(m_count, d=scene.wf.frame_period)
    velocities = []
    for i in sorted(picks, key=lambda i: lags[i]):
        q = mag[i].index(row_max[i])  # the first strongest bin
        velocities.append(float(scn.source_velocity_mps
                                - bins[q] * scene.wf.wavelength / 2.0))
    return velocities


@st.composite
def baseline_cases(draw):
    """A one-trial baseline experiment: 1 to 4 targets in range order, up to
    20 m/s either side of the source, any gains and guard, 0 to 30 dBm, and
    a CPI of M = 12 to 129 frames."""
    count = draw(st.integers(1, 4))
    first = draw(st.floats(5.0, 18.0))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=count - 1, max_size=count - 1))
    v_s = Scenario.source_velocity_mps
    scn = Scenario(
        target_velocities_mps=tuple(draw(st.lists(
            st.floats(v_s - 20.0, v_s + 20.0), min_size=count, max_size=count))),
        target_ranges_m=tuple(first + sum(gaps[:p]) for p in range(count)),
        target_azimuths_rad=tuple(draw(st.lists(
            st.floats(-0.2, 0.2), min_size=count, max_size=count))),
        target_elevations_rad=(0.0,) * count,
        beta_mode=draw(st.sampled_from(["fixed", "rayleigh"])),
        guard=draw(st.integers(0, 40)))
    m_count = draw(st.integers(12, 129))
    exp = ExperimentConfig(cpi_s=(m_count + 0.5) * scn.waveform().frame_period,
                           trials=1, p_tx_dbm=draw(st.floats(0.0, 30.0)),
                           estimators="baseline", seed=draw(st.integers(0, 2 ** 16)))
    return scn, exp


@settings(max_examples=60, deadline=None)
@given(case=baseline_cases())
def test_any_scene_reads_the_baseline_velocities_the_dense_map_gives(case):
    scn, exp = case
    scene = build_scene(scn, p_tx_dbm=exp.p_tx_dbm)
    try:
        frame_truths(scene, range(scene.wf.frames_per_cpi(exp.cpi_s)))
    except ScenarioError:
        assume(False)  # delays collide or cross
    maps = []

    def recording_map(columns, window, frame_period):
        maps.append(delay_doppler_map(columns, window, frame_period))
        return maps[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("ADRADAR_WORKERS", "1")
        monkeypatch.setattr(adradar.harness, "delay_doppler_map", recording_map)
        (rec,) = run_experiment(scn, exp)
    lags, values = dense_map(scn, exp, 0)
    assert np.array_equal(maps[0].lags, lags) and maps[0].values.shape == values.shape
    assert np.max(np.abs(maps[0].values - values)) <= 1e-12 * np.max(np.abs(values))
    want = dense_baseline_velocities(scn, exp, lags, values)
    got = rec.failures.get("baseline", "ok").split(":")[0]
    event(got)
    assert got == (want if isinstance(want, str) else "ok")
    if got == "ok":
        assert list(rec.estimates["baseline"]) == want


# The Doppler, and so every estimator's input, depends on the velocities
# only through V_s - V_p, so adding c to all of them moves each estimate by
# c.  Rounding of (V_s + c) - (V_p + c) leaves up to a few 1e-16 relative.
# The Rayleigh case fails 9 proposed and 6 baseline trials of its 12.
@pytest.mark.parametrize("shift", [3.0, 0.7, -1.3, 12.345])
@pytest.mark.parametrize("scn, exp", [
    (Scenario(), ExperimentConfig(cpi_s=6e-4, trials=12, p_tx_dbm=10.0,
                                  estimators="both", seed=2)),
    (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=2e-4, trials=12, p_tx_dbm=8.0, estimators="both", seed=2)),
], ids=["fixed", "rayleigh"])
def test_shifting_every_velocity_by_c_shifts_every_estimate_by_c(scn, exp, shift):
    moved = replace(scn, source_velocity_mps=scn.source_velocity_mps + shift,
                    target_velocities_mps=tuple(v + shift
                                                for v in scn.target_velocities_mps))
    before, after = run_experiment(scn, exp), run_experiment(moved, exp)
    for a, b in zip(before, after):
        assert b.failures == a.failures
        assert (b.wrap_counts, b.delays) == (a.wrap_counts, a.delays)
        assert b.estimates.keys() == a.estimates.keys()
        for name, estimates in a.estimates.items():
            moved_back = np.array(b.estimates[name]) - shift
            np.testing.assert_allclose(moved_back, estimates, rtol=1e-15, atol=0)
    assert {name for r in before for name in r.estimates} == {"proposed", "baseline"}


def test_the_noise_and_gain_keys_are_distinct_streams():
    # SeedSequence pads a key with zeros up to four words, so a key such as
    # [seed, trial, 0] would be frame 0's noise stream; the keys in use differ.
    def state(key):
        return np.random.default_rng(key).bit_generator.state["state"]["state"]

    assert state([7, 2]) == state([7, 2, 0]) == state([7, 2, 0, 0])
    for seed in (0, 7):
        keys = ([[seed, t, 0, m] for t in range(4) for m in range(6)]
                + [[seed, t, 1] for t in range(4)] + [[seed, t, 3] for t in range(4)])
        assert len({state(key) for key in keys}) == len(keys)


@pytest.fixture
def pool_log(monkeypatch):
    """What an in-process stand-in for the process pool is given, in order:
    each pool's worker count, then (CPI, start, stop) of each run it maps."""
    log = []

    class RecordingPool:
        def __init__(self, max_workers):
            log.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            log.append([(exp.cpi_s, run.start, run.stop)
                        for exp, run in zip(columns[1], columns[2])])
            return (fn(*task) for task in zip(*columns))

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # The harness imports the pool from concurrent.futures when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return log


@pytest.mark.parametrize("workers, trials, runs", [
    (2, 8, [(0, 4), (4, 8)]), (2, 3, [(0, 1), (1, 3)]), (3, 2, [(0, 1), (1, 2)]),
    (2, 1, None)])
def test_the_pool_gets_one_even_run_of_trials_per_worker(monkeypatch, pool_log, workers,
                                                         trials, runs):
    monkeypatch.setenv("ADRADAR_WORKERS", str(workers))
    exp = ExperimentConfig(cpi_s=2e-4, trials=trials, seed=2)
    records = run_experiment(Scenario(), exp)
    assert [r.trial for r in records] == list(range(trials))
    assert pool_log == ([] if runs is None
                        else [len(runs), [(2e-4, lo, hi) for lo, hi in runs]])


def test_a_sweep_runs_every_point_on_one_pool(monkeypatch, pool_log):
    # The pool takes each point's runs in point order, and the rows are those
    # of one worker, so each point gets back its own runs in trial order.
    exp, cpis = ExperimentConfig(trials=5, seed=2), (2e-4, 3e-4, 4e-4)
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    serial = sweep_cpi(Scenario(), exp, cpis)
    assert pool_log == []
    monkeypatch.setenv("ADRADAR_WORKERS", "2")
    assert sweep_cpi(Scenario(), exp, cpis) == serial
    assert pool_log == [2, [(cpi, lo, hi) for cpi in cpis for lo, hi in ((0, 2), (2, 5))]]


def test_a_sweep_builds_each_points_scene_once(monkeypatch):
    built = []

    def counting_build_scene(*args, **kwargs):
        built.append(kwargs["p_tx_dbm"])
        return build_scene(*args, **kwargs)

    monkeypatch.setattr(adradar.harness, "build_scene", counting_build_scene)
    sweep_cpi(Scenario(), ExperimentConfig(cpi_s=2e-4, trials=1), [2e-4], [10.0, 20.0])
    assert built == [10.0, 20.0]


def test_a_single_worker_sweep_lets_each_points_scene_go_with_its_trials(monkeypatch):
    # A scene caches its rotated preamble (160 KB for three targets) in its
    # trials, so a sweep that kept every point's scene would hold one a point.
    scenes = []

    def run_trials(scenario, exp, trials, point):
        assert [ref() for ref in scenes] == [None] * len(scenes)
        scenes.append(weakref.ref(point[0]))
        return original(scenario, exp, trials, point)

    original = adradar.harness._run_trials
    monkeypatch.setattr(adradar.harness, "_run_trials", run_trials)
    sweep_cpi(Scenario(), ExperimentConfig(trials=1), [2e-4, 3e-4, 4e-4])
    assert len(scenes) == 3


def test_a_baseline_trial_streams_its_frames(monkeypatch):
    # Two M = 129 trials hold one trial's eight noiseless map blocks (1.6 MB)
    # and only a few noisy ones, 3.9 MB at the peak; keeping the 128 whole
    # noiseless map frames as well would add 7 MB.
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    exp = ExperimentConfig(cpi_s=1e-3, trials=2, estimators="baseline")
    run_experiment(Scenario(), exp)  # warm the per-process caches
    tracemalloc.start()
    try:
        run_experiment(Scenario(), exp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("raw", ["0", "-3", "abc", "2.5", ""])
def test_worker_count_rejects_non_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("ADRADAR_WORKERS", raw)
    with pytest.raises(ValueError, match="ADRADAR_WORKERS"):
        _worker_count()


def test_worker_count_defaults_to_one_and_caps_at_cpu_count(monkeypatch):
    monkeypatch.delenv("ADRADAR_WORKERS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ADRADAR_WORKERS", "64")
    assert _worker_count() == 2
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    assert _worker_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setenv("ADRADAR_WORKERS", "4")
    assert _worker_count() == 1


@pytest.mark.parametrize("fields, message", [
    ({"trials": 0}, "trials must be >= 1"),
    ({"estimators": "dense"}, "unknown estimator selection 'dense'")],
    ids=["trials", "estimators"])
def test_an_experiment_needs_a_trial_and_a_known_estimator_selection(fields, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)


# From Python these would fail later as bare TypeErrors (range, SeedSequence,
# a slice index) or, for True, run as 1; numpy integers are integers.
@pytest.mark.parametrize("field", ["trials", "m_i_offset", "seed"])
@pytest.mark.parametrize("value", [2.5, 1.0, True, "3"], ids=repr)
def test_an_experiments_integer_fields_take_only_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        ExperimentConfig(**{field: value})
    assert getattr(ExperimentConfig(**{field: np.int64(3)}), field) == 3


def test_sweep_framegap_shape_and_crn():
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=2)
    rows = sweep_framegap(scn, exp, gaps=(1, 2, 3))
    assert [row["x"] for row in rows] == [1, 2, 3]
    assert all(row["estimator"] == "proposed" for row in rows)
    with pytest.raises(ValueError):
        sweep_framegap(scn, exp, gaps=(0,))
    with pytest.raises(ValueError):
        sweep_framegap(scn, exp, gaps=(500,))


def test_sweep_cpi_checks_every_point_before_running_any(monkeypatch):
    calls = []
    monkeypatch.setattr(adradar.harness, "_run_trials", lambda *args: calls.append(args))
    exp = ExperimentConfig(cpi_s=2e-4, trials=2, m_i_offset=6)
    # a CPI shorter than two frames, then one of M = 5 frames, where the
    # m_i offset 6 leaves no frame m_i
    with pytest.raises(ValueError, match="shorter than two frames"):
        sweep_cpi(Scenario(), exp, cpis=(2e-4, 1e-3, 1e-6), p_tx_dbm_grid=(20.0,))
    with pytest.raises(ValueError, match=r"m_i offset 6 not in \[1, M-1\] for M=5"):
        sweep_cpi(Scenario(), exp, cpis=(2e-4, 4e-5), p_tx_dbm_grid=(20.0,))
    assert calls == []


# Frame 0 is correlated once, whole, and its map column is sliced from that
# profile; frames 1 to M-1 take one correlator call per block of 16.
@pytest.mark.parametrize("cpi_s, calls", [(2e-4, 3), (5e-4, 5), (1e-3, 9)])
def test_a_baseline_trial_correlates_frame_0_once_and_each_map_block_once(
        monkeypatch, cpi_s, calls):
    callers = []
    for module in (adradar.harness, adradar.baseline):
        def counting(s_c, window, module=module, original=module.correlation_profile):
            callers.append(module.__name__)
            return original(s_c, window)
        monkeypatch.setattr(module, "correlation_profile", counting)
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    records = run_experiment(Scenario(), ExperimentConfig(
        cpi_s=cpi_s, trials=2, p_tx_dbm=20.0, estimators="baseline", seed=1))
    assert all("baseline" in r.estimates for r in records)
    m_count = build_scene(Scenario()).wf.frames_per_cpi(cpi_s)
    assert calls == 1 + -(-(m_count - 1) // 16)
    assert callers == (["adradar.harness"] + ["adradar.baseline"] * (calls - 1)) * 2


def test_a_baseline_trial_never_transforms_the_whole_map(monkeypatch):
    # baseline_velocities transforms only the rows that can peak; the whole
    # map's DFT is left to whoever reads ``values``.
    maps = []

    def recording_map(columns, window, frame_period):
        maps.append(delay_doppler_map(columns, window, frame_period))
        return maps[-1]

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "delay_doppler_map", recording_map)
    records = run_experiment(Scenario(), ExperimentConfig(
        cpi_s=1e-3, trials=2, p_tx_dbm=20.0, estimators="baseline", seed=1))
    assert all("baseline" in r.estimates for r in records)
    assert len(maps) == 2
    assert not any("values" in ddm.__dict__ for ddm in maps)


def test_a_rayleigh_run_rotates_the_preamble_of_one_scene(monkeypatch):
    # Every Rayleigh trial synthesizes on the pinned scene with its own
    # gains, so the rotated preamble is computed once per run.
    rotated = Scene.rotated_preamble
    scenes = []

    def recording(scene):
        scenes.append(scene)
        return rotated.func(scene)

    recording_property = functools.cached_property(recording)
    recording_property.__set_name__(Scene, "rotated_preamble")
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(Scene, "rotated_preamble", recording_property)
    records = run_experiment(Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=2e-4, trials=4, estimators="both", seed=5))
    assert len(records) == 4
    assert len(scenes) == 1


@pytest.mark.parametrize("beta_mode", ["fixed", "rayleigh"])
def test_an_experiment_builds_one_scene(monkeypatch, beta_mode):
    # A Scene holds no gains: a Rayleigh trial computes only its h.
    built = []

    def counting_build_scene(*args, **kwargs):
        built.append(build_scene(*args, **kwargs))
        return built[-1]

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "build_scene", counting_build_scene)
    records = run_experiment(Scenario(beta_mode=beta_mode), ExperimentConfig(
        cpi_s=2e-4, trials=6, estimators="both", seed=5))
    assert len(records) == 6
    assert len(built) == 1


@pytest.mark.parametrize("overrides", [{"beta_mode": "rayleigh"},
                                       {"clutter_ratio": 1e-10}],
                         ids=["rayleigh", "clutter"])
def test_random_gains_and_clutter_run_alike_on_any_worker_count(monkeypatch,
                                                                overrides):
    # Failed trials are counted, not asserted away: with Rayleigh gains a
    # faded target can lose to a stronger one's preamble sidelobe.
    scn = Scenario(**overrides)
    exp = ExperimentConfig(cpi_s=2e-4, trials=12, estimators="both")
    csvs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("ADRADAR_WORKERS", workers)
        rows = sweep_cpi(scn, exp, [exp.cpi_s])
        assert [row["trials"] + row["failures"] for row in rows] == [12, 12]
        csvs.append(format_csv(rows))
    assert csvs[0] == csvs[1]


def test_rayleigh_gains_repeat_per_seed_and_trial(monkeypatch):
    drawn = []

    def recording_draw_betas(scn, rng):
        drawn.append(draw_betas(scn, rng))
        return drawn[-1]

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "draw_betas", recording_draw_betas)
    scn = Scenario(beta_mode="rayleigh")
    for trials, seed in ((3, 1), (2, 1), (1, 2)):
        run_experiment(scn, ExperimentConfig(cpi_s=2e-4, trials=trials, seed=seed))
    first, again, other_seed = drawn[:3], drawn[3:5], drawn[5]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    pairs = [(first[0], first[1]), (first[0], first[2]), (first[1], first[2]),
             (first[0], other_seed)]
    assert not any(np.any(a == b) for a, b in pairs)
    assert all(np.all(b != 1) for b in drawn)


def test_sweep_cpi_shape():
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=2, estimators="both")
    rows = sweep_cpi(scn, exp, cpis=(2e-4, 4e-4), p_tx_dbm_grid=(10.0, 20.0))
    assert len(rows) == 2 * 2 * 2
    assert {row["estimator"] for row in rows} == {"proposed", "baseline"}
    assert {row["p_tx_dbm"] for row in rows} == {10.0, 20.0}


def test_unset_experiment_fields_come_from_the_scenario():
    scn = Scenario(cpi_s=4e-4, trials=3, m_i_offset=2, p_tx_dbm=7.0, seed=5)
    resolved = ExperimentConfig().resolve(scn)
    assert (resolved.cpi_s, resolved.trials, resolved.m_i_offset,
            resolved.p_tx_dbm, resolved.seed) == (4e-4, 3, 2, 7.0, 5)
    explicit = ExperimentConfig(cpi_s=2e-4, trials=4, p_tx_dbm=10.0,
                                m_i_offset=1, seed=9)
    assert explicit.resolve(scn) == explicit
    # the scenario's trial count, not the Scenario class default of 200
    rows = sweep_cpi(Scenario(trials=3), ExperimentConfig(cpi_s=2e-4), [2e-4])
    assert rows[0]["trials"] + rows[0]["failures"] == 3
    # and the scenario's CPI, not the Scenario class default of 0.5 ms
    exp = ExperimentConfig(trials=2, estimators="both")
    assert (run_experiment(Scenario(cpi_s=2e-4), exp)
            == run_experiment(Scenario(), replace(exp, cpi_s=2e-4)))


def test_format_csv_layout():
    rows = [{"x": 1, "estimator": "proposed", "p_tx_dbm": 10.0,
             "nmse": 1.5e-6, "ci_lo": 1e-6, "ci_hi": 2e-6,
             "trials": 10, "failures": 0}]
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("1,proposed,10,1.5e-06")
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--cpi", "2e-4", "--trials", "5", "--seed", "7",
            "--output"]
    assert run_cli(args + [str(out1)]) == 0
    assert run_cli(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_scenario_file_and_unknown_flag(tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(Scenario(trials=3), path)
    out = tmp_path / "out.csv"
    rc = run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                  "--output", str(out)])
    assert rc == 0
    assert out.read_text().count("\n") == 2  # header + one row
    assert run_cli(["simulate", "--bogus-flag"]) == 1
    assert run_cli(["not-a-command"]) == 1


# Each subcommand's flags: every flag the CLI has is read by its subcommand.
CLI_FLAGS = {
    "simulate": "--scenario --cpi --trials --p-tx-dbm --seed --mi-offset --output "
                "--estimator",
    "sweep-cpi": "--scenario --trials --seed --mi-offset --output --cpis --p-tx-grid",
    "sweep-framegap": "--scenario --cpi --trials --p-tx-dbm --seed --output --gaps",
    "beam-pattern": "--scenario --resolution --output",
    "selftest": "",
}


def subparsers(parser):
    """Subcommand name -> its parser."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def flags_of(parser):
    """A parser's option strings, in definition order, without -h/--help."""
    return [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings]


def test_cli_each_subcommand_has_exactly_its_flags_and_no_abbreviations():
    parser = cli._build_parser()
    commands = subparsers(parser)
    assert {name: flags_of(p) for name, p in commands.items()} == {
        name: flags.split() for name, flags in CLI_FLAGS.items()}
    assert sum(len(flags_of(p)) for p in commands.values()) == 25
    assert not parser.allow_abbrev
    assert not any(p.allow_abbrev for p in commands.values())


# A value other than the default of each flag that reaches the experiment.
NON_DEFAULT = {"--cpi": ["2e-4"], "--trials": ["3"], "--p-tx-dbm": ["30"],
               "--seed": ["9"], "--mi-offset": ["3"], "--estimator": ["both"],
               "--cpis": ["2e-4"], "--p-tx-grid": ["30"], "--gaps": ["2", "5"]}


@pytest.mark.parametrize("command", ["simulate", "sweep-cpi", "sweep-framegap"])
def test_cli_every_flag_of_a_run_reaches_the_harness(monkeypatch, tmp_path, capsys,
                                                      command):
    seen = []
    dummy = [dict.fromkeys(CSV_HEADER, 0)]

    def record_points(scenario, points):
        seen.append((scenario, list(points)))
        return dummy

    monkeypatch.setattr(adradar.harness, "_sweep_rows", record_points)
    path = tmp_path / "scn.json"
    save_scenario(Scenario(threshold_scale=2.0), path)
    values = dict(NON_DEFAULT, **{"--scenario": [str(path)]})
    out = tmp_path / "out.csv"
    assert run_cli([command, "--output", str(out)]) == 0
    assert out.read_text() == format_csv(dummy)
    assert capsys.readouterr().out == ""
    default = seen.pop()
    for flag in flags_of(subparsers(cli._build_parser())[command]):
        if flag != "--output":
            assert run_cli([command, flag, *values[flag]]) == 0
            assert seen.pop() != default, flag


@pytest.mark.parametrize("argv", [
    ["sweep-cpi", "--trials", "2", "--cpi", "5e-4"],
    ["sweep-cpi", "--trials", "2", "--p-tx-dbm", "30"],
    ["sweep-framegap", "--trials", "2", "--mi-offset", "3"],
    ["simulate", "--cpi", "2e-4", "--tri", "2"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_cli_a_removed_or_abbreviated_flag_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert f"usage: adradar {argv[0]}" in err  # the subcommand's usage
    assert not out.exists()


def test_cli_an_unwritable_output_fails_before_any_trial(monkeypatch, tmp_path,
                                                          capsys):
    def no_trials(scenario, points):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(adradar.harness, "_sweep_rows", no_trials)
    out = tmp_path / "no-such-dir" / "x.csv"
    for command in ("simulate", "sweep-cpi", "sweep-framegap"):
        assert run_cli([command, "--output", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
    assert not out.parent.exists()


def test_cli_a_run_that_fails_after_starting_leaves_no_file(tmp_path):
    path = tmp_path / "scn.json"
    save_scenario(Scenario(trials=2, threshold_scale=1e9), path)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                    "--output", str(out)]) == 2
    assert not out.exists()
    # A file that was there before a failed run is left as it was.
    out.write_text("kept\n")
    assert run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                    "--output", str(out)]) == 2
    assert out.read_text() == "kept\n"


def readme_cli_commands():
    """The argv of every ``adradar`` command in README.md's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("adradar ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert sorted(argv[0] for argv in commands) == sorted(CLI_FLAGS)
    parser = cli._build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_cli_bad_scenario_path_is_config_error(tmp_path):
    assert run_cli(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("text", ["[]", "3", '"scenario"', "null"])
def test_cli_a_scenario_file_without_a_json_object_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "scn.json"
    path.write_text(text)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                    "--cpi", "2e-4", "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("adradar: config error: scenario file must "
                                       "hold a JSON object\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("p_tx_dbm", "20"), ("trials", 2.5),
                                        ("frame_len", 13632.5), ("seed", "1")])
def test_cli_scenario_of_wrong_json_type_is_config_error(tmp_path, key, value):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({key: value}))
    assert run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                    "--trials", "2", "--output", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("key, value", [("frame_len", 1000), ("preamble_len", 3000),
                                        ("carrier_hz", 0), ("carrier_hz", -60e9),
                                        ("bandwidth_hz", 0), ("guard", -5),
                                        ("search_halfwidth", -1),
                                        ("threshold_scale", 0),
                                        ("p_tx_dbm", float("nan")),
                                        ("rcs_dbsm", float("inf")),
                                        ("noise_density_dbm_hz", float("inf")),
                                        ("azimuth_beamwidth_rad", float("nan")),
                                        ("azimuth_beamwidth_rad", 0.0),
                                        ("target_ranges_m", [14, float("inf"), 20]),
                                        ("seed", -5)])
def test_cli_scenario_with_bad_waveform_numbers_is_config_error(tmp_path, key, value):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)
    assert run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                    "--trials", "2", "--output", str(tmp_path / "x.csv")]) == 1


# The last case is finite but out of range: a negative seed is rejected at
# the edge, naming the field, not by numpy inside the first trial.
@pytest.mark.parametrize("argv, field", [
    (["simulate", "--cpi", "inf"], "cpi_s"),
    (["simulate", "--cpi", "2e-4", "--p-tx-dbm", "nan"], "p_tx_dbm"),
    (["sweep-cpi", "--cpis", "inf", "--p-tx-grid", "20"], "cpi_s"),
    (["sweep-cpi", "--cpis", "2e-4", "--p-tx-grid", "nan"], "p_tx_dbm"),
    (["simulate", "--cpi", "2e-4", "--seed", "-1"], "seed"),
], ids=["cpi", "p-tx-dbm", "cpis", "p-tx-grid", "seed"])
def test_cli_non_finite_flag_is_config_error(tmp_path, capsys, argv, field):
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--trials", "2", "--output", str(out)]) == 1
    assert f"config error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def no_trials(*args):
    raise AssertionError("a trial ran")


def config_error_before_any_trial(monkeypatch, tmp_path, capsys, argv, scenario):
    """stderr of ``argv`` run on ``scenario`` with a ``_run_trials`` that
    fails the test if called, after checking that the run exits 1 with a
    config error, no traceback or warning, and no output file."""
    monkeypatch.setattr(adradar.harness, "_run_trials", no_trials)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--scenario", str(path), "--trials", "2",
                           "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("adradar: config error: ")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()
    return err


# 10 ** (dBm / 10) overflows a float above about 3,082 dBm.
@pytest.mark.parametrize("argv, scenario", [
    (["simulate", "--p-tx-dbm", "4000"], {}),
    (["sweep-cpi", "--p-tx-grid", "10", "4000"], {}),
    (["simulate"], {"p_tx_dbm": 4000}),
    (["simulate"], {"noise_density_dbm_hz": 1e308}),
], ids=["p-tx-dbm", "p-tx-grid", "scenario-p_tx_dbm", "scenario-noise_density_dbm_hz"])
def test_cli_a_dbm_whose_watts_overflow_is_config_error(monkeypatch, tmp_path, capsys,
                                                         argv, scenario):
    assert "dBm overflows in watts" in config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, argv, scenario)


# N0 is finite at 3080 dBm/Hz but N0 W is not, and -3300 dBm is 0 W.
ZERO_WATTS = "adradar: config error: p_tx_dbm of -3300.0 dBm is 0 W in floating point\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, scenario, message", [
    (["simulate", "--cpi", "2e-4"], {"noise_density_dbm_hz": 3080},
     "adradar: config error: noise_density_dbm_hz of 3080.0 dBm overflows in watts "
     "over 1760000000.0 Hz\n"),
    (["simulate", "--cpi", "2e-4", "--p-tx-dbm", "-3300"], {}, ZERO_WATTS),
    (["sweep-cpi", "--cpis", "2e-4", "--p-tx-grid", "10", "-3300"], {}, ZERO_WATTS),
    (["sweep-framegap", "--cpi", "2e-4", "--p-tx-dbm", "-3300"], {}, ZERO_WATTS),
    (["simulate", "--cpi", "2e-4"], {"p_tx_dbm": -3300}, ZERO_WATTS),
], ids=["scenario-noise-times-bandwidth", "p-tx-dbm", "p-tx-grid", "framegap-p-tx-dbm",
        "scenario-p_tx_dbm"])
def test_cli_a_level_the_scene_cannot_use_is_config_error(monkeypatch, tmp_path, capsys,
                                                          argv, scenario, message):
    assert config_error_before_any_trial(monkeypatch, tmp_path, capsys, argv,
                                         scenario) == message


# 10 ** (dBsm / 10) overflows a float above about 3,082 dBsm and is 0 m^2
# below about -3,240.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rcs_dbsm, message", [
    (4000, "rcs_dbsm of 4000.0 dBsm overflows in square metres"),
    (-4000, "rcs_dbsm of -4000.0 dBsm is 0 m^2 in floating point")])
def test_cli_an_rcs_the_scene_cannot_use_is_config_error(monkeypatch, tmp_path, capsys,
                                                          rcs_dbsm, message):
    assert config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, ["simulate", "--cpi", "2e-4"],
        {"rcs_dbsm": rcs_dbsm}) == f"adradar: config error: {message}\n"


# r^4 underflows to 0 at 1e-300 m and overflows at 1e300 m; at 1e300 m/s the
# first target's delay passes 2^63 samples by frame m_i = 18, where a cast to
# int64 would wrap round.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, message", [
    ({"target_ranges_m": [1e-300, 15.7, 17.9]},
     "radar-equation gain of targets at [1e-300, 15.7, 17.9] m with RCS 100.0 m^2 "
     "is not positive and finite"),
    ({"target_ranges_m": [1e300] * 3},
     "radar-equation gain of targets at [1e+300, 1e+300, 1e+300] m with RCS 100.0 m^2 "
     "is not positive and finite"),
    ({"target_velocities_mps": [1e300, 24.949, 21.806]},
     "target delay past 2^63 samples at frame 18"),
], ids=["range-1e-300", "ranges-1e300", "velocity-1e300"])
def test_cli_a_target_the_scene_cannot_represent_is_config_error(tmp_path, capsys,
                                                                 scenario, message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                    "--cpi", "2e-4", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"adradar: config error: {message}\n"
    assert not out.exists()


# Cases the CLI fuzzer found.  A subnormal bandwidth makes the frame period
# inf, a frame_len past the float range cannot become one, a frame period of
# 1.3632e308 s is finite but two of them are not, 2 (V_s - V_p) overflows at
# the largest float, and 512 sigma_cn is about 5.1 with this clutter, so the
# largest float as the threshold's scale overflows it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, message", [
    ({"bandwidth_hz": 5e-324}, "frame_len 13632 at bandwidth_hz 5e-324 is past 2^63 "
     "samples or the largest float in seconds"),
    ({"frame_len": 10 ** 400}, f"frame_len {10 ** 400} at bandwidth_hz 1760000000.0 is "
     "past 2^63 samples or the largest float in seconds"),
    ({"bandwidth_hz": 1e-304}, "CPI 0.0002 s shorter than two frames of 1.363e+308 s"),
    ({"target_velocities_mps": [20.279, 24.949, -1.7976931348623157e308]},
     "Doppler of [20.279, 24.949, -1.7976931348623157e+308] m/s overflows"),
    ({"threshold_scale": 1.7976931348623157e308, "clutter_ratio": 1e-3},
     "threshold_scale makes the detection threshold overflow"),
], ids=["bandwidth-subnormal", "frame_len-1e400", "frame-period-1e308", "velocity-max-float",
        "threshold-scale"])
def test_cli_a_quantity_past_the_float_range_is_config_error(tmp_path, capsys, scenario,
                                                              message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                    "--cpi", "2e-4", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"adradar: config error: {message}\n"
    assert not out.exists()


# A frame holds its echo when the last delay minus the first, plus the 3328-sample
# preamble, is at most frame_len = 13632 samples: a spread of up to 10304
# samples, which the second target reaches at 891.5 m.  Receding at 3000 m/s,
# it passes that by frame m_i = 18 of the 0.2 ms CPI; at 1e7 m, frame 0 alone
# would span 117 M samples.
TWO_TARGETS = {"target_velocities_mps": [20.279, 21.806], "target_ranges_m": [14.0, 891.5],
               "target_azimuths_rad": [0.0, 0.1], "target_elevations_rad": [0.0, 0.0]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, message", [
    ({"target_ranges_m": [14.0, 15.7, 1e7]},
     "delay spread 117414398 + preamble 3328 > frame_len 13632 samples at frame 0"),
    (dict(TWO_TARGETS, target_ranges_m=[14.0, 891.6]),
     "delay spread 10305 + preamble 3328 > frame_len 13632 samples at frame 0"),
    (dict(TWO_TARGETS, target_velocities_mps=[20.279, 3000.0]),
     "delay spread 10308 + preamble 3328 > frame_len 13632 samples at frame 18"),
], ids=["far-target", "one-sample-past", "receding-past-by-m_i"])
@pytest.mark.parametrize("command", [["simulate"], ["sweep-framegap", "--gaps", "6"]],
                         ids=["simulate", "sweep-framegap"])
def test_cli_a_delay_spread_no_frame_holds_is_config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, scenario, message, command):
    monkeypatch.setattr(adradar.harness, "_run_trials", no_trials)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "x.csv"
    assert run_cli(command + ["--scenario", str(path), "--trials", "2", "--cpi", "2e-4",
                              "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"adradar: config error: {message}\n"
    assert not out.exists()


def test_a_delay_spread_that_just_fits_reaches_the_trials():
    # The far target lies beyond search_halfwidth of the near one, so the trial
    # fails, but as an estimate, not as a configuration.
    scenario = Scenario(**{key: tuple(values) for key, values in TWO_TARGETS.items()})
    record, = run_experiment(scenario, ExperimentConfig(cpi_s=2e-4, trials=1))
    assert not record.estimates and set(record.failures) == {"proposed"}


# run_experiment builds a point's pipeline configuration, and so its
# detection threshold, once, before any trial runs or any pool starts.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_a_threshold_that_overflows_is_config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, workers):
    monkeypatch.setenv("ADRADAR_WORKERS", workers)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(adradar.harness, "_run_trials", no_trials)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"threshold_scale": 1.7976931348623157e308,
                                "clutter_ratio": 1e-3}))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--trials", "2", "--cpi", "2e-4",
                    "--output", str(out)]) == 1
    assert capsys.readouterr().err == ("adradar: config error: threshold_scale makes the "
                                       "detection threshold overflow\n")
    assert not out.exists()


# The far target of TWO_TARGETS receding at 300 m/s: frame 0 holds the pair,
# and at CPI 1e-3 s frame m_i = 122 no longer does.
RECEDING_PAIR = dict(TWO_TARGETS, target_velocities_mps=[20.279, 300.0])
SPREAD_AT_122 = "delay spread 10307 + preamble 3328 > frame_len 13632 samples at frame 122"


# A sweep sets every point up, in sweep order, before the first trial, so the
# first point that fails raises its own error and no point runs a trial.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario, cpis, powers, message", [
    (RECEDING_PAIR, (1e-4, 1e-3), (20.0,), SPREAD_AT_122),
    ({"threshold_scale": 5e307, "clutter_ratio": 1e-3}, (2e-4,), (10.0, 20.0),
     "threshold_scale makes the detection threshold overflow"),
    (RECEDING_PAIR, (1e-3, 1e-6), (20.0,), SPREAD_AT_122),
], ids=["spread-at-the-second-cpi", "threshold-at-the-second-power",
        "spread-before-a-cpi-too-short"])
def test_a_sweep_sets_every_point_up_before_the_first_trial(monkeypatch, scenario, cpis,
                                                            powers, message):
    monkeypatch.setattr(adradar.harness, "_run_trials", no_trials)
    scn = Scenario(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in scenario.items()})
    with pytest.raises(ScenarioError) as info:
        sweep_cpi(scn, ExperimentConfig(trials=2), cpis, p_tx_dbm_grid=powers)
    assert str(info.value) == message


def test_cli_a_sweep_point_that_fails_its_set_up_ends_the_run_before_any_trial(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(adradar.harness, "_run_trials", no_trials)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(RECEDING_PAIR))
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-cpi", "--scenario", str(path), "--trials", "2", "--cpis", "1e-4",
                    "1e-3", "--p-tx-grid", "20", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"adradar: config error: {SPREAD_AT_122}\n"
    assert not out.exists()


# An interrupt propagates, and still a run leaves no file it created.
def test_cli_an_interrupted_run_leaves_no_file_it_created(monkeypatch, tmp_path):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(adradar.harness, "sweep_cpi", interrupt)
    out = tmp_path / "x.csv"
    with pytest.raises(KeyboardInterrupt):
        run_cli(["sweep-cpi", "--output", str(out)])
    assert not out.exists()
    out.write_text("kept\n")
    with pytest.raises(KeyboardInterrupt):
        run_cli(["simulate", "--output", str(out)])
    assert out.read_text() == "kept\n"


# A CPI's frame indices are int64, so cpi_s / frame period must be below
# 2^63: 1e300 s holds about 1.3e305 frames of 7.7 us, and at 1e30 Hz a frame
# lasts 1.4e-26 s, so 0.2 ms holds about 1.5e22.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cpi, scenario", [("1e300", {}), ("2e-4", {"bandwidth_hz": 1e30})],
                         ids=["cpi-1e300", "bandwidth-1e30"])
@pytest.mark.parametrize("command", [["simulate"], ["sweep-framegap", "--gaps", "6"]],
                         ids=["simulate", "sweep-framegap"])
def test_cli_a_cpi_of_2_63_frames_or_more_is_config_error(monkeypatch, tmp_path, capsys,
                                                          cpi, scenario, command):
    assert config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, command + ["--cpi", cpi], scenario
    ) == f"adradar: config error: CPI {float(cpi)} s holds 2^63 frames or more\n"


# The beam design scans 3141 angles over every element: 51 MB of complex
# steering vectors at 32 x 32 = 1024 elements, gigabytes at 100000 x 2.
@pytest.mark.filterwarnings("error")
def test_cli_an_array_past_1024_elements_is_config_error(monkeypatch, tmp_path, capsys):
    assert config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, ["simulate"], {"nx_tx": 1025, "ny_tx": 1}
    ) == "adradar: config error: nx_tx 1025 * ny_tx 1 > 1024 elements\n"
    Scenario(nx_tx=32, ny_tx=32)  # the largest array


# argparse reads an argument that starts with "-" as a flag unless it matches
# its own negative-number pattern, which has no exponent form.
@pytest.mark.parametrize("command, flag, extra", [
    ("simulate", "--p-tx-dbm", ["--cpi", "2e-4"]),
    ("sweep-framegap", "--p-tx-dbm", ["--cpi", "2e-4", "--gaps", "3"]),
    ("sweep-cpi", "--p-tx-grid", ["--cpis", "2e-4"]),
])
def test_cli_reads_a_negative_number_in_exponent_form(tmp_path, command, flag, extra):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"noise_density_dbm_hz": -200.0}))  # -10 dBm still detects
    texts = []
    for value in ("-10", "-1e1", "-1.0E+1"):
        out = tmp_path / f"{value}.csv"
        assert run_cli([command, "--scenario", str(path), "--trials", "2", flag, value,
                        *extra, "--output", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] == texts[2]
    assert ",-10," in texts[0]


# At 1e-300 m/s, an estimate off by more than about 1e-146 m/s has a squared
# relative error past the largest float.
@pytest.mark.filterwarnings("error")
def test_cli_a_relative_error_past_the_largest_float_is_an_estimation_failure(tmp_path,
                                                                              capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"target_velocities_mps": [1e-300], "target_ranges_m": [25.0],
                                "target_azimuths_rad": [0.0],
                                "target_elevations_rad": [0.0]}))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--trials", "1",
                    "--cpi", "2e-4", "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("adradar: estimation failure: overflow "
                                       "encountered in square at x=0.0002\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--cpi", "5e-4"],
    ["sweep-cpi", "--cpis", "2e-4", "5e-4", "--p-tx-grid", "20"],
    ["sweep-framegap", "--cpi", "5e-4", "--gaps", "1", "2"],
], ids=lambda argv: argv[0])
def test_cli_a_stationary_target_is_config_error(monkeypatch, tmp_path, capsys, argv):
    # Its relative velocity error, and so the NMSE, is undefined.
    err = config_error_before_any_trial(
        monkeypatch, tmp_path, capsys, argv,
        {"target_velocities_mps": [0.0, 24.949, 21.806]})
    assert err == ("adradar: config error: target 0 has true velocity 0 m/s; "
                   "its relative error is undefined\n")


def test_run_experiment_runs_a_stationary_target():
    scn = Scenario(target_velocities_mps=(0.0, 24.949, 21.806))
    records = run_experiment(scn, ExperimentConfig(cpi_s=2e-4, trials=2))
    assert [r.true_velocities[0] for r in records] == [0.0, 0.0]


@pytest.mark.parametrize("command", [["simulate", "--cpi", "2e-4", "--trials", "2"],
                                     ["beam-pattern"]], ids=lambda c: c[0])
def test_cli_unreachable_beamwidth_is_config_error(tmp_path, capsys, command):
    # too wide for the search, narrower than the broadside beam, and any
    # width for a single beam
    path = tmp_path / "scn.json"
    out = tmp_path / "x.csv"
    for scenario in ({"azimuth_beamwidth_rad": 10}, {"azimuth_beamwidth_rad": 0.1},
                     {"n_beams": 1}):
        path.write_text(json.dumps(scenario))
        assert run_cli(command + ["--scenario", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: cannot reach target width" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("retired", [{"nx_rx": 4}, {"nx_rx": 2, "ny_rx": 8},
                                     {"first_delay_window": True},
                                     {"preamble_len": 3000}],
                         ids=lambda r: "-".join(f"{k}={v}" for k, v in r.items()))
def test_cli_retired_scenario_key_off_its_value_is_config_error(tmp_path, capsys,
                                                                retired):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(retired))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                    "--trials", "2", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: scenario key {next(iter(retired))!r} is retired" in err
    assert not out.exists()


def test_load_scenario_widens_ints_and_rejects_bools(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"p_tx_dbm": 10, "target_ranges_m": [14, 15.7, 17.9]}))
    scn = load_scenario(path)
    assert scn.p_tx_dbm == 10.0 and isinstance(scn.p_tx_dbm, float)
    assert scn.target_ranges_m == (14, 15.7, 17.9)
    for bad in ({"trials": True}, {"target_ranges_m": ["14", 15.7, 17.9]},
                {"first_delay_window": 1}):
        path.write_text(json.dumps(bad))
        with pytest.raises(ScenarioError):
            load_scenario(path)


def test_cli_estimation_failure_exit_code(tmp_path):
    # impossible detection: scale the threshold far above any correlation
    path = tmp_path / "scn.json"
    save_scenario(Scenario(trials=2, threshold_scale=1e9), path)
    rc = run_cli(["simulate", "--scenario", str(path), "--cpi", "2e-4",
                  "--output", str(tmp_path / "x.csv")])
    assert rc == 2


def test_cli_sweep_framegap_rows(tmp_path):
    out = tmp_path / "gaps.csv"
    rc = run_cli(["sweep-framegap", "--cpi", "2e-4", "--trials", "2",
                  "--gaps", "1", "2", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == list(CSV_HEADER)


def test_cli_sweep_cpi_rows(tmp_path):
    out = tmp_path / "cpi.csv"
    rc = run_cli(["sweep-cpi", "--trials", "2", "--cpis", "2e-4", "4e-4",
                  "--p-tx-grid", "10", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + 2 CPIs x 2 estimators


def test_cli_beam_pattern(tmp_path):
    out = tmp_path / "beam.csv"
    assert run_cli(["beam-pattern", "--resolution", "0.01",
                    "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_rad,gain_db"
    angles = np.array([float(l.split(",")[0]) for l in lines[1:]])
    gains = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert angles.min() > -np.pi / 2 and angles.max() < np.pi / 2
    assert gains.max() == pytest.approx(10 * np.log10(9.086), abs=0.1)


@pytest.mark.parametrize("resolution", ["0", "-1", "4", "1e-12"])
def test_cli_beam_pattern_rejects_a_resolution_outside_0_pi(tmp_path, capsys,
                                                            resolution):
    out = tmp_path / "beam.csv"
    assert run_cli(["beam-pattern", "--resolution", resolution,
                    "--output", str(out)]) == 1
    assert "config error: --resolution" in capsys.readouterr().err
    assert not out.exists()


def test_cli_selftest_passes_every_check_once(capsys):
    assert run_cli(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, _ in CHECKS:
        assert sum(line.startswith(f"[PASS] {name}:") for line in lines) == 1
    assert len(lines) == len(CHECKS)
    assert not any("rrc-nyquist" in line for line in lines)


def test_cli_selftest_reports_a_crashed_check_as_a_fail(monkeypatch, capsys):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(adradar.selftest, "CHECKS", (("crash", crash),) + CHECKS[:1])
    assert run_cli(["selftest"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[FAIL] crash: RuntimeError: boom"
    assert lines[1].startswith(f"[PASS] {CHECKS[0][0]}:") and len(lines) == 2
