"""Differential oracle: the proposed estimator against a dense reference.

The reference shares no code with the package's estimator.  It builds its
own 802.11ad preamble from the Golay recursion, correlates with
``np.correlate``, applies the documented peak rules as plain loops, solves
a dense shift matrix with ``np.linalg.lstsq``, and carries the paper's D_m,
wrap-count and velocity formulas per target.  Like the estimator, it finds
the delays of frames 0, m_i and m_d before any least-squares fit.  It runs
on the noisy frames the harness hands ``run_pipeline``, in fixed cases and
in scenes that hypothesis draws, so every trial must end the same way: the
same failure class, or velocities within 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adradar.estimator
import adradar.harness
from adradar.errors import ScenarioError
from adradar.harness import ExperimentConfig, run_experiment
from adradar.scene import Scenario, build_scene, frame_truths

K_PRE = 3328
SEGMENT_OFFSET = 2048
COND_LIMIT = 1e12


def golay_pair():
    """Ga128, Gb128 by the 802.11ad delay/weight recursion."""
    a = b = np.eye(1, 128, dtype=np.int64)[0]
    for d, w in zip((1, 8, 2, 4, 16, 32, 64), (-1, -1, -1, -1, 1, -1, -1)):
        shifted = np.concatenate([np.zeros(d, dtype=np.int64), b[:128 - d]])
        a, b = w * a + shifted, w * a - shifted
    return a, b


GA, GB = golay_pair()
PREAMBLE = np.concatenate([np.tile(GA, 16), -GA,               # STF
                           -GB, -GA, GB, -GA, -GB, GA, -GB, -GA,  # Gu512, Gv512
                           -GB])
SEGMENT = PREAMBLE[SEGMENT_OFFSET:SEGMENT_OFFSET + 512]


def reference_delays(frame, threshold, count, halfwidth, guard):
    """Sorted delays of one frame, or the name of the failure."""
    mag = np.abs(np.conj(np.correlate(frame.samples, SEGMENT, "valid"))).tolist()
    dom = 0
    for lag in range(len(mag)):
        if mag[lag] > mag[dom]:
            dom = lag
    if mag[dom] <= threshold:
        return "NoTargetError"
    candidates = [dom]
    for lag in range(max(dom - halfwidth, 1), min(dom + halfwidth, len(mag) - 2) + 1):
        if (lag != dom and mag[lag] > threshold and mag[lag] >= mag[lag - 1]
                and mag[lag] >= mag[lag + 1]):
            candidates.append(lag)
    alive, accepted = list(candidates), []
    while len(accepted) < count:
        best = None
        for lag in alive:  # the largest above threshold, the first on ties
            if mag[lag] > threshold and (best is None or mag[lag] > mag[best]):
                best = lag
        if best is None:
            break
        accepted.append(best)
        alive = [lag for lag in alive if abs(lag - best) > guard]
    if len(accepted) != count:
        return "DetectionShortfallError"
    first_lag = frame.k_start - SEGMENT_OFFSET
    return [first_lag + lag for lag in sorted(accepted)]


def reference_coefficients(frame, delays, tx_power):
    """Least-squares h_p over the window from the first delay through the
    last delay's preamble tail, or the name of the failure."""
    rows = K_PRE + delays[-1] - delays[0]
    start = delays[0] - frame.k_start
    if start < 0 or start + rows > len(frame.samples):
        return "LseWindowError"
    s = np.zeros((rows, len(delays)))  # row x is sample delays[0] + x
    for p, ell in enumerate(delays):
        s[ell - delays[0]:ell - delays[0] + K_PRE, p] = PREAMBLE
    if np.linalg.cond(s) ** 2 >= COND_LIMIT:
        return "SingularDesignError"
    y = frame.samples[start:start + rows]
    return np.linalg.lstsq(s, y, rcond=None)[0] / math.sqrt(tx_power)


def reference_power_and_threshold(scn, exp):
    """TX power in watts and the detection threshold 512 sigma_cn, scaled."""
    tx_power = 10.0 ** (exp.p_tx_dbm / 10.0) * 1e-3
    sigma2 = (10.0 ** (scn.noise_density_dbm_hz / 10.0) * 1e-3 * scn.bandwidth_hz
              + scn.clutter_ratio * tx_power)
    return tx_power, 512 * math.sqrt(sigma2) * scn.threshold_scale


def reference_velocities(frames, scn, exp):
    """The proposed estimator's velocities for one trial, or its failure."""
    frame_len, ts = scn.frame_len, 1.0 / scn.bandwidth_hz
    m_d = int(exp.cpi_s / (frame_len * ts)) - 1
    m_i = m_d - exp.m_i_offset
    tx_power, threshold = reference_power_and_threshold(scn, exp)
    # Two stages: the delays of every frame, then every frame's LSE.
    delays, h = {}, {}
    for m in (0, m_i, m_d):
        delays[m] = reference_delays(frames[m], threshold, scn.num_targets,
                                     scn.search_halfwidth, scn.guard)
        if isinstance(delays[m], str):
            return delays[m]
    for m in (0, m_i, m_d):
        h[m] = reference_coefficients(frames[m], delays[m], tx_power)
        if isinstance(h[m], str):
            return h[m]
    if np.any(h[0] == 0):
        return "ZeroCoefficientError"

    def d(m):  # D_m, read at the mid-preamble sample of frame m
        return 1.0 / (2.0 * math.pi * ((2 * delays[m][0] + K_PRE - 1) / 2.0
                                       + m * frame_len) * ts)

    wavelength = 299_792_458.0 / scn.carrier_hz
    velocities = []
    for p in range(scn.num_targets):
        phase_d = np.angle(h[m_d][p] / h[0][p])
        nu_d = phase_d * d(m_d)
        nu_i = np.angle(h[m_i][p] / h[0][p]) * d(m_i)
        turns = (abs(nu_d) - abs(nu_i)) / (2.0 * math.pi * (d(m_i) - d(m_d)))
        wraps = round(turns if phase_d >= 0 else -turns)
        nu = nu_d + 2.0 * math.pi * wraps * d(m_d)
        velocities.append(scn.source_velocity_mps - nu * wavelength / 2.0)
    return velocities


def recorded_run(monkeypatch, scn, exp):
    """``run_experiment``'s records at one worker, and the frames each trial
    handed ``run_pipeline``."""
    seen = []
    run_pipeline = adradar.harness.run_pipeline

    def recording_pipeline(frames, *args):
        seen.append(dict(frames))
        return run_pipeline(frames, *args)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "run_pipeline", recording_pipeline)
    records = run_experiment(scn, exp)
    assert len(seen) == len(records) == exp.trials
    return records, seen


def outcomes(records, frames, scn, exp):
    """Each trial's outcome, "ok" or its failure class, after checking that
    the package and the reference end it the same way."""
    seen = []
    for record, trial_frames in zip(records, frames):
        want = reference_velocities(trial_frames, scn, exp)
        got = record.failures.get("proposed", "ok").split(":")[0]
        assert got == (want if isinstance(want, str) else "ok"), record.trial
        if got == "ok":
            np.testing.assert_allclose(record.estimates["proposed"], want,
                                       rtol=1e-12, atol=0)
        seen.append(got)
    return seen


# Fixed gains at 10 dBm and 0.6 ms and at 20 dBm and 0.2 ms, and Rayleigh
# gains at 20 dBm and 0.5 ms, where a faded target lost to a stronger one's
# sidelobe fails some trials, and at 10 dBm and 0.2 ms, whose trial 14 ends
# in the delay stage of a late frame: (scenario, experiment, outcomes reached).
CASES = {
    "fixed-10dBm-0.6ms": (Scenario(), ExperimentConfig(
        cpi_s=6e-4, trials=60, p_tx_dbm=10.0, seed=3), {"ok"}),
    "fixed-20dBm-0.2ms": (Scenario(), ExperimentConfig(
        cpi_s=2e-4, trials=60, p_tx_dbm=20.0, seed=3), {"ok"}),
    "rayleigh-20dBm-0.5ms": (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=5e-4, trials=60, p_tx_dbm=20.0, seed=3), {"ok", "LseWindowError"}),
    "rayleigh-10dBm-0.2ms": (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=2e-4, trials=15, p_tx_dbm=10.0, seed=5),
        {"ok", "DetectionShortfallError", "LseWindowError", "NoTargetError"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_estimator_matches_the_dense_reference(monkeypatch, case):
    scn, exp, reached = CASES[case]
    exp = exp.resolve(scn)
    records, frames = recorded_run(monkeypatch, scn, exp)
    assert set(outcomes(records, frames, scn, exp)) == reached


def test_every_frames_delays_come_before_any_lse(monkeypatch):
    # Trial 14: frame 0 picks STF-sidelobe delays, whose LSE window starts
    # before the frame's samples, and frame m_d = 24 finds only 2 of 3
    # targets.  The delay stage covers all three frames first, so the trial
    # ends in a shortfall, not in frame 0's LSE window.  Every run_pipeline
    # call fits the delays of frames 0, m_i and m_d, then solves their LSE
    # through lse_coefficients in the same order, up to its first failure.
    scn, exp, _ = CASES["rayleigh-10dBm-0.2ms"]
    exp = exp.resolve(scn)
    calls = []
    pipeline = adradar.harness.run_pipeline

    def counted_pipeline(frames, *args):
        calls.append([])
        return pipeline(frames, *args)

    def recorded(stage, fn):
        def stage_call(frame, *args):
            calls[-1].append((stage, frame.m))
            return fn(frame, *args)
        return stage_call

    monkeypatch.setattr(adradar.harness, "run_pipeline", counted_pipeline)
    for stage, name in (("delays", "estimate_delays"), ("lse", "lse_coefficients")):
        monkeypatch.setattr(adradar.estimator, name,
                            recorded(stage, getattr(adradar.estimator, name)))
    records, frames = recorded_run(monkeypatch, scn, exp)
    assert sorted(frames[0]) == [0, 18, 24]
    full = [(stage, m) for stage in ("delays", "lse") for m in (0, 18, 24)]
    for record, trial_calls in zip(records, calls):
        failure = record.failures.get("proposed", "ok").split(":")[0]
        assert trial_calls == full[:len(trial_calls)], record.trial
        if failure == "ok":
            assert trial_calls == full, record.trial
        else:
            assert trial_calls[-1][0] == ("lse" if failure == "LseWindowError"
                                          else "delays"), record.trial
    assert sum(trial_calls == full for trial_calls in calls) > 0
    assert calls[14] == full[:3]

    tx_power, threshold = reference_power_and_threshold(scn, exp)
    delays = reference_delays(frames[14][0], threshold, 3, scn.search_halfwidth,
                              scn.guard)
    assert delays == [-814, -558, 210]
    assert reference_coefficients(frames[14][0], delays, tx_power) == "LseWindowError"
    assert reference_delays(frames[14][24], threshold, 3, scn.search_halfwidth,
                            scn.guard) == "DetectionShortfallError"
    assert records[14].failures["proposed"].startswith(
        "DetectionShortfallError: frame 24:")


SOURCE_V = Scenario.source_velocity_mps


@st.composite
def scenes(draw):
    """1 to 4 targets in range order, up to 20 m/s either side of the
    source, so many wrap, with any gains, guard and search half-width.  Half
    the guards with two or more targets equal the lag spacing of two of
    them, where a peak sits exactly ``guard`` lags from another."""
    count = draw(st.integers(1, 4))
    first = draw(st.floats(5.0, 18.0))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=count - 1,
                         max_size=count - 1))
    ranges = [first + sum(gaps[:p]) for p in range(count)]
    lags = [round(2.0 * r / 299_792_458.0 * Scenario.bandwidth_hz) for r in ranges]
    spacings = [b - a for p, a in enumerate(lags) for b in lags[p + 1:]]
    guards = st.integers(0, 40)
    if spacings and draw(st.booleans()):
        guards = st.sampled_from(spacings)
    return Scenario(
        target_velocities_mps=tuple(draw(st.lists(
            st.floats(SOURCE_V - 20.0, SOURCE_V + 20.0), min_size=count,
            max_size=count))),
        target_ranges_m=tuple(ranges),
        target_azimuths_rad=tuple(draw(st.lists(
            st.floats(-0.2, 0.2), min_size=count, max_size=count))),
        target_elevations_rad=(0.0,) * count,
        beta_mode=draw(st.sampled_from(["fixed", "rayleigh"])),
        guard=draw(guards),
        search_halfwidth=draw(st.integers(0, 1500)))


@settings(max_examples=100, deadline=None)
@given(scn=scenes(), p_tx_dbm=st.floats(0.0, 30.0), m_i_offset=st.integers(1, 20),
       seed=st.integers(0, 2 ** 16))
def test_any_scene_ends_as_the_dense_reference_says(scn, p_tx_dbm, m_i_offset, seed):
    exp = ExperimentConfig(cpi_s=2e-4, trials=1, p_tx_dbm=p_tx_dbm,
                           m_i_offset=m_i_offset, seed=seed).resolve(scn)
    scene = build_scene(scn)
    try:
        frame_truths(scene, range(scene.wf.frames_per_cpi(exp.cpi_s)))
    except ScenarioError:
        assume(False)  # delays collide or cross
    with pytest.MonkeyPatch.context() as monkeypatch:
        records, frames = recorded_run(monkeypatch, scn, exp)
    outcomes(records, frames, scn, exp)
