"""Differential oracle: the proposed estimator against a dense reference.

The reference shares no code with the package's estimator.  It builds its
own 802.11ad preamble from the Golay recursion, correlates with
``np.correlate``, applies the documented peak rules as plain loops, solves
a dense shift matrix with ``np.linalg.lstsq``, and carries the paper's D_m,
wrap-count and velocity formulas per target.  It runs on the noisy frames
the harness hands ``run_pipeline``, so every trial must end the same way:
the same failure class, or velocities within 1e-12 relative.
"""

import math

import numpy as np
import pytest

import adradar.harness
from adradar.harness import ExperimentConfig, run_experiment
from adradar.scene import Scenario

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


def reference_velocities(frames, scn, exp):
    """The proposed estimator's velocities for one trial, or its failure."""
    bandwidth, frame_len = scn.bandwidth_hz, scn.frame_len
    ts = 1.0 / bandwidth
    m_d = int(exp.cpi_s / (frame_len * ts)) - 1
    m_i = m_d - exp.m_i_offset
    tx_power = 10.0 ** (exp.p_tx_dbm / 10.0) * 1e-3
    sigma2 = (10.0 ** (scn.noise_density_dbm_hz / 10.0) * 1e-3 * bandwidth
              + scn.clutter_ratio * tx_power)
    threshold = 512 * math.sqrt(sigma2) * scn.threshold_scale
    h, first_delay = {}, {}
    for m in (0, m_i, m_d):
        delays = reference_delays(frames[m], threshold, scn.num_targets,
                                  scn.search_halfwidth, scn.guard)
        if isinstance(delays, str):
            return delays
        h[m] = reference_coefficients(frames[m], delays, tx_power)
        if isinstance(h[m], str):
            return h[m]
        first_delay[m] = delays[0]
    if np.any(h[0] == 0):
        return "ZeroCoefficientError"

    def d(m):  # D_m, read at the mid-preamble sample of frame m
        return 1.0 / (2.0 * math.pi * ((2 * first_delay[m] + K_PRE - 1) / 2.0
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


# Fixed gains at 10 dBm and 0.6 ms and at 20 dBm and 0.2 ms, and Rayleigh
# gains at 20 dBm and 0.5 ms, where a faded target lost to a stronger one's
# sidelobe fails some trials: (scenario, experiment, outcomes reached).
CASES = {
    "fixed-10dBm-0.6ms": (Scenario(), ExperimentConfig(
        cpi_s=6e-4, trials=60, p_tx_dbm=10.0, seed=3), {"ok"}),
    "fixed-20dBm-0.2ms": (Scenario(), ExperimentConfig(
        cpi_s=2e-4, trials=60, p_tx_dbm=20.0, seed=3), {"ok"}),
    "rayleigh-20dBm-0.5ms": (Scenario(beta_mode="rayleigh"), ExperimentConfig(
        cpi_s=5e-4, trials=60, p_tx_dbm=20.0, seed=3), {"ok", "LseWindowError"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_estimator_matches_the_dense_reference(monkeypatch, case):
    scn, exp, reached = CASES[case]
    exp = exp.resolve(scn)
    seen = []
    run_pipeline = adradar.harness.run_pipeline

    def recording_pipeline(frames, *args):
        seen.append(dict(frames))
        return run_pipeline(frames, *args)

    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    monkeypatch.setattr(adradar.harness, "run_pipeline", recording_pipeline)
    records = run_experiment(scn, exp)
    assert len(seen) == len(records) == exp.trials
    outcomes = []
    for record, frames in zip(records, seen):
        want = reference_velocities(frames, scn, exp)
        if isinstance(want, str):
            assert record.failures["proposed"].split(":")[0] == want, record.trial
            outcomes.append(want)
        else:
            got = np.array(record.estimates["proposed"])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            outcomes.append("ok")
    assert set(outcomes) == reached
