from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adradar import estimator
from adradar.echo import EchoFrame, synthesize_frame, with_noise
from adradar.errors import (DetectionShortfallError, LseWindowError,
                            NoTargetError, SingularDesignError,
                            ZeroCoefficientError)
from adradar.estimator import (PipelineConfig, build_shift_matrix,
                               denominator_inverse, detection_threshold,
                               estimate_delays, lse_coefficients, pick_peaks,
                               raw_doppler, refine_doppler,
                               run_pipeline, velocity_from_doppler, wrap_count)
from adradar.harness import ExperimentConfig, run_experiment
from adradar.params import WaveformParams
from adradar.scene import (Scenario, build_scene, draw_betas, frame_truth,
                           scene_backscatter)

TS = 1 / 1.76e9
K = 13632
K_PRE = 3328


def scene_with_delays(ranges, velocities=None, azimuths=None, p_tx_dbm=10.0):
    n = len(ranges)
    if velocities is None:
        velocities = tuple(20.0 + i for i in range(n))
    if azimuths is None:
        azimuths = tuple(0.02 * (i - (n - 1) / 2) for i in range(n))
    scn = Scenario(target_velocities_mps=tuple(velocities),
                   target_ranges_m=tuple(ranges),
                   target_azimuths_rad=azimuths,
                   target_elevations_rad=(0.0,) * n,
                   p_tx_dbm=p_tx_dbm)
    return build_scene(scn)


def noiseless_frame(scene, m):
    return synthesize_frame(scene, frame_truth(scene, m))


# ---------------------------------------------------------------------------
# delay estimation
# ---------------------------------------------------------------------------

def test_single_target_delay_587(s_c):
    # range chosen so the rounded delay is exactly 587 samples
    scene = scene_with_delays([50.0], velocities=[25.271], azimuths=[0.0])
    frame = noiseless_frame(scene, 0)
    est = estimate_delays(frame, threshold=1e-9, expected_targets=1)
    assert est.delays.tolist() == [587]

    # oracle: exhaustive scan with an independently computed correlation
    lags = np.arange(frame.k_start - 2048, frame.k_start - 2048
                     + len(frame.samples) - 511)
    mags = [abs(np.dot(s_c, np.conj(frame.samples[l + 2048 - frame.k_start:
                                                  l + 2048 - frame.k_start + 512])))
            for l in lags]
    assert lags[int(np.argmax(mags))] == 587


def test_three_targets_recovered_exactly():
    # delays {587, 800, 1050} with comparable |h_p|: per-target gains
    # (r_p / r_0)^2 compensate the r^-4 power spread so all main peaks beat
    # every sidelobe.
    from scipy.constants import c as c0
    ranges = np.array([l * c0 / (2 * 1.76e9) for l in (587, 800, 1050)])
    scene = scene_with_delays(ranges)
    h = scene_backscatter(scene, (ranges / ranges[0]) ** 2)
    frame = synthesize_frame(scene, frame_truth(scene, 0), h)
    est = estimate_delays(frame, threshold=1e-9, expected_targets=3)
    assert est.delays.tolist() == [587, 800, 1050]


def test_default_scene_delays(default_scene):
    frame = noiseless_frame(default_scene, 0)
    truth = frame_truth(default_scene, 0)
    est = estimate_delays(frame,
                          threshold=detection_threshold(default_scene.noise_clutter_var),
                          expected_targets=3)
    assert est.delays.tolist() == truth.delay_samples.tolist()


def test_threshold_is_cauchy_schwarz_bound(s_c):
    # |z^H s_c| <= ||z|| ||s_c||; with E||z||^2 = 512 sigma^2 the bound is
    # 512 sigma on average, the detection threshold value.
    rng = np.random.default_rng(23)
    sigma = 1.7e-6
    z = sigma / np.sqrt(2) * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    inner = abs(np.vdot(z, s_c))
    assert inner <= np.linalg.norm(z) * np.linalg.norm(s_c)
    assert np.linalg.norm(s_c) == pytest.approx(np.sqrt(512))
    assert detection_threshold(sigma ** 2) == pytest.approx(512 * sigma, rel=1e-12)


def test_no_target_error(default_scene):
    frame = noiseless_frame(default_scene, 0)
    with pytest.raises(NoTargetError):
        estimate_delays(frame, threshold=1e6, expected_targets=3)


def test_detection_shortfall(default_scene):
    # a threshold just under the dominant peak leaves one detection
    frame = noiseless_frame(default_scene, 0)
    dominant = estimate_delays(frame, threshold=1e-9, expected_targets=1)
    near_peak = 0.9 * float(dominant.correlation_peak[0])
    with pytest.raises(DetectionShortfallError):
        estimate_delays(frame, threshold=near_peak, expected_targets=3)


def test_threshold_must_be_positive(default_scene):
    frame = noiseless_frame(default_scene, 0)
    with pytest.raises(ValueError):
        estimate_delays(frame, threshold=0.0, expected_targets=3)


def test_pick_peaks_rejects_a_negative_guard():
    # A negative guard suppresses nothing, not even the pick itself, so the
    # same entry would come back every time.
    assert pick_peaks([1, 5, 2, 4], range(4), 3, 0.5, 0) == [1, 3, 2]
    # A guard past int64, which a scenario may set, suppresses everything.
    assert pick_peaks([1, 5, 2, 4], range(4), 3, 0.5, 2**100) == [1]
    with pytest.raises(ValueError, match="guard"):
        pick_peaks([1, 5, 2, 4], range(4), 3, 0.5, -5)


def dense_delay_picks(mag, first_lag, threshold, count, search_halfwidth, guard):
    """Reference for estimate_delays' candidate rule, with full-length masks:
    interior local maxima of |R| above threshold within search_halfwidth of
    the dominant, plus the dominant.  Returns (delays, correlation_peak), or
    the number of picks when it is short of ``count``."""
    lags = first_lag + np.arange(len(mag))
    dom = int(np.argmax(mag))
    interior = np.zeros(len(mag), dtype=bool)
    interior[1:-1] = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidate = (interior & (mag > threshold)
                 & (np.abs(lags - lags[dom]) <= search_halfwidth))
    candidate[dom] = True
    accepted = sorted(pick_peaks(np.where(candidate, mag, 0.0), lags, count,
                                 threshold, guard))
    if len(accepted) != count:
        return len(accepted)
    return lags[accepted], mag[accepted]


def assert_picks_match_the_dense_rule(frame, mag, threshold, count,
                                      search_halfwidth, guard):
    want = dense_delay_picks(mag, frame.first_lag, threshold, count,
                             search_halfwidth, guard)
    if isinstance(want, int):
        with pytest.raises(DetectionShortfallError, match=f"detected {want} of"):
            estimate_delays(frame, threshold, count, search_halfwidth, guard)
        return
    got = estimate_delays(frame, threshold, count, search_halfwidth, guard)
    assert got.delays.dtype == np.int64
    assert np.array_equal(got.delays, want[0])
    assert got.correlation_peak.tobytes() == want[1].tobytes()


@st.composite
def magnitude_profiles(draw):
    """|R| profiles of few levels (so ties abound) with, on request, the
    maximum moved or tied to the first or last lag."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 12))
    mag = rng.integers(0, levels + 1, size=draw(st.integers(1, 1500))).astype(float)
    edge = draw(st.sampled_from([None, 0, -1]))
    if edge is not None:
        mag[edge] = mag.max() + draw(st.sampled_from([0.0, 1.0]))
    return mag


@settings(max_examples=200, deadline=None)
@given(mag=magnitude_profiles(), threshold=st.sampled_from([0.5, 1.0, 2.5, 6.0]),
       count=st.integers(1, 6), search_halfwidth=st.sampled_from([0, 1, 3, 40, 1024]),
       guard=st.sampled_from([0, 1, 2, 8]))
def test_window_mask_picks_what_the_dense_masks_pick(mag, threshold, count,
                                                     search_halfwidth, guard):
    frame = EchoFrame(m=0, k_start=2100, samples=np.zeros(len(mag) + 511))
    if mag.max() <= threshold:
        return  # NoTargetError comes before the candidate rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "correlation_profile", lambda s_c, window: mag)
        assert_picks_match_the_dense_rule(frame, mag, threshold, count,
                                          search_halfwidth, guard)


@pytest.mark.parametrize("beta_mode, p_tx_dbm", [
    ("fixed", 10.0), ("fixed", 20.0), ("fixed", 30.0), ("fixed", 40.0), ("fixed", 60.0),
    ("rayleigh", 20.0)], ids=["10.0", "20.0", "30.0", "40.0", "60.0", "rayleigh-20.0"])
def test_window_mask_on_the_default_scene(s_c, beta_mode, p_tx_dbm):
    # From 30 dBm up the STF sidelobes put hundreds of lags above threshold.
    scenario = Scenario(beta_mode=beta_mode)
    scene = build_scene(scenario, p_tx_dbm=p_tx_dbm)
    betas = (draw_betas(scenario, np.random.default_rng([1, 0, 1]))
             if beta_mode == "rayleigh" else None)
    frame = with_noise(synthesize_frame(scene, frame_truth(scene, 0), scene_backscatter(
        scene, betas)), scene.noise_clutter_var, np.random.default_rng([1, 0, 0, 0]))
    threshold = detection_threshold(scene.noise_clutter_var)
    mag = np.abs(estimator.correlation_profile(s_c, frame.samples))
    if p_tx_dbm >= 30.0:
        assert np.count_nonzero(mag > threshold) > 300
    assert_picks_match_the_dense_rule(frame, mag, threshold, 3,
                                      Scenario.search_halfwidth, Scenario.guard)


# |R| whose dominant, at lag 20, has search_halfwidth 5 lags on each side: a
# peak on each edge of that window (15 and 25), a plateau of two equal local
# maxima (17 and 18), and a higher peak one lag past each edge (13 and 27).
EDGE_PROFILE = np.zeros(41)
EDGE_PROFILE[[13, 15, 17, 18, 20, 25, 27]] = [9.0, 3.0, 2.0, 2.0, 10.0, 4.0, 9.0]


def test_the_window_mask_reaches_both_edges_and_keeps_plateaus():
    frame = EchoFrame(m=0, k_start=2100, samples=np.zeros(len(EDGE_PROFILE) + 511))
    seen = []

    def recording_pick_peaks(score, lags, *args):
        seen.append(np.asarray(lags).tolist())
        return pick_peaks(score, lags, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "correlation_profile", lambda s_c, window: EDGE_PROFILE)
        mp.setattr(estimator, "pick_peaks", recording_pick_peaks)
        got = estimate_delays(frame, threshold=1.0, expected_targets=5,
                              search_halfwidth=5, guard=0)
    # Each candidate once, the dominant first: lags 13 and 27 are out of reach.
    assert seen == [[20, 15, 17, 18, 25]]
    assert (got.delays - frame.first_lag).tolist() == [15, 17, 18, 20, 25]
    assert got.correlation_peak.tolist() == [3.0, 2.0, 2.0, 10.0, 4.0]


def test_scale_invariance(default_scene):
    from dataclasses import replace
    frame = noiseless_frame(default_scene, 0)
    base = estimate_delays(frame, threshold=1e-12, expected_targets=3)
    for alpha in (0.5, 3.0, 10.0):
        scaled = replace(frame, samples=alpha * frame.samples)
        est = estimate_delays(scaled, threshold=1e-12, expected_targets=3)
        assert est.delays.tolist() == base.delays.tolist()


# ---------------------------------------------------------------------------
# shift matrix and LSE
# ---------------------------------------------------------------------------

def test_shift_matrix_single_delay(preamble):
    s = build_shift_matrix([587], rows=K_PRE)
    np.testing.assert_array_equal(s[:, 0], preamble)
    assert (s.T @ s)[0, 0] == K_PRE


def test_shift_matrix_disjoint_support():
    sep = K_PRE + 10
    s = build_shift_matrix([0, sep], rows=K_PRE + sep)
    assert s[:, 0] @ s[:, 1] == 0


def test_shift_matrix_inner_product_is_autocorrelation(preamble):
    s = build_shift_matrix([0, 64], rows=K_PRE + 64)
    auto = np.correlate(preamble.astype(float),
                        preamble.astype(float), "full")
    assert s[:, 0] @ s[:, 1] == auto[len(preamble) - 1 + 64]


def test_shift_matrix_duplicate_delay():
    with pytest.raises(SingularDesignError):
        build_shift_matrix([10, 10], rows=K_PRE)


def test_shift_matrix_rejects_unsorted_delays():
    with pytest.raises(ValueError, match="delays must be sorted ascending"):
        build_shift_matrix([20, 10], rows=K_PRE)


def test_lse_noiseless_recovery():
    # zero relative velocity -> zero Doppler -> exact linear model
    scene = scene_with_delays([14.0, 15.7, 17.9], velocities=[25.271] * 3)
    truth = frame_truth(scene, 0)
    frame = noiseless_frame(scene, 0)
    h_hat = lse_coefficients(frame, truth.delay_samples, scene.tx_power)
    np.testing.assert_allclose(h_hat, scene_backscatter(scene), rtol=1e-9)


def test_lse_zero_observation():
    frame = EchoFrame(m=0, k_start=0, samples=np.zeros(K_PRE + 40, dtype=complex))
    h = lse_coefficients(frame, [0, 40], 0.01)
    np.testing.assert_array_equal(h, 0)


def test_lse_power_scaling():
    scene = scene_with_delays([14.0], velocities=[25.271], azimuths=[0.0])
    truth = frame_truth(scene, 0)
    frame = noiseless_frame(scene, 0)
    h1 = lse_coefficients(frame, truth.delay_samples, scene.tx_power)
    h4 = lse_coefficients(frame, truth.delay_samples, 4 * scene.tx_power)
    np.testing.assert_allclose(h4, h1 / 2, rtol=1e-12)


def test_lse_ill_conditioned(preamble):
    col = preamble.astype(float)
    s = np.column_stack([col, col * (1 + 1e-15)])
    with pytest.raises(SingularDesignError, match="columns 0 and 1"):
        estimator._checked_gram(s)


# ---------------------------------------------------------------------------
# Doppler chain
# ---------------------------------------------------------------------------

def test_denominator_inverse_values():
    d0 = denominator_inverse(0, 0, K, TS)
    assert d0 == pytest.approx(1.76e9 / (2 * np.pi * 1663.5), rel=1e-12)
    assert d0 == pytest.approx(1.684e5, rel=1e-3)
    d128 = denominator_inverse(0, 128, K, TS)
    assert d128 == pytest.approx(1.76e9 / (2 * np.pi * (1663.5 + 128 * K)), rel=1e-12)
    assert d128 == pytest.approx(160.4, rel=1e-3)


def test_denominator_inverse_monotone():
    values = [denominator_inverse(100, m, K, TS) for m in range(0, 130, 10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_denominator_inverse_rejects_a_negative_frame():
    with pytest.raises(ValueError, match="frame index must be nonnegative"):
        denominator_inverse(0, -1, K, TS)


def test_raw_doppler_identity_and_scaling():
    assert raw_doppler(1 + 1j, 1 + 1j, 300.0) == 0.0
    assert raw_doppler(1j, 1.0, 160.4) == pytest.approx(np.pi / 2 * 160.4)
    assert np.pi / 2 * 160.4 == pytest.approx(251.9, rel=1e-3)
    with pytest.raises(ZeroDivisionError):
        raw_doppler(1.0, 0.0, 160.4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_raw_doppler_keeps_the_phase_where_the_quotient_leaves_the_float_range():
    # h_md / h overflows for a tiny h and flushes to zero for a large one;
    # h_md conj(h) has the same phase.  Quotients in range keep their bits.
    h_md = np.array([-1000 + 1j, 1e-300 + 2e-300j, 1e-300 + 2e-300j, 0.3 - 0.2j, 0j])
    h = np.array([1e-307 + 1e-307j, 1e30 + 1e30j, 1e20 + 1e20j, 0.1 + 0.7j, 2 + 1j])
    expected = np.angle(h_md * np.conj(h))
    assert raw_doppler(h_md, h, 1.0) == pytest.approx(expected, rel=1e-15)
    assert expected[:2] == pytest.approx([2.355194490525678, 0.3217505543966422])
    ratio = h_md[3] / h[3]
    assert raw_doppler(h_md[3], h[3], 2.5) == np.arctan2(ratio.imag, ratio.real) * 2.5
    assert raw_doppler(-1000 + 1j, 1e-307 + 1e-307j, 1.0) == pytest.approx(expected[0])


def test_raw_doppler_no_wrap_recovery():
    # true phase within [-pi, pi]: the raw estimate alone recovers nu
    nu = 300.0
    m_d, l0 = 20, 100
    d_md = denominator_inverse(l0, m_d, K, TS)
    assert abs(nu / d_md) < np.pi
    h0 = 1.0 + 0.5j
    h_md = h0 * np.exp(1j * nu / d_md)
    assert raw_doppler(h_md, h0, d_md) == pytest.approx(nu, rel=1e-12)


def test_wrap_count_zero_when_unwrapped():
    d_md = denominator_inverse(0, 70, K, TS)
    d_mi = denominator_inverse(0, 65, K, TS)
    nu = 100.0  # well below one wrap at both frames
    assert wrap_count(nu, nu, d_md, d_mi) == 0


def test_wrap_count_constructed_single_wrap():
    # nu = 1998.2 Hz wraps once at m_d = 70 with positive residual phase at
    # both frames; forward-compute the wrapped estimates and round-trip.
    nu = 1998.2
    d_md = denominator_inverse(0, 70, K, TS)
    d_mi = denominator_inverse(0, 65, K, TS)
    zeta_md, zeta_mi = nu / d_md, nu / d_mi
    assert 2 * np.pi < zeta_md < 2.5 * np.pi
    assert 2 * np.pi < zeta_mi < 2.5 * np.pi
    nu_md = (zeta_md - 2 * np.pi) * d_md
    nu_mi = (zeta_mi - 2 * np.pi) * d_mi
    n = wrap_count(nu_md, nu_mi, d_md, d_mi)
    assert n == 1
    assert refine_doppler(nu_md, n, d_md) == pytest.approx(nu, rel=1e-12)


def test_wrap_count_sign_mirror():
    nu = 1998.2
    d_md = denominator_inverse(0, 70, K, TS)
    d_mi = denominator_inverse(0, 65, K, TS)
    nu_md = (nu / d_md - 2 * np.pi) * d_md
    nu_mi = (nu / d_mi - 2 * np.pi) * d_mi
    # a target faster than the source mirrors every sign
    n = wrap_count(-nu_md, -nu_mi, d_md, d_mi)
    assert n == -1
    assert refine_doppler(-nu_md, n, d_md) == pytest.approx(-nu, rel=1e-12)


def test_wrap_count_degenerate_pair():
    d = denominator_inverse(0, 70, K, TS)
    with pytest.raises(ValueError):
        wrap_count(100.0, 100.0, d, d)


def test_wrap_count_needs_a_positive_d_md():
    for d_md in (0.0, -0.0, -160.4):
        with pytest.raises(ValueError):
            wrap_count(100.0, 100.0, d_md, 170.0)


def wrap_count_with_sign(nu_md, nu_mi, d_md, d_mi, wrapped_phase_sign):
    """The wrap count as it was computed when the sign of the wrapped phase
    at m_d came in as a fifth argument."""
    c_hat = np.abs(nu_md) - np.abs(nu_mi)
    scale = 2.0 * np.pi * (d_mi - d_md)
    value = np.where(wrapped_phase_sign >= 0, c_hat / scale, -c_hat / scale)
    return np.rint(value).astype(np.int64)


# Coefficient parts include 0.0 and -0.0, so some ratios h_md / h have an
# exactly-zero phase or a -0.0 imaginary part.
coefficient_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                              st.floats(-1e3, 1e3, allow_subnormal=False))
coefficient_triples = st.lists(st.tuples(
    *[st.builds(complex, coefficient_parts, coefficient_parts)] * 3),
    min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@example(triples=[(1 + 0j, complex(1, -0.0), 1 + 0j), (1 + 0j, 0j, 1j),
                  (2 + 0j, complex(-0.0, -0.0), -1 + 0j)],
         l_0=164, m_i=57, gap=6)
@given(triples=coefficient_triples, l_0=st.integers(0, 20000),
       m_i=st.integers(0, 200), gap=st.integers(1, 200))
def test_wrap_count_takes_the_branch_the_phase_sign_gave(triples, l_0, m_i, gap):
    # nu_md = angle(h_md / h) * D_md with D_md > 0 carries the phase's sign
    # bit, -0.0 included, so reading the branch from nu_md changes nothing.
    h, h_md, h_mi = (np.array(column) for column in zip(*triples))
    assume(np.all(h != 0))
    d_md = denominator_inverse(l_0, m_i + gap, K, TS)
    d_mi = denominator_inverse(l_0, m_i, K, TS)
    sign = np.angle(h_md / h)
    nu_md, nu_mi = raw_doppler(h_md, h, d_md), raw_doppler(h_mi, h, d_mi)
    assert np.array_equal(np.signbit(nu_md), np.signbit(sign))
    want = wrap_count_with_sign(nu_md, nu_mi, d_md, d_mi, sign)
    got = wrap_count(nu_md, nu_mi, d_md, d_mi)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    for p in range(len(h)):
        assert wrap_count(nu_md[p], nu_mi[p], d_md, d_mi) == want[p]


def test_wrap_property_phase_arithmetic_sweep():
    # Wherever both frames share the wrap count and residual sign, the
    # rounded wrap estimate is exact and refinement inverts the wrapping.
    m_d, gap, l0 = 63, 6, 164
    d_md = denominator_inverse(l0, m_d, K, TS)
    d_mi = denominator_inverse(l0, m_d - gap, K, TS)
    max_nu = 3.2 * 2 * np.pi * d_md
    checked = 0
    for nu in np.linspace(-max_nu, max_nu, 101):
        if abs(nu) < 1.0:
            continue
        zeta_md, zeta_mi = nu / d_md, nu / d_mi
        n_md = int(np.rint(zeta_md / (2 * np.pi)))
        n_mi = int(np.rint(zeta_mi / (2 * np.pi)))
        zw_md = zeta_md - 2 * np.pi * n_md
        zw_mi = zeta_mi - 2 * np.pi * n_mi
        if n_md != n_mi or np.sign(zw_md) != np.sign(zw_mi):
            continue
        nu_md, nu_mi = zw_md * d_md, zw_mi * d_mi
        n_bar = wrap_count(nu_md, nu_mi, d_md, d_mi)
        assert n_bar == n_md
        assert refine_doppler(nu_md, n_bar, d_md) == pytest.approx(nu, rel=1e-9)
        checked += 1
    assert checked > 60  # the predicate keeps most of the grid


def test_refine_doppler_values():
    assert refine_doppler(123.4, 0, 160.4) == 123.4
    assert refine_doppler(0.0, 1, 160.4) == pytest.approx(2 * np.pi * 160.4)
    assert 2 * np.pi * 160.4 == pytest.approx(1007.8, rel=1e-3)


def test_doppler_chain_on_arrays_equals_the_scalar_calls():
    # Dopplers up to three turns either way at m_d, so the wrapped phases
    # take both signs and the wrap counts several values.
    rng = np.random.default_rng(23)
    d_md = denominator_inverse(164, 63, K, TS)
    d_mi = denominator_inverse(164, 57, K, TS)
    nu = rng.uniform(-3, 3, 12) * 2 * np.pi * d_md
    h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    h_md, h_mi = h * np.exp(1j * nu / d_md), h * np.exp(1j * nu / d_mi)
    sign = np.angle(h_md / h)
    assert np.any(sign > 0) and np.any(sign < 0)

    nu_md = raw_doppler(h_md, h, d_md)
    nu_mi = raw_doppler(h_mi, h, d_mi)
    wraps = wrap_count(nu_md, nu_mi, d_md, d_mi)
    refined = refine_doppler(nu_md, wraps, d_md)
    assert wraps.dtype == np.int64 and len(set(wraps.tolist())) > 2
    for p in range(len(h)):
        assert nu_md[p] == raw_doppler(h_md[p], h[p], d_md)
        assert nu_mi[p] == raw_doppler(h_mi[p], h[p], d_mi)
        assert wraps[p] == wrap_count(nu_md[p], nu_mi[p], d_md, d_mi)
        assert refined[p] == refine_doppler(nu_md[p], wraps[p], d_md)
    for p in (0, 5, 11):
        zeroed = h.copy()
        zeroed[p] = 0
        with pytest.raises(ZeroCoefficientError):
            raw_doppler(h_md, zeroed, d_md)


def test_velocity_from_doppler():
    lam = 299792458.0 / 60e9
    assert velocity_from_doppler(0.0, 25.271, lam) == 25.271
    v = velocity_from_doppler(1998.18, 25.271, lam)
    assert v == pytest.approx(20.279, abs=1e-4)
    assert velocity_from_doppler(-100.0, 25.271, lam) > 25.271


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def run_noiseless_pipeline(scene, cpi_s=0.5e-3, gap=6):
    wf = scene.wf
    m_count = wf.frames_per_cpi(cpi_s)
    m_d, m_i = m_count - 1, m_count - 1 - gap
    frames = {m: noiseless_frame(scene, m) for m in (0, m_i, m_d)}
    cfg = PipelineConfig(m_d=m_d, m_i=m_i,
                         threshold=detection_threshold(scene.noise_clutter_var),
                         expected_targets=scene.velocities.size)
    return run_pipeline(frames, wf, scene.source_velocity,
                        scene.tx_power, cfg)


def test_pipeline_noiseless_stock_scenario(default_scene, true_velocities):
    res = run_noiseless_pipeline(default_scene)
    np.testing.assert_allclose(res.velocities, true_velocities, atol=0.02)
    assert res.doppler.wrap_count.tolist() == [1, 0, 1]


# Mirroring every velocity about the source, V_p -> 2 V_s - V_p, negates each
# Doppler, so the noiseless pipeline negates each wrap count exactly and each
# relative estimate V_p - V_s up to the rounding of the mirrored delays:
# within 2.6e-5 m/s, against a noiseless bias of about 0.03 m/s.
@pytest.mark.parametrize("cpi_s", [2e-4, 5e-4, 1e-3])
def test_mirroring_every_velocity_about_the_source_negates_each_estimate(cpi_s):
    scn = Scenario()
    v_s = scn.source_velocity_mps
    mirror = replace(scn, target_velocities_mps=tuple(
        2 * v_s - v for v in scn.target_velocities_mps))
    res, mirrored = (run_noiseless_pipeline(build_scene(s), cpi_s=cpi_s)
                     for s in (scn, mirror))
    assert mirrored.doppler.wrap_count.tolist() == (-res.doppler.wrap_count).tolist()
    np.testing.assert_allclose(mirrored.velocities - v_s, v_s - res.velocities,
                               rtol=0, atol=1e-4)


# The LSE error of frame m's coefficients is CN(0, (sigma^2 / P) G_m^-1), with
# G_m = S^T S, so at high SNR the phase of h_md / h_0 has variance
# (sigma^2 / 2P) [(G_0^-1)_pp + (G_md^-1)_pp] / |h_p|^2 and the velocity
# (lambda / 2)^2 D_md^2 times that, around the noiseless estimate.  The mean
# square of N Gaussian deviations has a standard error of sqrt(2 / N) of its
# mean; the tolerance is three of those.  Being a ratio, the check cannot see
# the LSE's 1 / sqrt(P) normalisation, and a spread cannot see the velocity's
# sign.
@pytest.mark.parametrize("p_tx_dbm, cpi_s", [(20.0, 2e-4), (30.0, 5e-4), (20.0, 1e-3)])
def test_the_velocity_spread_matches_the_lse_error_model(p_tx_dbm, cpi_s):
    scn, trials = Scenario(p_tx_dbm=p_tx_dbm), 300
    scene = build_scene(scn)
    clean = run_noiseless_pipeline(scene, cpi_s=cpi_s, gap=scn.m_i_offset)
    m_d = max(clean.delays)
    g_inv = [np.diag(np.linalg.inv(s.T @ s)) for s in (
        build_shift_matrix(d, K_PRE + d[-1] - d[0])
        for d in (clean.delays[m].delays for m in (0, m_d)))]
    var_phase = (scene.noise_clutter_var / (2 * scene.tx_power) * (g_inv[0] + g_inv[1])
                 / np.abs(scene_backscatter(scene)) ** 2)
    d_md = denominator_inverse(int(clean.delays[m_d].delays[0]), m_d, K, TS)
    predicted = (scene.wf.wavelength / 2 * d_md) ** 2 * var_phase
    records = run_experiment(scn, ExperimentConfig(cpi_s=cpi_s, trials=trials, seed=3))
    assert all(r.failures == {} for r in records)
    assert {r.wrap_counts for r in records} == {tuple(clean.doppler.wrap_count.tolist())}
    estimates = np.array([r.estimates["proposed"] for r in records])
    spread = np.mean((estimates - clean.velocities) ** 2, axis=0)
    assert np.all(np.abs(spread / predicted - 1) <= 3 * np.sqrt(2 / trials)), \
        spread / predicted


def test_pipeline_lse_phase_matches_midpoint_model(default_scene):
    # Noiseless chain: each frame-m_d coefficient carries the mid-preamble
    # phase 2 pi nu (k_mid + m_d K) T_s, up to the frame-0 residual.
    res = run_noiseless_pipeline(default_scene)
    truth, h = frame_truth(default_scene, 0), scene_backscatter(default_scene)
    m_d = max(res.delays)
    k_mid = (2 * truth.delay_samples[0] + K_PRE - 1) / 2
    for p in range(3):
        predicted = 2 * np.pi * default_scene.doppler_hz[p] * (k_mid + m_d * K) * TS
        observed = np.angle(res.doppler.h_hat_md[p] / h[p])
        resid = (predicted - observed + np.pi) % (2 * np.pi) - np.pi
        assert abs(resid) < 2.5e-2


def test_pipeline_zero_doppler_exact_recovery():
    scene = scene_with_delays([14.0, 15.7, 17.9], velocities=[25.271] * 3)
    res = run_noiseless_pipeline(scene)
    np.testing.assert_allclose(res.velocities, 25.271, rtol=1e-9)
    assert res.doppler.wrap_count.tolist() == [0, 0, 0]


def test_pipeline_requires_distinct_frames(default_scene):
    with pytest.raises(ValueError):
        run_noiseless_pipeline(default_scene, gap=0)


def test_pipeline_names_the_missing_frames():
    cfg = PipelineConfig(m_d=2, m_i=1, threshold=1.0, expected_targets=1)
    with pytest.raises(ValueError, match=r"pipeline needs frames \(0, 1, 2\), missing \[2\]"):
        run_pipeline(dict.fromkeys((0, 1)), WaveformParams(), 25.0, 1.0, cfg)


def run_on_hand_built_frames(samples):
    # frames 0, 1 and 2 hold the same samples from k_start = 1000 on
    frames = {m: EchoFrame(m=m, k_start=1000, samples=samples.astype(complex))
              for m in range(3)}
    cfg = PipelineConfig(m_d=2, m_i=1, threshold=1e-9, expected_targets=1)
    return run_pipeline(frames, WaveformParams(), 25.0, 1.0, cfg)


def test_lse_window_starting_before_the_frame_raises(preamble):
    # the first 100 preamble samples are missing, so the delay estimate is
    # 900, before the frame's first sample
    with pytest.raises(LseWindowError,
                       match=r"frame 0: LSE window \[900, 4228\) outside "
                             r"the frame's samples \[1000, 4228\)"):
        run_on_hand_built_frames(preamble[100:])


def test_lse_window_running_past_the_frame_end_raises(preamble):
    # the last 100 preamble samples are missing
    with pytest.raises(LseWindowError,
                       match=r"frame 0: LSE window \[1000, 4328\) outside "
                             r"the frame's samples \[1000, 4228\)"):
        run_on_hand_built_frames(preamble[:-100])


def test_pipeline_velocity_map_inverts_frame_truth(default_scene):
    # velocity mapping is affine and inverts the scene Doppler map exactly
    wf = default_scene.wf
    for nu, want in zip(default_scene.doppler_hz, default_scene.velocities):
        v = velocity_from_doppler(nu, default_scene.source_velocity, wf.wavelength)
        assert v == pytest.approx(want, rel=1e-12)


def test_pipeline_refined_doppler_within_half_percent(default_scene):
    res = run_noiseless_pipeline(default_scene)
    np.testing.assert_allclose(res.doppler.nu_refined, default_scene.doppler_hz,
                               rtol=5e-3)


def test_pipeline_doppler_fields_self_consistent(default_scene):
    # stored raw/refined values obey their defining relations
    res = run_noiseless_pipeline(default_scene)
    d = res.doppler
    for p in range(3):
        assert d.nu_raw[p] == pytest.approx(
            np.angle(d.h_hat_md[p] / d.h_hat[p]) * d.d_md, rel=1e-12)
        assert d.nu_refined[p] == pytest.approx(
            d.nu_raw[p] + 2 * np.pi * d.wrap_count[p] * d.d_md, rel=1e-12)
    assert d.d_mi > d.d_md


# ---------------------------------------------------------------------------
# cached least-squares designs
# ---------------------------------------------------------------------------

def uncached_coefficients(preamble, frame, delays, rows, tx_power):
    """solve(S^T S, S^T y) / sqrt(P) with S built here, column by column."""
    s = np.zeros((rows, len(delays)))
    for p, ell in enumerate(delays):
        lo = ell - delays[0]
        n = min(K_PRE, rows - lo)
        s[lo:lo + n, p] = preamble[:n]
    start = delays[0] - frame.k_start
    y = frame.samples[start:start + rows]
    return np.linalg.solve(s.T @ s, s.T @ y) / np.sqrt(tx_power)


def frames_with_delays(preamble, delays, seed):
    """Frames 0, 1, 2: unit-modulus echoes at ``delays`` with random phases,
    plus weak noise, over [delays[0], delays[-1] + K_pre)."""
    rng = np.random.default_rng(seed)
    frames = {}
    for m in range(3):
        y = np.zeros(K_PRE + delays[-1] - delays[0], dtype=complex)
        for ell in delays:
            lo = ell - delays[0]
            y[lo:lo + K_PRE] += np.exp(2j * np.pi * rng.random()) * preamble
        y += 0.01 * (rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y)))
        frames[m] = EchoFrame(m=m, k_start=delays[0], samples=y)
    return frames


# Up to three targets within 127 lags of each other and more than the guard
# apart: the preamble's correlation sidelobes (256 at multiples of 128 lags,
# at most 38 within 127 lags) then cannot outscore a true peak.
delay_sets = st.builds(
    lambda first, gaps: [first + sum(gaps[:i]) for i in range(len(gaps) + 1)],
    st.integers(2048, 20000),
    st.lists(st.integers(9, 60), max_size=2))


@settings(max_examples=30, deadline=None)
@given(delays=delay_sets, seed=st.integers(0, 2**32 - 1))
def test_pipeline_coefficients_equal_the_uncached_solve(preamble, delays, seed):
    frames = frames_with_delays(preamble, delays, seed)
    tx_power = 0.01
    # The second run is served from the cache.
    cfg = PipelineConfig(m_d=2, m_i=1, threshold=100.0,
                         expected_targets=len(delays))
    rows = len(frames[0].samples)
    for _ in range(2):
        res = run_pipeline(frames, WaveformParams(), 25.0, tx_power, cfg)
        coeffs = {0: res.doppler.h_hat, 1: res.doppler.h_hat_mi,
                  2: res.doppler.h_hat_md}
        for m, frame in frames.items():
            assert res.delays[m].delays.tolist() == delays
            assert np.array_equal(coeffs[m], uncached_coefficients(
                preamble, frame, delays, rows, tx_power))


def test_cached_design_is_read_only():
    s, gram = estimator._shift_design((0, 40), K_PRE + 40)
    assert estimator._shift_design((0, 40), K_PRE + 40)[0] is s
    for arr in (s, gram):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_duplicate_delays_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(SingularDesignError):
            estimator._shift_design((0, 0), K_PRE)


@pytest.mark.parametrize("index", [100, 2100, 3000], ids=["stf", "segment", "cef"])
def test_pipeline_rejects_another_preamble(preamble, index):
    # run_pipeline takes no preamble: it reads the 802.11ad training field
    # itself, so its coefficients are the solve against exactly that field,
    # and a preamble differing in one STF, correlation-segment or CEF sample
    # would have given others.
    delays = [3000, 3040]
    frames = frames_with_delays(preamble, delays, seed=3)
    cfg = PipelineConfig(m_d=2, m_i=1, threshold=100.0, expected_targets=2)
    tx_power = 0.01
    res = run_pipeline(frames, WaveformParams(), 25.0, tx_power, cfg)
    rows = len(frames[0].samples)
    assert np.array_equal(res.doppler.h_hat, uncached_coefficients(
        preamble, frames[0], delays, rows, tx_power))
    other_preamble = preamble.copy()
    other_preamble[index] = -other_preamble[index]
    other = uncached_coefficients(other_preamble, frames[0], delays,
                                  rows, tx_power)
    assert not np.allclose(res.doppler.h_hat, other)

