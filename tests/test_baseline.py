import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adradar.harness
from adradar.baseline import (BASELINE_LAG_HALFWIDTH, DelayDopplerMap,
                              baseline_velocities, delay_doppler_map, map_window)
from adradar.echo import EchoFrame, synthesize_frame, with_noise
from adradar.errors import DetectionShortfallError
from adradar.estimator import detection_threshold, pick_peaks, velocity_from_doppler
from adradar.harness import ExperimentConfig, run_experiment
from adradar.scene import Scenario, build_scene, frame_truth, scene_backscatter


def single_target_scene(velocity):
    scn = Scenario(target_velocities_mps=(velocity,), target_ranges_m=(30.0,),
                   target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,))
    return build_scene(scn)


def synth_cpi(scene, cpi_s, noiseless=True, seed=5):
    wf = scene.wf
    m_count = wf.frames_per_cpi(cpi_s)
    h = scene_backscatter(scene)
    frames = []
    for m in range(m_count):
        frame = synthesize_frame(scene, frame_truth(scene, m), h)
        if not noiseless:
            frame = with_noise(frame, scene.noise_clutter_var,
                               np.random.default_rng([seed, m]))
        frames.append(frame)
    return frames


def cut(frames, lags):
    """Each frame over only the samples its lags ``lags[0]`` to ``lags[-1]`` read."""
    return [f.cut_to_lags(lags[0], lags[-1]) for f in frames]


def velocity_for_doppler(scene, nu):
    return scene.source_velocity - nu * scene.wf.wavelength / 2.0


def test_map_needs_two_frames(default_scene):
    frames = synth_cpi(default_scene, 0.2e-3)
    with pytest.raises(ValueError):
        delay_doppler_map(frames[:1], default_scene.wf.frame_period)


def test_map_of_a_frame_stream_equals_the_map_of_the_list(default_scene):
    frames = synth_cpi(default_scene, 0.4e-3, noiseless=False)
    period = default_scene.wf.frame_period
    for listed in (frames, cut(frames, np.arange(140, 240))):
        want = delay_doppler_map(listed, period)
        for stream in (iter(listed), (f for f in listed)):
            got = delay_doppler_map(stream, period)
            assert got.values.tobytes() == want.values.tobytes()
            assert np.array_equal(got.lags, want.lags)
            assert np.array_equal(got.doppler_bins_hz, want.doppler_bins_hz)


# (peak index, first window lag, window lags) on frame 0's 2863 lags: the
# peak +-128 lags, clipped at the frame's first and last lag.
@pytest.mark.parametrize("peak, first, n_lags", [
    (1000, 872, 257), (0, 0, 129), (100, 0, 229), (2862, 2734, 129),
    (2800, 2672, 191)], ids=["peak", "first", "near-first", "last", "near-last"])
def test_map_window_is_the_dominant_peak_plus_minus_128_clipped_to_the_frame(
        default_scene, peak, first, n_lags):
    frame0 = synth_cpi(default_scene, 0.2e-3)[0]
    profile0 = np.zeros(len(frame0.samples) - 511, complex)
    assert len(profile0) == 2863 and BASELINE_LAG_HALFWIDTH == 128
    profile0[peak] = -2.0  # the dominant peak is the largest magnitude
    profile0[(peak + 300) % len(profile0)] = 1.5j
    window = map_window(frame0, profile0)
    assert window.m == 0
    assert window.first_lag == frame0.first_lag + first
    assert len(window.samples) == n_lags + 511
    assert np.shares_memory(window.samples, frame0.samples)
    assert np.array_equal(window.samples, frame0.samples[first:first + n_lags + 511])


@pytest.mark.parametrize("clipped", [False, True], ids=["peak", "clipped"])
def test_the_map_of_frames_cut_to_its_lags_equals_the_map_of_whole_frames(
        default_scene, clipped):
    # The CPI's whole frames share one window here, so they make a map too.
    frames = synth_cpi(default_scene, 0.4e-3)
    assert len({(f.k_start, len(f.samples)) for f in frames}) == 1
    first = frames[0].first_lag
    if clipped:  # the window map_window gives when the peak is near the start
        window = map_window(frames[0],
                            np.r_[1.0, np.zeros(len(frames[0].samples) - 512)])
        assert window.first_lag == first
        lags = first + np.arange(len(window.samples) - 511)
    else:
        lags = np.arange(first + 140, first + 240)
    cut_frames = cut(frames, lags)
    assert all(len(f.samples) == len(lags) + 511 for f in cut_frames)
    assert all(f.first_lag == lags[0] for f in cut_frames)
    period = default_scene.wf.frame_period
    whole = delay_doppler_map(frames, period)
    got = delay_doppler_map(cut_frames, period)
    assert np.array_equal(got.lags, lags)
    assert np.array_equal(got.values, whole.values[lags - first])


def test_a_cut_outside_the_frame_is_an_error(default_scene):
    frames = synth_cpi(default_scene, 0.2e-3)
    first, n_lags = frames[0].first_lag, len(frames[0].samples) - 511
    for lo, hi in ((first - 1, first + 10), (first + 10, first + n_lags)):
        with pytest.raises(ValueError, match="outside the computable range"):
            frames[0].cut_to_lags(lo, hi)
    # a frame cut for some lags cannot serve lags beyond them
    short = frames[1].cut_to_lags(first + 10, first + 20)
    with pytest.raises(ValueError, match="outside the computable range"):
        short.cut_to_lags(first + 10, first + 21)
    # An inverted range holds no lag.  As slices of this 3374-sample frame,
    # the first would give 452 samples and the second, with a negative stop,
    # 3286 samples from the far end.
    assert len(frames[0].samples) == 3374
    for lo, hi in ((first + 48, first - 12), (first + 48, first - 552)):
        with pytest.raises(ValueError, match="empty lag range"):
            frames[0].cut_to_lags(lo, hi)


def test_an_empty_lag_range_is_named(default_scene):
    # The map lags are those the first item computes: none if it is shorter
    # than the correlation segment.
    period = default_scene.wf.frame_period
    short = [EchoFrame(m=m, k_start=0, samples=np.ones(511, complex)) for m in range(2)]
    with pytest.raises(ValueError, match="empty lag range"):
        delay_doppler_map(short, period)


@pytest.mark.parametrize("shift, trim", [(0, 1), (0, -1), (1, 0), (-1, 0), (3, -3)],
                         ids=["shorter", "longer", "later", "earlier", "moved"])
@pytest.mark.parametrize("item", [1, 3], ids=["frame", "block"])
def test_an_item_off_the_first_items_window_is_named(default_scene, shift, trim,
                                                     item):
    # Frames 0 to 5 on one window; item 1 (frame 1) or item 3 (the block of
    # frames 3 to 5) starts ``shift`` samples later and ends ``trim`` earlier.
    frames = cut(synth_cpi(default_scene, 0.2e-3)[:6], np.arange(200, 400))
    items = frames[:3] + [EchoFrame(m=3, k_start=frames[3].k_start,
                                    samples=np.stack([f.samples for f in frames[3:]]))]
    assert [i.m for i in items] == [0, 1, 2, 3]
    bad = items[item]
    items[item] = EchoFrame(m=bad.m, k_start=bad.k_start + shift, samples=np.zeros(
        bad.samples.shape[:-1] + (bad.samples.shape[-1] - shift - trim,), complex))
    period = default_scene.wf.frame_period
    with pytest.raises(ValueError, match=f"frame {bad.m} is off the map window"):
        delay_doppler_map(items, period)
    items[item] = bad
    assert delay_doppler_map(items, period).values.shape == (200, 6)


@pytest.mark.parametrize("order", [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3]],
                         ids=["swapped-first", "swapped-middle", "gap"])
def test_map_rejects_frames_out_of_order(default_scene, order):
    frames = synth_cpi(default_scene, 0.2e-3)
    with pytest.raises(ValueError, match="out of order"):
        delay_doppler_map((frames[m] for m in order), default_scene.wf.frame_period)


def frame_blocks(frames, size):
    """``frames[0]`` alone, then frames 1 on as blocks of up to ``size``."""
    blocks = [frames[0]]
    for start in range(1, len(frames), size):
        rows = frames[start:start + size]
        blocks.append(EchoFrame(m=start, k_start=rows[0].k_start,
                                samples=np.stack([f.samples for f in rows])))
    return blocks


@pytest.mark.parametrize("m_count", [12, 25, 64, 129])
def test_the_map_of_frame_blocks_equals_the_map_of_single_frames(default_scene,
                                                                 m_count):
    # M - 1 = 11, 24, 63 and 128 frames after frame 0, in blocks of every
    # size, all cut to one window as the harness streams them.
    h = scene_backscatter(default_scene)
    frames = [with_noise(synthesize_frame(default_scene, frame_truth(default_scene, m), h),
                         default_scene.noise_clutter_var, np.random.default_rng([5, m]))
              for m in range(m_count)]
    first = frames[0].first_lag
    lags = np.arange(first + 40, first + 297)
    window = cut(frames, lags)
    period = default_scene.wf.frame_period
    want = delay_doppler_map(window, period)
    assert want.values.shape == (257, m_count)
    assert np.array_equal(want.lags, lags)
    for size in (1, 5, 16, 128):
        got = delay_doppler_map(frame_blocks(window, size), period)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.lags, lags)
    # one block of every frame, whole or cut
    every = EchoFrame(m=0, k_start=frames[0].k_start,
                      samples=np.stack([f.samples for f in frames]))
    whole = delay_doppler_map(frames, period)
    got = delay_doppler_map([every], period)
    assert got.values.tobytes() == whole.values.tobytes()
    assert np.array_equal(got.lags, whole.lags)
    got = delay_doppler_map(cut([every], lags), period)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("order", [[0, 2, 1, 3], [0, 2, 3], [1, 0]],
                         ids=["swapped", "gap", "first"])
def test_map_rejects_blocks_out_of_order(default_scene, order):
    # blocks [0], [1, 2, 3], [4, 5, 6] and [7]
    blocks = frame_blocks(synth_cpi(default_scene, 8 * default_scene.wf.frame_period),
                          3)
    assert [b.m for b in blocks] == [0, 1, 4, 7]
    with pytest.raises(ValueError, match="out of order"):
        delay_doppler_map((blocks[i] for i in order), default_scene.wf.frame_period)


def test_single_target_on_bin_center():
    # Doppler exactly one bin (1/CPI): energy concentrates in that bin at
    # the true delay, and the velocity recovery is exact.
    scn0 = single_target_scene(20.0)
    wf = scn0.wf
    cpi = 0.5e-3
    m_count = wf.frames_per_cpi(cpi)
    bin_hz = 1.0 / (m_count * wf.frame_period)
    scene = single_target_scene(velocity_for_doppler(scn0, bin_hz))
    frames = synth_cpi(scene, cpi)
    truth = frame_truth(scene, 0)
    assert scene.doppler_hz[0] == pytest.approx(bin_hz, rel=1e-9)

    ddm = delay_doppler_map(frames, wf.frame_period)
    i, q = np.unravel_index(np.argmax(np.abs(ddm.values)), ddm.values.shape)
    assert ddm.lags[i] == truth.delay_samples[0]
    assert ddm.doppler_bins_hz[q] == pytest.approx(bin_hz, rel=1e-12)
    v = baseline_velocities(ddm, scene.source_velocity, wf.wavelength, 1, 1e-9)
    assert v[0] == pytest.approx(scene.velocities[0], rel=1e-9)


def test_zero_doppler_peaks_in_zero_bin():
    scene = single_target_scene(25.271)
    frames = synth_cpi(scene, 0.2e-3)
    ddm = delay_doppler_map(frames, scene.wf.frame_period)
    _, q = np.unravel_index(np.argmax(np.abs(ddm.values)), ddm.values.shape)
    assert ddm.doppler_bins_hz[q] == 0.0


def test_empty_cells_are_zero(preamble):
    # unit-gain zero-Doppler echo (exact +/-1 samples): lags after the peak
    # sit in the sidelobe-free window and every map cell there is exactly 0
    from adradar.echo import EchoFrame
    delay = 352
    frames = [EchoFrame(m=m, k_start=delay,
                        samples=preamble.astype(complex))
              for m in range(25)]
    lags = delay + np.arange(1, 64)
    ddm = delay_doppler_map(cut(frames, lags), 7.745454545e-6)
    assert np.max(np.abs(ddm.values)) == 0.0


def test_doppler_axis_convention():
    scene = single_target_scene(20.0)  # positive Doppler (closing target)
    frames = synth_cpi(scene, 0.2e-3)
    wf = scene.wf
    ddm = delay_doppler_map(frames, wf.frame_period)
    _, q = np.unravel_index(np.argmax(np.abs(ddm.values)), ddm.values.shape)
    bw = ddm.doppler_bin_width_hz
    assert bw == pytest.approx(1.0 / (len(frames) * wf.frame_period), rel=1e-12)
    # picked bin is the one nearest the true Doppler
    assert abs(ddm.doppler_bins_hz[q] - scene.doppler_hz[0]) <= bw / 2 * (1 + 1e-9)
    # axis confined to (-1/(2 T_f), +1/(2 T_f)]
    nyquist = 1 / (2 * wf.frame_period)
    assert ddm.doppler_bins_hz.max() <= nyquist * (1 + 1e-12)
    assert ddm.doppler_bins_hz.min() > -nyquist
    # even frame count: the +Nyquist bin itself is present
    frames64 = synth_cpi(scene, 0.5e-3)
    ddm64 = delay_doppler_map(cut(frames64, np.arange(340, 360)), wf.frame_period)
    assert len(frames64) % 2 == 0
    assert ddm64.doppler_bins_hz.max() == pytest.approx(nyquist, rel=1e-12)


def test_quantization_bound_midway():
    # true Doppler midway between bins: velocity error ~ lambda/(4 CPI)
    scn0 = single_target_scene(20.0)
    wf = scn0.wf
    cpi = 1e-3
    m_count = wf.frames_per_cpi(cpi)
    cpi_eff = m_count * wf.frame_period
    nu = (3 + 0.5) / cpi_eff  # halfway between bins 3 and 4
    scene = single_target_scene(velocity_for_doppler(scn0, nu))
    frames = synth_cpi(scene, cpi)
    ddm = delay_doppler_map(frames, wf.frame_period)
    v = baseline_velocities(ddm, scene.source_velocity, wf.wavelength, 1, 1e-9)
    err = abs(v[0] - scene.velocities[0])
    bound = wf.wavelength / (4 * cpi_eff)
    assert err == pytest.approx(bound, rel=1e-6)
    assert bound == pytest.approx(1.25, rel=0.05)


def test_bin_width_halves_when_cpi_doubles(default_scene):
    wf = default_scene.wf
    f1 = synth_cpi(default_scene, 0.2e-3)
    f2 = synth_cpi(default_scene, 0.4e-3)
    d1 = delay_doppler_map(cut(f1, np.arange(160, 220)), wf.frame_period)
    d2 = delay_doppler_map(cut(f2, np.arange(160, 220)), wf.frame_period)
    ratio = d1.doppler_bin_width_hz / d2.doppler_bin_width_hz
    assert ratio == pytest.approx(len(f2) / len(f1), rel=1e-12)


def test_shortfall_error(default_scene):
    frames = synth_cpi(default_scene, 0.2e-3)
    ddm = delay_doppler_map(frames, default_scene.wf.frame_period)
    with pytest.raises(DetectionShortfallError):
        baseline_velocities(ddm, default_scene.source_velocity,
                            default_scene.wf.wavelength, 3, threshold=1e9)


def test_three_target_association_by_delay(default_scene, true_velocities):
    wf = default_scene.wf
    cpi = 1e-3
    frames = synth_cpi(default_scene, cpi)
    m_count = len(frames)
    ddm = delay_doppler_map(cut(frames, np.arange(130, 250)), wf.frame_period)
    thr = detection_threshold(default_scene.noise_clutter_var)
    v = baseline_velocities(ddm, default_scene.source_velocity, wf.wavelength,
                            3, thr)
    # quantization-limited: each error at most half a Doppler bin in velocity
    bound = wf.wavelength / (4 * m_count * wf.frame_period) * (1 + 1e-9)
    assert np.all(np.abs(v - true_velocities) <= bound)


def test_power_invariance_high_snr():
    # quantization dominates: estimates identical across TX powers
    results = []
    for p_dbm in (10.0, 20.0):
        scn = Scenario(p_tx_dbm=p_dbm)
        scene = build_scene(scn)
        frames = synth_cpi(scene, 0.4e-3, noiseless=False, seed=3)
        ddm = delay_doppler_map(cut(frames, np.arange(130, 250)), scene.wf.frame_period)
        thr = detection_threshold(scene.noise_clutter_var)
        results.append(baseline_velocities(ddm, scene.source_velocity,
                                           scene.wf.wavelength, 3, thr))
    np.testing.assert_allclose(results[0], results[1], rtol=1e-12)


def masked_map_picks(mag, lags, count, threshold, guard):
    """Reference: greedy (lag, Doppler bin) picks straight on the 2-D map,
    masking every row within ``guard`` lags of an accepted peak."""
    available = np.ones(len(lags), dtype=bool)
    picks = []
    while len(picks) < count:
        masked = np.where(available[:, None], mag, -1.0)
        i, q = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if masked[i, q] <= threshold:
            break
        picks.append((int(lags[i]), int(q)))
        available[np.abs(lags - lags[i]) <= guard] = False
    return picks


@given(st.data())
def test_row_maxima_picks_match_the_2d_map_picks(data):
    rows = data.draw(st.integers(1, 12), label="rows")
    cols = data.draw(st.integers(1, 6), label="cols")
    # small integers make ties common, within and across rows
    mag = np.array(data.draw(st.lists(st.integers(0, 6), min_size=rows * cols,
                                      max_size=rows * cols)),
                   dtype=float).reshape(rows, cols)
    lags = np.array(data.draw(st.lists(st.integers(-40, 40), min_size=rows,
                                       max_size=rows, unique=True)))
    count = data.draw(st.integers(1, 5), label="count")
    threshold = data.draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]), label="threshold")
    guard = data.draw(st.integers(0, 8), label="guard")
    picked = pick_peaks(mag.max(axis=1), lags, count, threshold, guard)
    assert [(int(lags[i]), int(np.argmax(mag[i]))) for i in picked] == \
        masked_map_picks(mag, lags, count, threshold, guard)


def full_map_velocities(ddm, v_source, wavelength, expected_targets, threshold,
                        guard=Scenario.guard):
    """Reference reader: the peaks of every row of the whole map."""
    mag = np.abs(ddm.values)
    map_threshold = threshold * mag.shape[1] * 0.5
    rows = pick_peaks(mag.max(axis=1), ddm.lags, expected_targets,
                      map_threshold, guard)
    if len(rows) < expected_targets:
        raise DetectionShortfallError(
            f"only {len(rows)} of {expected_targets} map peaks above "
            f"threshold {map_threshold:.3e}")
    rows.sort(key=lambda i: ddm.lags[i])
    nu = ddm.doppler_bins_hz[np.argmax(mag[rows], axis=1)]
    return velocity_from_doppler(nu, v_source, wavelength)


def read_like_the_full_map(ddm, threshold, count, guard=Scenario.guard):
    """``baseline_velocities`` on ``ddm``, asserted to return the reference
    reader's velocity bits or to raise its error text; returns either."""
    readings = []
    for reader in (baseline_velocities, full_map_velocities):
        try:
            readings.append(reader(ddm, 25.0, 0.005, count, threshold,
                                   guard=guard).tobytes())
        except DetectionShortfallError as exc:
            readings.append(str(exc))
    assert readings[0] == readings[1]
    return readings[0]


def synthetic_map(slow_time, first_lag=100, frame_period=7.7e-6):
    m_count = slow_time.shape[1]
    return DelayDopplerMap(slow_time=slow_time,
                           lags=first_lag + np.arange(len(slow_time)),
                           doppler_bins_hz=-np.fft.fftfreq(m_count, d=frame_period),
                           doppler_bin_width_hz=1.0 / (m_count * frame_period))


# Both outcomes are drawn: at seed 3, 0 dBm falls short at every CPI and
# 5 dBm at 1 ms, and the higher powers pass.
@settings(max_examples=15, deadline=None)
@given(p_tx_dbm=st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0]),
       seed=st.integers(0, 2**16), cpi_s=st.sampled_from([2e-4, 5e-4, 1e-3]))
def test_the_screened_rows_read_a_harness_map_like_the_full_map(p_tx_dbm, seed,
                                                                cpi_s):
    maps = []

    def recording_map(frames, frame_period):
        maps.append(delay_doppler_map(frames, frame_period))
        return maps[-1]

    scn = Scenario()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ADRADAR_WORKERS", "1")
        mp.setattr(adradar.harness, "delay_doppler_map", recording_map)
        run_experiment(scn, ExperimentConfig(cpi_s=cpi_s, trials=1, p_tx_dbm=p_tx_dbm,
                                             estimators="baseline", seed=seed))
    scene = build_scene(scn, p_tx_dbm=p_tx_dbm)
    threshold = detection_threshold(scene.noise_clutter_var) * scn.threshold_scale
    read_like_the_full_map(maps[0], threshold, scn.num_targets, scn.guard)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_screened_rows_read_a_synthetic_map_like_the_full_map(data):
    rows = data.draw(st.integers(1, 40), label="rows")
    m_count = data.draw(st.integers(2, 40), label="M")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    slow_time = rng.standard_normal((rows, m_count)) + 1j * rng.standard_normal(
        (rows, m_count))
    # Tones, some on a bin and some between bins, make rows that can peak.
    for row in data.draw(st.lists(st.integers(0, rows - 1), max_size=5), label="tones"):
        bin_ = data.draw(st.floats(0.0, m_count), label="bin")
        slow_time[row] += (data.draw(st.floats(0.5, 8.0), label="amplitude")
                           * np.exp(2j * np.pi * bin_ * np.arange(m_count) / m_count))
    threshold = data.draw(st.floats(0.0, 6.0), label="threshold")
    read_like_the_full_map(synthetic_map(slow_time), threshold,
                           data.draw(st.integers(1, 4), label="count"),
                           data.draw(st.integers(0, 5), label="guard"))


def test_a_row_whose_bound_is_the_threshold_reads_like_the_full_map():
    # Map threshold 0.5 * 8 * 0.5 = 2.  Row 1 sums to exactly 2 and so does
    # its zero-bin DFT: it passes the screen but is not above the threshold.
    slow_time = np.zeros((5, 8), dtype=complex)
    slow_time[1], slow_time[3] = 0.25, 0.5
    ddm = synthetic_map(slow_time)
    assert np.abs(ddm.values).max(axis=1)[1] == 2.0
    one = read_like_the_full_map(ddm, 0.5, 1, guard=0)
    assert one == velocity_from_doppler(np.zeros(1), 25.0, 0.005).tobytes()
    assert read_like_the_full_map(ddm, 0.5, 2, guard=0) == (
        "only 1 of 2 map peaks above threshold 2.000e+00")


def test_a_row_whose_peak_is_its_bound_just_above_the_threshold_is_read():
    # Row 1's zero-bin DFT equals its bound sum_m |R_m| = 2, 1e-10 relative
    # above the map threshold: the screen's margin must keep it.
    slow_time = np.zeros((5, 8), dtype=complex)
    slow_time[1] = 0.25
    one = read_like_the_full_map(synthetic_map(slow_time), 0.5 * (1 - 1e-10), 1,
                                 guard=0)
    assert one == velocity_from_doppler(np.zeros(1), 25.0, 0.005).tobytes()


def test_a_map_with_every_row_below_the_threshold_is_a_shortfall():
    slow_time = np.full((4, 6), 1e-3 + 1e-3j)
    ddm = synthetic_map(slow_time)
    assert read_like_the_full_map(ddm, 1.0, 3) == (
        "only 0 of 3 map peaks above threshold 3.000e+00")


def test_the_map_values_are_the_read_only_dft_of_the_slow_time_rows(default_scene):
    frames = synth_cpi(default_scene, 0.2e-3, noiseless=False)
    ddm = delay_doppler_map(cut(frames, np.arange(140, 240)),
                            default_scene.wf.frame_period)
    assert "values" not in ddm.__dict__
    assert ddm.values is ddm.values
    assert ddm.values.tobytes() == np.fft.fft(ddm.slow_time, axis=1).tobytes()
    for arr in (ddm.slow_time, ddm.values):
        assert not arr.flags.writeable
    # A subset of rows transforms to the same bits as those rows of the map.
    for rows in ([0], [3, 50, 99], list(range(0, 100, 7))):
        assert (np.fft.fft(ddm.slow_time[rows], axis=1).tobytes()
                == ddm.values[rows].tobytes())


def bin_center_nmse(scn, cpi_s):
    """The baseline's NMSE when every target lands in the Doppler bin nearest
    its true Doppler: the bin-center quantization error alone."""
    scene = build_scene(scn)
    wf = scene.wf
    bins = -np.fft.fftfreq(wf.frames_per_cpi(cpi_s), wf.frame_period)
    nearest = bins[np.abs(bins[:, None] - scene.doppler_hz).argmin(axis=0)]
    v_hat = velocity_from_doppler(nearest, scene.source_velocity, wf.wavelength)
    return float(np.mean(((scene.velocities - v_hat) / scene.velocities) ** 2))


# Above its detection SNR the baseline picks each target's nearest bin in every
# trial, so its NMSE is the bin-center error alone and grows between CPIs whose
# bins fall farther from the true Dopplers: criterion 6b's violation.
@pytest.mark.parametrize("p_tx_dbm", [20.0, 60.0])
def test_the_baseline_nmse_is_the_bin_center_error_at_high_snr(p_tx_dbm):
    scn = Scenario(p_tx_dbm=p_tx_dbm)
    for cpi_s in (0.2e-3, 0.4e-3, 0.6e-3, 0.8e-3, 1e-3):
        records = run_experiment(scn, ExperimentConfig(
            cpi_s=cpi_s, trials=20, estimators="baseline", seed=1))
        assert adradar.harness.nmse(records, "baseline") == pytest.approx(
            bin_center_nmse(scn, cpi_s), rel=1e-12, abs=0.0), cpi_s
