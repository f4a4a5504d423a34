from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adradar.echo import EchoFrame, synthesize_frame, synthesize_window, with_noise
from adradar.errors import ScenarioError
from adradar.scene import (Scenario, build_scene, draw_betas, frame_truth,
                           scene_backscatter)


def single_target_scene(p_tx_dbm=0.0, velocity=20.279):
    scn = Scenario(target_velocities_mps=(velocity,), target_ranges_m=(50.0,),
                   target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,),
                   p_tx_dbm=p_tx_dbm)
    return build_scene(scn)


def test_pure_shift_no_doppler(preamble):
    scene = single_target_scene(velocity=25.271)  # zero Doppler
    truth = frame_truth(scene, 0)
    frame = synthesize_frame(scene, truth)
    h = scene_backscatter(scene)[0]
    amp = np.sqrt(scene.tx_power)
    expected = amp * h * preamble
    assert frame.k_start == truth.delay_samples[0]
    np.testing.assert_allclose(frame.samples, expected, rtol=1e-12)
    # occupied region is exactly a scaled +/-1 sequence
    np.testing.assert_allclose(np.abs(frame.samples), abs(amp * h), rtol=1e-12)


def test_phase_advances_per_sample(preamble):
    scene = single_target_scene()
    truth = frame_truth(scene, 0)
    frame = synthesize_frame(scene, truth)
    nu = scene.doppler_hz[0]
    ts = scene.wf.sample_period
    # strip the preamble sign, leaving the Doppler rotation
    rotation = frame.samples * preamble
    step = rotation[1:] / rotation[:-1]
    expected = np.exp(1j * 2 * np.pi * nu * ts)
    np.testing.assert_allclose(step, expected, rtol=1e-9)
    assert 2 * np.pi * nu * ts == pytest.approx(7.13e-6, rel=5e-3)
    np.testing.assert_allclose(np.abs(frame.samples),
                               np.abs(frame.samples[0]), rtol=1e-12)


def test_two_target_superposition():
    scn = Scenario(target_velocities_mps=(20.0, 22.0),
                   target_ranges_m=(50.0, 52.0),
                   target_azimuths_rad=(0.0, 0.05),
                   target_elevations_rad=(0.0, 0.0))
    scene = build_scene(scn)
    truth = frame_truth(scene, 0)
    both = synthesize_frame(scene, truth)

    parts = []
    for keep in range(2):
        sub = replace(scene, **{name: getattr(scene, name)[keep:keep + 1] for name in
                                ("velocities", "ranges", "azimuths", "elevations")})
        sub_truth = frame_truth(sub, 0)
        f = synthesize_frame(sub, sub_truth)
        padded = np.zeros_like(both.samples)
        off = f.k_start - both.k_start
        padded[off:off + len(f.samples)] = f.samples
        parts.append(padded)
    np.testing.assert_allclose(both.samples, parts[0] + parts[1], rtol=1e-12, atol=1e-18)


def test_window_length_extended_vs_first_delay(default_scene):
    # The window runs past the first target's K_pre samples to the last
    # target's tail, and every sample of that extension is occupied.
    truth = frame_truth(default_scene, 0)
    spread = int(truth.delay_samples[-1] - truth.delay_samples[0])
    frame = synthesize_frame(default_scene, truth)
    assert frame.k_start == truth.delay_samples[0]
    assert len(frame.samples) == 3328 + spread
    assert np.all(frame.samples[3328:] != 0)


def per_sample_echo(scene, truth, preamble_samples):
    # Reference: the echo formula evaluated sample by sample, with the
    # Doppler phase at the absolute index k + m K of every occupied sample.
    m = truth.frame
    k_pre = len(preamble_samples)
    delays = truth.delay_samples
    k_start = int(delays[0])
    n = k_pre + int(delays[-1] - delays[0])
    k = k_start + np.arange(n)
    ts = scene.wf.sample_period
    samples = np.zeros(n, dtype=complex)
    for h, nu, ell in zip(scene_backscatter(scene), scene.doppler_hz, delays):
        idx = k - int(ell)
        occupied = (idx >= 0) & (idx < k_pre)
        phase = 2.0 * np.pi * nu * (k[occupied] + m * scene.wf.frame_len) * ts
        samples[occupied] += (np.sqrt(scene.tx_power) * h * np.exp(1j * phase)
                              * preamble_samples[idx[occupied]])
    return k_start, samples


def test_synthesis_matches_the_per_sample_formula(preamble, default_scene):
    # A second scene whose targets close and open at 30 m/s, so their delays
    # move between the frames checked.
    vs = 25.271
    moving = build_scene(Scenario(source_velocity_mps=vs,
                                  target_velocities_mps=(vs + 30, vs, vs - 30)))
    frames = (0, 1, 64, 128, 1000)
    assert len({tuple(frame_truth(moving, m).delay_samples) for m in frames}) > 2
    for scene in (default_scene, moving):
        for m in frames:
            truth = frame_truth(scene, m)
            frame = synthesize_frame(scene, truth)
            k_start, expected = per_sample_echo(scene, truth, preamble)
            assert frame.k_start == k_start
            np.testing.assert_allclose(frame.samples, expected, rtol=1e-12)


def test_rotated_preamble_is_cached_read_only(preamble, default_scene):
    rotated = default_scene.rotated_preamble
    assert default_scene.rotated_preamble is rotated
    assert rotated.shape == (3, len(preamble))
    # Row p is the preamble under target p's fast-time Doppler rotation.
    i = np.arange(len(preamble))
    for row, nu in zip(rotated, default_scene.doppler_hz):
        phasor = np.exp(1j * (2.0 * np.pi * nu * i * default_scene.wf.sample_period))
        np.testing.assert_allclose(row, phasor * preamble, rtol=1e-12)
    with pytest.raises(ValueError):
        rotated[0, 0] = 0
    # A scene with other target velocities rotates by its own Dopplers.
    other = build_scene(Scenario(target_velocities_mps=(20.0, 21.0, 22.0)))
    assert not np.array_equal(other.rotated_preamble, rotated)


def test_delay_outside_the_window_is_a_scenario_error(default_scene):
    # The window runs from the first delay to the last one's preamble tail;
    # a middle target delayed past the last would lose its tail.
    truth = frame_truth(default_scene, 0)
    tail_cut = replace(truth, delay_samples=truth.delay_samples + [0, 100, 0])
    unsorted = replace(truth, delay_samples=truth.delay_samples[::-1])
    for bad in (tail_cut, unsorted):
        with pytest.raises(ScenarioError, match="outside representable window"):
            synthesize_frame(default_scene, bad)


def test_zero_noise_reproducible(default_scene):
    truth = frame_truth(default_scene, 5)
    a = synthesize_frame(default_scene, truth)
    b = synthesize_frame(default_scene, truth)
    assert np.array_equal(a.samples, b.samples)


def test_noise_statistics():
    # z-only frames: sample variance converges to sigma_cn^2 within 3/sqrt(N).
    scn = Scenario(target_velocities_mps=(25.271,), target_ranges_m=(30.0,),
                   target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,),
                   p_tx_dbm=-400.0)  # signal power ~0: noise-only frames
    scene = build_scene(scn)
    samples = []
    for m in range(12):
        rng = np.random.default_rng([99, 0, m])
        frame = synthesize_frame(scene, frame_truth(scene, m))
        samples.append(with_noise(frame, scene.noise_clutter_var, rng).samples)
    z = np.concatenate(samples)
    var = np.mean(np.abs(z) ** 2)
    n = len(z)
    assert abs(var - scene.noise_clutter_var) / scene.noise_clutter_var < 3 / np.sqrt(n)


def test_amplitude_linear_in_sqrt_power():
    s1 = single_target_scene(p_tx_dbm=0.0)
    s4 = single_target_scene(p_tx_dbm=10 * np.log10(4))
    f1 = synthesize_frame(s1, frame_truth(s1, 0))
    f4 = synthesize_frame(s4, frame_truth(s4, 0))
    np.testing.assert_allclose(f4.samples, 2.0 * f1.samples, rtol=1e-12)


def test_same_seed_same_noise(default_scene):
    frame = synthesize_frame(default_scene, frame_truth(default_scene, 3))
    a, b = (with_noise(frame, default_scene.noise_clutter_var,
                       np.random.default_rng([1, 2, 3])) for _ in range(2))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, frame.samples)


def test_noise_on_a_noiseless_copy_equals_noise_at_synthesis(default_scene):
    truth = frame_truth(default_scene, 5)
    noiseless = synthesize_frame(default_scene, truth)
    before = noiseless.samples.copy()
    noisy = with_noise(noiseless, default_scene.noise_clutter_var,
                       np.random.default_rng([4, 0, 5]))
    # Oracle: noise added in place after the targets are summed.
    expected = noiseless.samples.copy()
    sigma = np.sqrt(default_scene.noise_clutter_var / 2.0)
    z = np.random.default_rng([4, 0, 5]).standard_normal((2, len(expected)))
    expected.real += sigma * z[0]
    expected.imag += sigma * z[1]
    assert noisy.samples.tobytes() == expected.tobytes()
    assert (noisy.m, noisy.k_start) == (noiseless.m, noiseless.k_start)
    assert noiseless.samples.tobytes() == before.tobytes()
    silent = with_noise(noiseless, 0.0, np.random.default_rng(0))
    assert np.array_equal(silent.samples, noiseless.samples)


@pytest.mark.parametrize("variance", [-1e-3, -np.inf, np.nan])
def test_noise_of_a_negative_variance_is_an_error(variance):
    frame = EchoFrame(m=0, k_start=0, samples=np.ones(8, dtype=complex))
    with pytest.raises(ValueError, match="noise_clutter_var must be >= 0"):
        with_noise(frame, variance, np.random.default_rng(0))


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 20), width=st.integers(1, 1000),
       seed=st.integers(0, 2**32 - 1))
def test_a_block_draw_is_its_rows_draws_in_order(rows, width, seed):
    # A generator fills an array in C order, so one (rows, 2, width) draw is
    # the rows' (2, width) draws one after another, and a block's noise is
    # its frames' noise drawn frame by frame, bit for bit.
    one = np.random.default_rng(seed).standard_normal((rows, 2, width))
    rng = np.random.default_rng(seed)
    each = [rng.standard_normal((2, width)) for _ in range(rows)]
    assert one.tobytes() == np.stack(each).tobytes()
    noiseless = np.random.default_rng([seed, 1]).standard_normal((rows, width)) * (1 - 2j)
    block = with_noise(EchoFrame(m=4, k_start=9, samples=noiseless), 0.7,
                       np.random.default_rng(seed))
    assert (block.m, block.k_start, block.samples.shape) == (4, 9, (rows, width))
    rng = np.random.default_rng(seed)
    for r in range(rows):
        frame = with_noise(EchoFrame(m=4 + r, k_start=9, samples=noiseless[r]), 0.7, rng)
        assert frame.samples.tobytes() == block.samples[r].tobytes()


# Targets closing and opening at over 100 m/s step their delays about every
# 90 frames, so a block of up to 16 frames often holds a step.
FAST = Scenario(target_velocities_mps=(-100.0, 24.949, 150.0))
FAST_SCENE = build_scene(FAST)
# Each case's scene and its h: pinned gains, or one Rayleigh draw.
FAST_SCENES = {(beta_mode, seed): (FAST_SCENE, scene_backscatter(
    FAST_SCENE, None if beta_mode == "fixed" else draw_betas(
        FAST, np.random.default_rng([seed, 0, 1]))))
    for beta_mode, seed in [("fixed", 0)] + [("rayleigh", s) for s in range(3)]}
FIRST_STEP = next(m for m in range(1, 400)
                  if frame_truth(FAST_SCENE, m).delay_samples.tolist()
                  != frame_truth(FAST_SCENE, m - 1).delay_samples.tolist())


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(FAST_SCENES)), start=st.integers(0, 300),
       rows=st.integers(1, 16), offset=st.integers(-700, 3500),
       width=st.integers(1, 1500))
@example(key=("fixed", 0), start=FIRST_STEP - 5, rows=16, offset=2000, width=768)
@example(key=("rayleigh", 1), start=FIRST_STEP - 1, rows=2, offset=-40, width=3500)
def test_a_window_block_is_its_frames_cut_to_the_window(key, start, rows, offset,
                                                        width):
    # Row r is frame start + r synthesized whole, over the window's samples
    # inside that frame, and exactly +0 outside it, bit for bit.
    scene, h = FAST_SCENES[key]
    truths = [frame_truth(scene, m) for m in range(start, start + rows)]
    k_start = int(truths[0].delay_samples[0]) + offset
    block = synthesize_window(scene, h, truths, k_start, width)
    assert (block.m, block.k_start, block.samples.shape) == (start, k_start,
                                                             (rows, width))
    for truth, got in zip(truths, block.samples):
        whole = synthesize_frame(scene, truth, h)
        want = np.zeros(width, dtype=complex)
        lo = max(whole.k_start, k_start)
        hi = min(whole.k_start + len(whole.samples), k_start + width)
        if lo < hi:
            want[lo - k_start:hi - k_start] = whole.samples[lo - whole.k_start:
                                                            hi - whole.k_start]
        assert got.tobytes() == want.tobytes()
