import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

from adradar.echo import synthesize_frame
from adradar.errors import ScenarioError
from adradar.params import SPEED_OF_LIGHT, WaveformParams
from adradar.phasedarray import UpaGeometry, steering_upa, wide_beam
from adradar.scene import (FrameTruth, Scenario, backscatter_coefficient, build_scene,
                           dbm_to_watts, frame_truth, frame_truths,
                           large_scale_gain, load_scenario, noise_clutter_variance,
                           save_scenario, scene_backscatter)

GEO = UpaGeometry()


def test_large_scale_gain_inverse_fourth_power():
    g1 = large_scale_gain(25.0, 100.0, 5e-3)
    g2 = large_scale_gain(50.0, 100.0, 5e-3)
    assert g1 / g2 == pytest.approx(16.0, rel=1e-12)


def test_large_scale_gain_linear_in_rcs():
    base = large_scale_gain(50.0, 1.0, 5e-3)
    assert large_scale_gain(50.0, 100.0, 5e-3) == pytest.approx(100 * base, rel=1e-12)


def test_large_scale_gain_plugin_value():
    # lambda = 5 mm, r = 50 m, sigma = 100 m^2 -> ~2.016e-13
    g = large_scale_gain(50.0, 100.0, 5e-3)
    assert g == pytest.approx((25e-6 * 100) / ((4 * np.pi) ** 3 * 6.25e6), rel=1e-12)
    assert g == pytest.approx(2.016e-13, rel=1e-3)


def test_large_scale_gain_rejects_bad_range():
    with pytest.raises(ValueError):
        large_scale_gain(0.0, 100.0, 5e-3)


def test_large_scale_gain_at_the_float_limits():
    # r^4 underflows to 0 at 1e-300 m and overflows at 1e300 m.
    assert large_scale_gain(1e-300, 100.0, 5e-3) == np.inf
    assert large_scale_gain(1e300, 100.0, 5e-3) == 0.0


def test_dbm_to_watts_is_inf_where_the_watts_overflow():
    assert dbm_to_watts(4000.0) == np.inf  # 10 ** 400


def test_backscatter_zero_beta():
    f = wide_beam([0.0], 0.0, GEO)
    assert backscatter_coefficient(0.0, 0.0, 0.0, f, 1.0, GEO) == 0


def test_backscatter_matched_beam_term_by_term():
    # Single beam matched to the target: compare against an explicit
    # unoptimized evaluation of sqrt(G) beta (f_RX^H a*) (a^H f) with the
    # conjugate receive beam f_RX = conj(f).
    az, el = 0.2, 0.0
    f_tx = wide_beam([az], el, GEO)
    f_rx = np.conj(f_tx)
    gain = 2.5e-13
    h = backscatter_coefficient(az, el, 1.0, f_tx, gain, GEO)
    a = steering_upa(az, el, GEO)
    expected = (np.sqrt(gain)
                * np.sum(np.conj(f_rx) * np.conj(a))
                * np.sum(np.conj(a) * f_tx))
    assert h == pytest.approx(expected, rel=1e-12)
    # matched beams: both factors reach sqrt(N) -> |h| = sqrt(G) * N
    assert abs(h) == pytest.approx(np.sqrt(gain) * 16.0, rel=1e-12)


def test_backscatter_modulus_invariant_under_beta_phase():
    f = wide_beam([0.0], 0.0, GEO)
    h1 = backscatter_coefficient(0.0, 0.0, 1.0, f, 1e-12, GEO)
    h2 = backscatter_coefficient(0.0, 0.0, np.exp(1j * 1.1), f, 1e-12, GEO)
    assert abs(h1) == pytest.approx(abs(h2), rel=1e-12)
    assert h1 != h2


def test_a_target_holds_no_small_scale_gain(default_scene):
    with pytest.raises(TypeError):
        replace(default_scene, betas=np.ones(3, dtype=complex))


def per_target_backscatter(scene, betas):
    """h_p target by target from Python floats, as computed when each target
    was an object carrying its gain as a Python complex:
    sqrt(G_p) * beta_p * (a^H f)^2."""
    out = []
    for p, beta in enumerate(betas):
        az, el, r = (float(scene.azimuths[p]), float(scene.elevations[p]),
                     float(scene.ranges[p]))
        factor = np.vdot(steering_upa(az, el, scene.geometry), scene.beam)
        gain = large_scale_gain(r, scene.rcs, scene.wf.wavelength)
        out.append(complex(np.sqrt(gain) * complex(beta) * factor * factor))
    return np.array(out)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(targets=st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(-1.5, 1.5),
                                  st.floats(-1.5, 1.5)), min_size=1, max_size=4),
       betas=st.lists(st.complex_numbers(max_magnitude=1e3, **finite),
                      min_size=4, max_size=4))
def test_scene_backscatter_is_the_per_target_formula_bit_for_bit(targets, betas):
    ranges, azimuths, elevations = zip(*targets)
    scene = build_scene(Scenario(target_velocities_mps=(20.0,) * len(targets),
                                 target_ranges_m=ranges, target_azimuths_rad=azimuths,
                                 target_elevations_rad=elevations))
    drawn = np.array(betas[:len(targets)])
    got = scene_backscatter(scene, drawn)
    assert got.tobytes() == per_target_backscatter(scene, drawn).tobytes()
    ones = per_target_backscatter(scene, [1.0] * len(targets))
    assert scene_backscatter(scene).tobytes() == ones.tobytes()


def test_noise_clutter_variance_values():
    n0 = dbm_to_watts(-174.0)
    assert noise_clutter_variance(n0, 1.76e9, 0.1, 0.0) == pytest.approx(7.007e-12, rel=1e-3)
    assert noise_clutter_variance(n0, 2 * 1.76e9, 0.1, 0.0) == pytest.approx(
        2 * noise_clutter_variance(n0, 1.76e9, 0.1, 0.0), rel=1e-12)
    assert noise_clutter_variance(n0, 1.76e9, 0.0, 0.5) == pytest.approx(
        n0 * 1.76e9, rel=1e-12)
    with pytest.raises(ValueError):
        noise_clutter_variance(n0, 1.76e9, -1.0, 0.0)


@pytest.mark.parametrize("field, watts", [
    ("noise_clutter_var", np.inf), ("noise_clutter_var", np.nan),
    ("noise_clutter_var", 0.0), ("tx_power", 0.0), ("tx_power", -1.0),
    ("tx_power", np.inf), ("tx_power", np.nan)])
def test_a_scene_takes_only_positive_finite_power_and_variance(default_scene, field,
                                                               watts):
    with pytest.raises(ScenarioError, match="must be positive and finite"):
        replace(default_scene, **{field: watts})


def test_clutter_alone_makes_a_usable_variance():
    # 10 ** -503 underflows, so N0 is 0 W/Hz and sigma^2 is all clutter.
    scn = Scenario(noise_density_dbm_hz=-5000.0, clutter_ratio=1e-13)
    scene = build_scene(scn)
    assert dbm_to_watts(-5000.0) == 0.0
    assert scene.noise_clutter_var == 1e-13 * scene.tx_power > 0


def test_frame_truth_static_target(default_scene):
    scn = Scenario(target_velocities_mps=(25.271,), target_ranges_m=(30.0,),
                   target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,))
    scene = build_scene(scn)
    t0 = frame_truth(scene, 0)
    t50 = frame_truth(scene, 50)
    assert scene.doppler_hz[0] == 0.0
    assert t0.delay_samples[0] == t50.delay_samples[0]


def test_frame_truth_doppler_value(default_scene):
    lam = default_scene.wf.wavelength
    nu = default_scene.doppler_hz
    assert nu[0] == pytest.approx(2 * (25.271 - 20.279) / lam, rel=1e-12)
    assert nu[0] == pytest.approx(1998.2, rel=1e-4)


def test_frame_truth_delay_rounding():
    scn = Scenario(target_velocities_mps=(20.0,), target_ranges_m=(50.0,),
                   target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,))
    scene = build_scene(scn)
    tr = frame_truth(scene, 0)
    assert tr.delay_samples[0] == round(2 * 50.0 / C0 * 1.76e9) == 587


def test_frame_truth_collision_raises():
    scn = Scenario(target_velocities_mps=(20.0, 21.0),
                   target_ranges_m=(50.0, 50.01),
                   target_azimuths_rad=(0.0, 0.1),
                   target_elevations_rad=(0.0, 0.0))
    scene = build_scene(scn)
    with pytest.raises(ScenarioError):
        frame_truth(scene, 0)


def test_frame_truth_delay_drift_small(default_scene):
    # At V2V speeds the delay moves well under one sample per frame.
    d0 = frame_truth(default_scene, 0).delay_samples
    d1 = frame_truth(default_scene, 1).delay_samples
    assert np.all(np.abs(d1 - d0) <= 1)


def test_frame_truths_equal_each_frames_truth():
    vs = 25.271
    moving = build_scene(Scenario(source_velocity_mps=vs,
                                  target_velocities_mps=(vs + 30, vs, vs - 30)))
    for frames in (range(0, 16), range(113, 129), (1000, 0, 64), (7,)):
        truths = frame_truths(moving, frames)
        assert [t.frame for t in truths] == list(frames)
        for truth, m in zip(truths, frames):
            one = frame_truth(moving, m)
            assert np.array_equal(truth.delay_samples, one.delay_samples)
            assert truth.delay_samples.dtype == np.int64


@pytest.mark.parametrize("frames, first_bad", [
    (range(590, 606), 599), (range(700, 716), 700), ((720, 600), 720),
    ((0, 1, 709), 709)])
def test_frame_truths_raise_for_the_first_bad_frame(frames, first_bad):
    # The second target closes on the first at 100 m/s: their delays collide
    # from frame 599 and cross from frame 709.
    vs = 25.271
    scene = build_scene(Scenario(source_velocity_mps=vs,
                                 target_velocities_mps=(vs, vs - 100.0),
                                 target_ranges_m=(50.0, 50.5),
                                 target_azimuths_rad=(0.0, 0.1),
                                 target_elevations_rad=(0.0, 0.0)))
    with pytest.raises(ScenarioError) as one:
        frame_truth(scene, first_bad)
    with pytest.raises(ScenarioError) as block:
        frame_truths(scene, frames)
    assert str(block.value) == str(one.value)
    assert f"at frame {first_bad}:" in str(block.value)


def test_frame_truths_reject_a_negative_frame(default_scene):
    with pytest.raises(ValueError, match="frame index must be nonnegative"):
        frame_truths(default_scene, (0, -1))


@pytest.mark.parametrize("changes", [{"bandwidth_hz": 5e-324}, {"frame_len": 2 ** 63},
                                     {"frame_len": 10 ** 400}],
                         ids=["subnormal-bandwidth", "frame_len-2^63", "frame_len-1e400"])
def test_a_waveform_needs_a_frame_below_2_63_samples_and_finite_seconds(changes):
    with pytest.raises(ScenarioError, match=r"past 2\^63 samples or the largest float"):
        WaveformParams(**changes)


# 2^14 samples at 2^30 Hz make a frame of exactly 2^-16 s, so 2^47 s holds
# exactly 2^63 frames and the float just below it 2^63 - 1024.
def test_a_cpi_holds_fewer_than_2_63_frames():
    wf = WaveformParams(bandwidth_hz=2.0 ** 30, frame_len=2 ** 14)
    assert wf.frames_per_cpi(np.nextafter(2.0 ** 47, 0)) == 2 ** 63 - 1024
    with pytest.raises(ValueError, match=r"CPI 140737488355328.0 s holds 2\^63 frames or more"):
        wf.frames_per_cpi(2.0 ** 47)


# The gains h_p hold over the CPI, so no frame truth carries them, and a
# frame synthesized without h takes the pinned gains at every frame.
def test_backscatter_constant_across_frames(default_scene):
    assert [f.name for f in fields(FrameTruth)] == ["frame", "delay_samples"]
    h = scene_backscatter(default_scene)
    for m in (0, 100):
        truth = frame_truth(default_scene, m)
        assert (synthesize_frame(default_scene, truth).samples.tobytes()
                == synthesize_frame(default_scene, truth, h).samples.tobytes())


def test_delay_ordering_preserved_over_cpi(default_scene):
    # strictly increasing delays at every frame of the longest CPI used
    m_count = default_scene.wf.frames_per_cpi(1e-3)
    for m in range(m_count):
        delays = frame_truth(default_scene, m).delay_samples
        assert np.all(np.diff(delays) > 0)


def scalar_truth(scene, m):
    """Per-target Doppler and delays, one scalar formula per target."""
    wf = scene.wf
    t = m * wf.frame_period
    doppler, delays = [], []
    for v, r0 in zip(scene.velocities.tolist(), scene.ranges.tolist()):
        doppler.append(2.0 * (scene.source_velocity - v) / wf.wavelength)
        r = r0 + (v - scene.source_velocity) * t
        delays.append(int(np.rint(2.0 * r / SPEED_OF_LIGHT / wf.sample_period)))
    return np.array(doppler), np.array(delays)


def test_frame_truth_matches_the_scalar_formula(default_scene):
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
            doppler, delays = scalar_truth(scene, m)
            assert np.array_equal(scene.doppler_hz, doppler)
            assert np.array_equal(truth.delay_samples, delays)
            assert truth.delay_samples.dtype == np.int64
            # The Doppler vector is the scene's, shared by every frame.
            assert not scene.doppler_hz.flags.writeable


def test_frame_truth_names_the_frame_of_a_nonpositive_range():
    # 1 m away and closing at 1000 m/s: the range reaches zero at frame 130.
    vs = 25.271
    scene = build_scene(Scenario(source_velocity_mps=vs,
                                 target_velocities_mps=(vs - 1000.0,),
                                 target_ranges_m=(1.0,), target_azimuths_rad=(0.0,),
                                 target_elevations_rad=(0.0,)))
    frame_truth(scene, 129)
    with pytest.raises(ScenarioError, match="nonpositive at frame 130"):
        frame_truth(scene, 130)
    with pytest.raises(ScenarioError, match="nonpositive at frame 130$"):
        frame_truths(scene, range(120, 136))


def test_frame_truth_names_the_frame_of_a_later_collision():
    # The second target closes on the first at 100 m/s; 0.5 m apart at frame 0.
    vs = 25.271
    scene = build_scene(Scenario(source_velocity_mps=vs,
                                 target_velocities_mps=(vs, vs - 100.0),
                                 target_ranges_m=(50.0, 50.5),
                                 target_azimuths_rad=(0.0, 0.1),
                                 target_elevations_rad=(0.0, 0.0)))
    frame_truth(scene, 0)
    with pytest.raises(ScenarioError, match="collide after rounding at frame 600"):
        frame_truth(scene, 600)


def test_negative_beta_mode_rejected():
    with pytest.raises(ScenarioError):
        Scenario(beta_mode="gaussian")


def test_target_validation(default_scene):
    with pytest.raises(ScenarioError, match="target range must be positive"):
        replace(default_scene, ranges=(-1.0, 15.7, 17.9))
    with pytest.raises(ScenarioError, match="target RCS must be positive"):
        replace(default_scene, rcs=0.0)


def test_a_scene_holds_each_target_quantity_once_read_only(default_scene):
    scn = Scenario()
    for name, want in (("velocities", scn.target_velocities_mps),
                       ("ranges", scn.target_ranges_m),
                       ("azimuths", scn.target_azimuths_rad),
                       ("elevations", scn.target_elevations_rad)):
        values = getattr(default_scene, name)
        assert values.dtype == np.float64 and not values.flags.writeable
        assert values.tolist() == list(want)
    assert default_scene.rcs == 100.0
    assert default_scene.doppler_hz is default_scene.doppler_hz
    assert not default_scene.doppler_hz.flags.writeable


@pytest.mark.parametrize("changes", [
    {"velocities": ()}, {"velocities": (), "ranges": (), "azimuths": (), "elevations": ()},
    {"ranges": (14.0, 15.7)}, {"azimuths": ((0.0, 0.0, 0.0),)}])
def test_a_scene_needs_one_value_per_target(default_scene, changes):
    with pytest.raises(ScenarioError, match="at least one target and one"):
        replace(default_scene, **changes)


# r^4 underflows to 0 at 1e-300 m and overflows at 1e300 m; at 1e76 m the
# gain is a subnormal float, still positive.
@pytest.mark.parametrize("ranges, rcs", [
    ((1e-300, 15.7, 17.9), 100.0), ((1e300,) * 3, 100.0), ((14.0, 15.7, 1e80), 100.0),
    ((1e-3, 15.7, 17.9), 1e308)])
def test_a_scene_rejects_a_gain_that_is_not_a_positive_float(default_scene, ranges, rcs):
    with pytest.raises(ScenarioError, match="radar-equation gain"):
        replace(default_scene, ranges=ranges, rcs=rcs)
    assert replace(default_scene, ranges=(14.0, 15.7, 1e76)).ranges[2] == 1e76


def test_frame_truths_reject_a_delay_past_int64():
    # 1e300 m/s carries the first target past 2^63 samples of delay by
    # frame 1, where a cast to int64 would wrap.
    scene = build_scene(Scenario(target_velocities_mps=(1e300, 24.949, 21.806)))
    frame_truth(scene, 0)
    with np.errstate(all="raise"):
        with pytest.raises(ScenarioError, match="past 2\\^63 samples at frame 1$"):
            frame_truths(scene, range(0, 4))


def test_scenario_roundtrip(tmp_path):
    scn = Scenario()
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    loaded = load_scenario(path)
    assert loaded == scn
    # The defaults Scenario takes from WaveformParams and UpaGeometry are
    # written as before: the older file's text, less its retired keys.
    parent = json.loads((Path(__file__).resolve().parent / "data"
                         / "scenario_parent.json").read_text())
    for key in ("nx_rx", "ny_rx", "first_delay_window", "preamble_len"):
        del parent[key]
    assert path.read_text() == json.dumps(parent, indent=2, sort_keys=True) + "\n"


def test_scenario_file_of_the_two_array_version_loads():
    # Written by save_scenario(Scenario()) before the RX array size, the
    # first-delay window and preamble_len were retired.
    parent = Path(__file__).resolve().parent / "data" / "scenario_parent.json"
    assert {"nx_rx", "ny_rx", "first_delay_window", "preamble_len"} <= set(
        json.loads(parent.read_text()))
    assert load_scenario(parent) == Scenario()


def test_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not_a_key": 1}')
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_scenario_list_length_mismatch():
    with pytest.raises(ScenarioError):
        Scenario(target_velocities_mps=(1.0, 2.0), target_ranges_m=(10.0,))


def test_build_scene_power_override(default_scene):
    scn = Scenario()
    scene10 = build_scene(scn, p_tx_dbm=10.0)
    assert scene10.tx_power == pytest.approx(0.01, rel=1e-12)
    assert default_scene.tx_power == pytest.approx(0.1, rel=1e-12)
    # kappa = 0: noise floor independent of TX power
    assert scene10.noise_clutter_var == default_scene.noise_clutter_var
