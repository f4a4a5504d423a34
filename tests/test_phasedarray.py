import numpy as np
import pytest

from adradar import phasedarray
from adradar.errors import BeamMeasurementError
from adradar.phasedarray import (UpaGeometry, design_wide_beam,
                                 gain_cut, measure_beamwidth, steering_upa,
                                 steering_x, steering_y, wide_beam)

GEO = UpaGeometry()


def test_steering_x_broadside_is_all_ones():
    np.testing.assert_allclose(steering_x(0.0, 0.0, 8), np.ones(8))


def test_steering_x_endfire_alternates():
    v = steering_x(np.pi / 2, 0.0, 4)
    np.testing.assert_allclose(v, [1, -1, 1, -1], atol=1e-12)


def test_steering_x_30deg_second_entry_is_j():
    v = steering_x(np.pi / 6, 0.0, 4)
    assert v[1] == pytest.approx(1j, abs=1e-12)


def test_steering_y_examples():
    np.testing.assert_allclose(steering_y(0.0, 2), [1, 1])
    np.testing.assert_allclose(steering_y(np.pi / 2, 2), [1, -1], atol=1e-12)
    v = steering_y(np.pi / 6, 2)
    assert v[1] == pytest.approx(1j, abs=1e-12)


def test_steering_vectors_unit_modulus():
    rng = np.random.default_rng(3)
    for _ in range(20):
        az, el = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        v = steering_upa(az, el, GEO)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
        assert v[0] == pytest.approx(1.0)


def test_steering_vectors_accept_arrays_of_angles():
    rng = np.random.default_rng(5)
    az, el = rng.uniform(-np.pi / 2, np.pi / 2, (2, 7))
    geo = UpaGeometry(nx=5, ny=3)
    for batch, single in ((steering_x(az, el, 8), lambda a, e: steering_x(a, e, 8)),
                          (steering_y(el, 3), lambda a, e: steering_y(e, 3)),
                          (steering_upa(az, el, geo), lambda a, e: steering_upa(a, e, geo))):
        expected = np.array([single(a, e) for a, e in zip(az, el)])
        assert batch.shape == expected.shape
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)
    # a scalar elevation broadcasts against an array of azimuths
    assert steering_upa(az, 0.1, geo).shape == (7, 15)


def test_gain_cut_matches_beam_gain_in_both_planes():
    # Oracle: the power pattern |a(az, el)^H f|^2, one angle at a time.
    def beam_gain(az, el):
        return abs(np.vdot(steering_upa(az, el, GEO), f)) ** 2

    f = wide_beam([-0.2, 0.0, 0.2], 0.1, GEO)
    angles = np.linspace(-1.2, 1.2, 25)
    az_cut = gain_cut(f, GEO, "azimuth", 0.1, angles)
    el_cut = gain_cut(f, GEO, "elevation", 0.1, angles)
    np.testing.assert_allclose(az_cut, [beam_gain(a, 0.1) for a in angles],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(el_cut, [beam_gain(0.0, a) for a in angles],
                               rtol=1e-9, atol=1e-12)
    with pytest.raises(ValueError):
        gain_cut(f, GEO, "diagonal", 0.1, angles)


def test_steering_upa_broadside_and_kron():
    np.testing.assert_allclose(steering_upa(0.0, 0.0, GEO), np.ones(16))
    np.testing.assert_allclose(np.kron([1, -1], [1, 1]), [1, 1, -1, -1])


def test_steering_upa_elementwise_closed_form():
    # entry (m_x*N_y + m_y) = exp(j(m_x psi_x + m_y psi_y))
    rng = np.random.default_rng(5)
    for _ in range(10):
        az, el = rng.uniform(-1.2, 1.2, 2)
        v = steering_upa(az, el, GEO)
        psi_x = 2 * np.pi * 0.5 * np.cos(el) * np.sin(az)  # half-wavelength spacing
        psi_y = 2 * np.pi * 0.5 * np.sin(el)
        mx, my = np.divmod(np.arange(16), 2)
        expected = np.exp(1j * (mx * psi_x + my * psi_y))
        np.testing.assert_allclose(v, expected, atol=1e-12)


def random_unit_beam(rng, n=16):
    """A random complex unit-norm beam vector for the 8x2 TX array."""
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f / np.linalg.norm(f)


def test_wide_beam_single_reduces_to_steering_vector():
    f = wide_beam([0.3], 0.0, GEO)
    a = steering_upa(0.3, 0.0, GEO)
    np.testing.assert_allclose(f, a / np.linalg.norm(a), atol=1e-12)


def test_wide_beam_unit_norm_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = rng.integers(1, 5)
        az = rng.uniform(-0.5, 0.5, n)
        f = wide_beam(az, 0.0, GEO)
        assert np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 0


def test_wide_beam_argument_validation():
    with pytest.raises(ValueError):
        wide_beam([], 0.0, GEO)


@pytest.mark.parametrize("make, message", [
    (lambda: UpaGeometry(nx=0), "antenna counts must be >= 1"),
    (lambda: UpaGeometry(ny=-1), "antenna counts must be >= 1"),
    (lambda: design_wide_beam(0.4084, 0, GEO), "n_beams must be >= 1")],
    ids=["nx", "ny", "n_beams"])
def test_array_and_beam_counts_must_be_positive(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_rx_beam_consistency_identity():
    # The array receives on f_RX = conj(f): its factor f_RX^H a* sums the
    # same products f_i conj(a_i) as the TX factor a^H f, so the two-factor
    # product of the channel is the square of one factor, bit for bit.
    rng = np.random.default_rng(13)
    beams = [random_unit_beam(rng), wide_beam([-0.2, 0.0, 0.2], 0.0, GEO)]
    for f in beams:
        for az, el in rng.uniform(-1.0, 1.0, (50, 2)):
            a = steering_upa(az, el, GEO)
            rx_factor = np.vdot(np.conj(f), np.conj(a))
            tx_factor = np.vdot(a, f)
            assert rx_factor == tx_factor
            assert rx_factor * tx_factor == tx_factor * tx_factor


def azimuth_gain(f, azimuths):
    """The beam's power pattern along the azimuth cut at zero elevation."""
    return gain_cut(f, GEO, "azimuth", 0.0, np.asarray(azimuths, dtype=float))


def test_beam_gain_broadside_coherent_sum():
    f = wide_beam([0.0], 0.0, GEO)
    assert azimuth_gain(f, [0.0])[0] == pytest.approx(16.0, rel=1e-12)


def test_beam_gain_global_phase_invariant():
    f = wide_beam([0.1, -0.1, 0.0], 0.0, GEO)
    rotated = f * np.exp(1j * 0.7)
    azimuths = [-0.3, 0.0, 0.2]
    np.testing.assert_allclose(azimuth_gain(rotated, azimuths),
                               azimuth_gain(f, azimuths), rtol=1e-12)


def test_beam_gain_cauchy_schwarz_bound():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_unit_beam(rng)
        assert np.all(azimuth_gain(f, rng.uniform(-1.4, 1.4, 5)) <= 16.0 + 1e-9)
    # equality iff f is the normalized conjugate-matched steering vector
    matched = wide_beam([0.25], 0.0, GEO)
    assert azimuth_gain(matched, [0.25])[0] == pytest.approx(16.0, rel=1e-9)


def test_measure_beamwidth_ula8_against_array_factor_oracle():
    # Oracle: dense scan of the analytic 8-element array factor.
    grid = np.linspace(-0.3, 0.3, 200001)
    af = np.abs(np.exp(1j * np.pi * np.outer(np.sin(grid), np.arange(8))).sum(axis=1)) ** 2
    above = grid[af >= af.max() / 2]
    oracle = above[-1] - above[0]
    f = wide_beam([0.0], 0.0, GEO)
    measured = measure_beamwidth(f, GEO, "azimuth", 0.0)
    assert measured == pytest.approx(oracle, rel=0.01)
    assert oracle == pytest.approx(0.2217, rel=0.02)


def test_measure_beamwidth_elevation_two_element():
    f = wide_beam([0.0], 0.0, GEO)
    width = measure_beamwidth(f, GEO, "elevation", 0.0)
    assert width == pytest.approx(1.0399, rel=0.05)


def test_beamwidth_halves_when_elements_double():
    geo4 = UpaGeometry(nx=4, ny=2)
    w4 = measure_beamwidth(wide_beam([0.0], 0.0, geo4), geo4, "azimuth", 0.0)
    w8 = measure_beamwidth(wide_beam([0.0], 0.0, GEO), GEO, "azimuth", 0.0)
    assert w4 / w8 == pytest.approx(2.0, rel=0.08)


def scan_width_of(gains):
    """The scan width of a pattern whose power is exactly ``gains`` (perfect
    squares), one sample per scan step."""
    n = len(gains)
    return phasedarray._scan_width(np.sqrt(gains), np.arange(n) * phasedarray._SCAN_STEP,
                                   np.eye(n))


# A lobe that reaches an end of the scan has no crossing on that side; a peak
# at sample 0 must not wrap round to the far end.
@pytest.mark.parametrize("gains", [[1, 4, 9], [9, 4, 1], [1, 9, 8]],
                         ids=["peak-at-the-last-sample", "peak-at-sample-0",
                              "lobe-past-the-end"])
def test_scan_width_needs_a_half_power_crossing_on_both_sides(gains):
    with pytest.raises(BeamMeasurementError,
                       match="half-power level not crossed inside the scan"):
        scan_width_of(gains)


def test_scan_width_interpolates_linearly_where_the_parabola_is_a_line():
    # 1, 25 and 49 are evenly spaced, so the parabola through the samples
    # around either crossing has a2 == 0; each crossing of 24.5 lies 0.5/24
    # of a step outside sample 1 or 3, both at the scan's edge.
    assert scan_width_of([1, 25, 49, 25, 1]) == pytest.approx(
        (2 + 1 / 24) * phasedarray._SCAN_STEP, rel=1e-12)


def test_scan_width_refines_each_crossing_on_a_parabola():
    # Half power is 24.5.  Above the peak the crossing lies between samples 4
    # and 5, on the parabola through samples 3 to 5 (49, 36, 16); below it,
    # between samples 1 and 2, on the one through samples 0 to 2 (1, 16, 36).
    upper = 4 + (np.sqrt(16.5 ** 2 + 4 * 3.5 * 11.5) - 16.5) / 7
    lower = 1 + (np.sqrt(17.5 ** 2 + 4 * 2.5 * 8.5) - 17.5) / 5
    assert scan_width_of([1, 16, 36, 49, 36, 16, 1]) == pytest.approx(
        (upper - lower) * phasedarray._SCAN_STEP, rel=1e-12)


def test_measure_beamwidth_flat_pattern_raises():
    geo1 = UpaGeometry(nx=1, ny=1)
    f = wide_beam([0.0], 0.0, geo1)
    with pytest.raises(BeamMeasurementError):
        measure_beamwidth(f, geo1, "azimuth", 0.0)


def test_design_wide_beam_hits_target_width():
    f = design_wide_beam(0.4084, 3, GEO)
    width = measure_beamwidth(f, GEO, "azimuth", 0.0)
    assert width == pytest.approx(0.4084, rel=0.05)


def bisected_beam(target_width, n_beams, geometry, elevation_center):
    """Oracle for ``design_wide_beam``: the same bisection, measuring every
    candidate with ``measure_beamwidth``."""
    def beam(delta):
        return wide_beam(np.linspace(-delta, delta, n_beams), elevation_center,
                         geometry)

    def width(delta):
        return measure_beamwidth(beam(delta), geometry, "azimuth", elevation_center)

    lo, hi = 0.0, 0.05
    while width(hi) < target_width:
        hi *= 2.0
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if width(mid) < target_width else (lo, mid)
    return beam(0.5 * (lo + hi))


@pytest.mark.parametrize("target, n_beams, nx, elevation", [
    (0.4084, 3, 8, 0.0), (0.3, 2, 8, 0.1), (0.9, 4, 6, -0.2)])
def test_design_wide_beam_equals_measuring_every_step(target, n_beams, nx,
                                                      elevation):
    # The design's bisection keeps its steps and its beam with its shared scan.
    geo = UpaGeometry(nx=nx, ny=2)
    assert np.array_equal(design_wide_beam(target, n_beams, geo, elevation),
                          bisected_beam(target, n_beams, geo, elevation))


def record_scan_cuts(monkeypatch):
    """(geometry, plane, elevation, angles, a_conj) of every scan cut built."""
    built, conj_steering = [], phasedarray._conj_steering

    def recording(geometry, plane, elevation_center, angles):
        a_conj = conj_steering(geometry, plane, elevation_center, angles)
        built.append((geometry, plane, elevation_center, angles, a_conj))
        return a_conj

    monkeypatch.setattr(phasedarray, "_conj_steering", recording)
    return built


@pytest.mark.parametrize("plane", ["azimuth", "elevation"])
def test_measure_beamwidth_scans_its_own_read_only_gain_cut(monkeypatch, plane):
    f = wide_beam([-0.1, 0.0, 0.1], 0.1, GEO)
    built = record_scan_cuts(monkeypatch)
    measure_beamwidth(f, GEO, plane, 0.1)
    measure_beamwidth(f, GEO, plane, 0.1)
    assert len(built) == 2  # no cut outlives its measurement
    geometry, got_plane, elevation, angles, a_conj = built[0]
    assert (geometry, got_plane, elevation) == (GEO, plane, 0.1)
    assert not a_conj.flags.writeable
    assert np.array_equal(np.abs(a_conj @ f) ** 2,
                          gain_cut(f, GEO, plane, 0.1, angles))


@pytest.mark.parametrize("target, n_beams, elevation", [(0.4084, 3, 0.0),
                                                       (0.3, 2, 0.1)])
def test_a_design_builds_one_read_only_scan_cut(monkeypatch, target, n_beams,
                                                elevation):
    # Every width the bisection measures (19 for the default beam) reads one
    # azimuth cut.
    built = record_scan_cuts(monkeypatch)
    beam = design_wide_beam(target, n_beams, GEO, elevation)
    [(geometry, plane, got_elevation, angles, a_conj)] = built
    assert (geometry, plane, got_elevation) == (GEO, "azimuth", elevation)
    assert not a_conj.flags.writeable
    assert np.array_equal(np.abs(a_conj @ beam) ** 2,
                          gain_cut(beam, GEO, "azimuth", elevation, angles))


@pytest.mark.parametrize("width, n_beams, reach", [(0.1, 3, "at least 0.2234"),
                                                   (0.4084, 1, "only 0.2234")])
def test_design_wide_beam_rejects_a_width_below_reach(width, n_beams, reach):
    # With every component at broadside the beam is 0.2234 rad wide; the
    # design neither narrows it nor widens a single beam.
    with pytest.raises(BeamMeasurementError, match=f"they give {reach} rad"):
        design_wide_beam(width, n_beams, GEO)
