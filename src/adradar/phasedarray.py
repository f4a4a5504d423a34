"""Uniform planar array steering, wide-beam synthesis, and pattern measurement.

The source vehicle transmits and receives on one UPA.  A wide azimuth beam is
formed by an equally weighted sum of a few steering vectors on the x-axis,
Kronecker multiplied with the single y-axis (elevation) steering vector, then
normalized.  A beam is its unit-norm complex weight vector; the array receives
on its elementwise conjugate.  Elements sit half a wavelength apart on both
axes.  The steering functions take scalar angles or arrays of them (one
vector per angle, along a new last axis).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BeamMeasurementError

_SCAN_STEP = 1e-3       # rad, angle grid of measure_beamwidth's pattern cut
_BISECTION_TOL = 1e-5   # rad, design_wide_beam's final bracket on the beam spread


@dataclass(frozen=True)
class UpaGeometry:
    """Antenna counts of the half-wavelength-spaced UPA."""

    nx: int = 8
    ny: int = 2

    def __post_init__(self):
        if min(self.nx, self.ny) < 1:
            raise ValueError("antenna counts must be >= 1")


def steering_x(azimuth, elevation, n: int) -> np.ndarray:
    """x-axis steering vector: entry m = exp(j*m*psi_x), psi_x = pi*cos(el)*sin(az)."""
    psi = np.pi * np.cos(elevation) * np.sin(azimuth)
    return np.exp(1j * np.multiply.outer(psi, np.arange(n)))


def steering_y(elevation, n: int) -> np.ndarray:
    """y-axis steering vector: entry m = exp(j*m*psi_y), psi_y = pi*sin(el)."""
    psi = np.pi * np.sin(elevation)
    return np.exp(1j * np.multiply.outer(psi, np.arange(n)))


def steering_upa(azimuth, elevation, geometry: UpaGeometry) -> np.ndarray:
    """Full UPA steering vector, the Kronecker product of the axis vectors."""
    ax = steering_x(azimuth, elevation, geometry.nx)
    ay = steering_y(elevation, geometry.ny)
    return (ax[..., :, None] * ay[..., None, :]).reshape(ax.shape[:-1] + (-1,))


def wide_beam(azimuths, elevation: float, geometry: UpaGeometry) -> np.ndarray:
    """Combine equally weighted beams on the x-axis into one read-only
    unit-norm wide-beam vector.

    f_x = sum_i a_x(phi_i, elevation); f = (f_x kron f_y) / ||.||.  Entry 0
    of f_x kron f_y is the number of beams, so the norm is never zero.
    """
    if len(azimuths) == 0:
        raise ValueError("wide_beam needs at least one azimuth")
    fx = np.zeros(geometry.nx, dtype=complex)
    for phi in azimuths:
        fx += steering_x(phi, elevation, geometry.nx)
    f = np.kron(fx, steering_y(elevation, geometry.ny))
    f /= np.linalg.norm(f)
    f.flags.writeable = False
    return f


def gain_cut(f: np.ndarray, geometry: UpaGeometry, plane: str,
             elevation_center: float, angles: np.ndarray) -> np.ndarray:
    """Power pattern |a^H f|^2 at ``angles`` along the azimuth cut (elevation
    ``elevation_center``) or the elevation cut (azimuth zero)."""
    return np.abs(_conj_steering(geometry, plane, elevation_center, angles) @ f) ** 2


def _conj_steering(geometry, plane, elevation_center, angles) -> np.ndarray:
    """Conjugate steering vectors a^* along ``gain_cut``'s cut, one row per angle."""
    if plane == "azimuth":
        a = steering_upa(angles, elevation_center, geometry)
    elif plane == "elevation":
        a = steering_upa(0.0, angles, geometry)
    else:
        raise ValueError(f"plane must be 'azimuth' or 'elevation', got {plane!r}")
    return a.conj()


def _scan_cut(geometry, plane, elevation_center):
    """A cut's 1 mrad scan angles and their read-only ``_conj_steering``."""
    angles = np.arange(-np.pi / 2 + _SCAN_STEP, np.pi / 2, _SCAN_STEP)
    a_conj = _conj_steering(geometry, plane, elevation_center, angles)
    a_conj.flags.writeable = False
    return angles, a_conj


def measure_beamwidth(f: np.ndarray, geometry: UpaGeometry,
                      plane: str = "azimuth",
                      elevation_center: float = 0.0) -> float:
    """Half-power width of the mainlobe in one principal plane.

    Scans the pattern cut on a uniform 1 mrad grid, locates the
    peak, and searches outward for the contiguous -3 dB crossings; each crossing
    is refined with a local parabolic fit through the three nearest samples.

    Raises
    ------
    BeamMeasurementError
        If the pattern is flat (no mainlobe) or the half-power level is never
        crossed inside the scanned interval.
    """
    return _scan_width(f, *_scan_cut(geometry, plane, float(elevation_center)))


def _scan_width(f, angles, a_conj) -> float:
    """``measure_beamwidth`` of ``f`` on the scan ``angles, a_conj``."""
    gains = np.abs(a_conj @ f) ** 2
    peak = int(np.argmax(gains))
    half = gains[peak] / 2.0
    if gains[peak] <= 0 or np.all(gains >= half * 0.999999):
        raise BeamMeasurementError("pattern has no resolvable mainlobe")

    def crossing(step):
        side = gains[peak + 1:] if step > 0 else gains[:peak][::-1]  # outward
        below = np.flatnonzero(~(side >= half))  # a NaN sample ends the lobe too
        if not below.size:
            raise BeamMeasurementError("half-power level not crossed inside the scan")
        j = peak + step * (int(below[0]) + 1)
        i = j - step
        # The crossing lies between grid points k and k+1.
        k = min(max(i if step > 0 else j, 1), len(gains) - 2)
        y0, y1, y2 = gains[k - 1], gains[k], gains[k + 1]
        # Parabola through the three samples around the crossing:
        # g(k + x) = y1 + 0.5*(y2 - y0)*x + 0.5*(y0 - 2*y1 + y2)*x^2.
        a2 = 0.5 * (y0 - 2 * y1 + y2)
        a1 = 0.5 * (y2 - y0)
        a0 = y1 - half
        if a2 != 0:
            disc = a1 * a1 - 4 * a2 * a0
            if disc >= 0:
                roots = [(-a1 + s * np.sqrt(disc)) / (2 * a2) for s in (1, -1)]
                inside = [r for r in roots if 0.0 <= r <= 1.0]
                if inside:
                    return angles[k] + min(inside) * _SCAN_STEP
        # Fall back to linear interpolation between the straddling samples.
        gi, gj = gains[i], gains[j]
        frac = (gi - half) / (gi - gj)
        return angles[i] + step * frac * _SCAN_STEP

    return float(crossing(+1) - crossing(-1))


def design_wide_beam(target_width: float, n_beams: int, geometry: UpaGeometry,
                     elevation_center: float = 0.0) -> np.ndarray:
    """Pick component azimuths so the combined beam hits a 3 dB azimuth width.

    Uses ``n_beams`` equally weighted beams at azimuths symmetric about zero,
    {-delta, ..., 0, ..., +delta}; delta is found by bisection on the measured
    width.  Deterministic for a given geometry and target.  A target no wider
    than the delta = 0 beam, or any target for a single beam, is out of reach
    and raises BeamMeasurementError.
    """
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")

    def beam(delta):
        az = np.linspace(-delta, delta, n_beams) if n_beams > 1 else (0.0,)
        return wide_beam(az, elevation_center, geometry)

    # One scan cut serves every measured width and is freed with the design.
    scan = _scan_cut(geometry, "azimuth", float(elevation_center))

    def width(delta):
        return _scan_width(beam(delta), *scan)

    lo = 0.0
    w_lo = width(lo)
    if n_beams == 1 or w_lo >= target_width:
        reach = "only" if n_beams == 1 else "at least"
        raise BeamMeasurementError(
            f"cannot reach target width {target_width} rad with {n_beams} "
            f"beams: they give {reach} {w_lo:.4f} rad")
    hi = 0.05
    while width(hi) < target_width:
        hi *= 2.0
        if hi > np.pi / 2:
            raise BeamMeasurementError(
                f"cannot reach target width {target_width} rad with {n_beams} beams")
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if width(mid) < target_width:
            lo = mid
        else:
            hi = mid
    return beam(0.5 * (lo + hi))
