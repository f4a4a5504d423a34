"""Delay-Doppler-map reference estimator.

Per frame, the echo is matched-filtered against the preamble correlation
segment; a slow-time DFT across the M frames of a CPI turns the per-frame
correlator outputs into a delay-Doppler map whose Doppler resolution is
1/CPI.  Velocities come from the bin centers of the strongest peaks, so the
velocity error is bounded by half a Doppler bin, independent of SNR.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .echo import EchoFrame
from .errors import DetectionShortfallError
from .estimator import pick_peaks, velocity_from_doppler
from .scene import Scenario
from .sequences import build_preamble, correlation_profile, correlation_segment

# Half-width, in lags, of the map window around frame 0's dominant peak.
BASELINE_LAG_HALFWIDTH = 128
# Map threshold factor on top of the M-frame coherent gain: worst-case
# off-grid scalloping of the slow-time DFT peak.
_MAP_SCALLOP_MARGIN = 0.5


@dataclass(frozen=True)
class DelayDopplerMap:
    """Slow-time DFT of per-frame correlator outputs.

    ``slow_time[i, m]`` is R_m[lags[i]] and ``values`` (computed on first read)
    its DFT over frames; ``doppler_bins_hz[q]`` is the Doppler frequency that
    peaks in column q, spanning (-1/(2 T_f), +1/(2 T_f)] with spacing 1/(M T_f).
    """

    slow_time: np.ndarray
    lags: np.ndarray
    doppler_bins_hz: np.ndarray
    doppler_bin_width_hz: float

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = np.fft.fft(self.slow_time, axis=1)
        values.flags.writeable = False
        return values


def map_window(frame0: EchoFrame, profile0: np.ndarray):
    """``(window, (frame0.m, column0))``: frame 0 cut to the lags within
    ``BASELINE_LAG_HALFWIDTH`` of the dominant peak of its correlation profile
    ``profile0``, clipped to the frame (targets are assumed close together, as in
    the proposed delay stage), and its map column there, sliced from ``profile0``.
    Each correlator output reads only its own 512 samples, so the slice is
    ``map_columns(window, window)``'s column bit for bit."""
    first = frame0.first_lag
    dominant = first + int(np.argmax(np.abs(profile0)))
    lo = max(dominant - BASELINE_LAG_HALFWIDTH, first)
    hi = min(dominant + BASELINE_LAG_HALFWIDTH, first + len(profile0) - 1)
    return frame0.cut_to_lags(lo, hi), (frame0.m, profile0[lo - first:hi - first + 1, None])


def map_columns(frame: EchoFrame, window: EchoFrame):
    """``(frame.m, columns)``: the (lags, rows) map columns of one frame or a
    block of consecutive frames (``EchoFrame`` rows) on the map ``window``.
    The rows of W samples go through one correlator call laid end to end:
    output r W + i reads only row r's samples i to i + 511, so it is row r's
    own output i, and the outputs that straddle two rows are dropped.
    ValueError if ``frame`` is off the window (another ``k_start`` or width),
    or the window is shorter than the correlation segment."""
    got = (frame.k_start, frame.samples.shape[-1])
    want = (window.k_start, window.samples.shape[-1])
    if got != want:
        raise ValueError(f"frame {frame.m} is off the map window: k_start and "
                         f"width {got}, not {want}")
    s_c, width = correlation_segment(build_preamble()), want[1]
    rows = np.arange(width - len(s_c) + 1)
    if rows.size == 0:
        raise ValueError("empty lag range: the map has no lags to evaluate")
    profile = correlation_profile(s_c, frame.samples.reshape(-1))
    return frame.m, profile[rows[:, None] + width * np.arange(frame.samples.size // width)]


def delay_doppler_map(columns, window: EchoFrame, frame_period: float) -> DelayDopplerMap:
    """Stack the map columns of all frames of a CPI into the delay-Doppler map.

    Entry (l, q) is sum_m R_m[l] exp(-j 2 pi q m / M): the slow-time DFT of
    the per-frame cross-correlations with the 802.11ad correlation segment.
    A target's correlator output rotates by exp(-j 2 pi nu T_f) per frame, so
    it concentrates in the bin whose ``doppler_bins_hz`` value is nearest nu.

    ``columns`` yields the ``(m, columns)`` items of ``map_window`` and
    ``map_columns`` on ``window``, whose lags are the map's, for frames 0 to
    M-1 in order, M >= 2; a generator need hold only one item.  ValueError if
    a frame arrives out of order or fewer than two frames arrive.
    """
    stacked, m_count = [], 0
    for m, cols in columns:
        if m != m_count:
            raise ValueError(f"frame {m} out of order: expected frame "
                             f"{m_count} (frames 0 to M-1 in order)")
        stacked.append(cols)
        m_count += cols.shape[1]
    if m_count < 2:
        raise ValueError("delay-Doppler map needs at least two frames")
    # The correlator conjugates the echo, so a Doppler nu appears at -nu on
    # the DFT frequency axis; negate to read bins directly in echo Doppler.
    doppler_bins = -np.fft.fftfreq(m_count, d=frame_period)
    slow_time = np.concatenate(stacked, axis=1)
    slow_time.flags.writeable = False
    return DelayDopplerMap(slow_time=slow_time,
                           lags=window.first_lag + np.arange(len(slow_time)),
                           doppler_bins_hz=doppler_bins,
                           doppler_bin_width_hz=1.0 / (m_count * frame_period))


def baseline_velocities(ddm: DelayDopplerMap, v_source: float, wavelength: float,
                        expected_targets: int, threshold: float,
                        guard: int = Scenario.guard) -> np.ndarray:
    """Velocities of the strongest map peaks, associated by delay order.

    ``threshold`` is the per-frame detection threshold; the map's is
    ``threshold * M * 0.5``.  ``pick_peaks`` takes delay rows by their peak
    magnitude, suppressing rows within ``guard`` lags of an accepted one (a
    target occupies one delay stripe, Doppler leakage included).  Each row's
    strongest Doppler bin center maps to a velocity, ordered by delay.  Only
    rows whose bound sum_m |R_m[l]| >= max_q |DFT| passes the threshold (less
    a margin far above the rounding of either side) are transformed.

    Raises
    ------
    DetectionShortfallError
        If fewer than ``expected_targets`` peaks exceed the map threshold.
    """
    map_threshold = threshold * ddm.slow_time.shape[1] * _MAP_SCALLOP_MARGIN
    live = np.flatnonzero(np.abs(ddm.slow_time).sum(axis=1) > map_threshold * (1 - 1e-9))
    mag, lags = np.abs(np.fft.fft(ddm.slow_time[live], axis=1)), ddm.lags[live]
    rows = pick_peaks(mag.max(axis=1), lags, expected_targets, map_threshold, guard)
    if len(rows) < expected_targets:
        raise DetectionShortfallError(
            f"only {len(rows)} of {expected_targets} map peaks above "
            f"threshold {map_threshold:.3e}")
    rows.sort(key=lambda i: lags[i])
    nu = ddm.doppler_bins_hz[np.argmax(mag[rows], axis=1)]
    return velocity_from_doppler(nu, v_source, wavelength)
