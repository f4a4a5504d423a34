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


def map_window(frame0: EchoFrame, profile0: np.ndarray) -> EchoFrame:
    """Frame 0 cut to the map lags: within ``BASELINE_LAG_HALFWIDTH`` of the
    dominant peak of its correlation profile ``profile0``, clipped to the frame
    (targets are assumed close together, as in the proposed delay stage)."""
    first = frame0.first_lag
    dominant = first + int(np.argmax(np.abs(profile0)))
    return frame0.cut_to_lags(max(dominant - BASELINE_LAG_HALFWIDTH, first),
                              min(dominant + BASELINE_LAG_HALFWIDTH,
                                  first + len(profile0) - 1))


def delay_doppler_map(frames, frame_period: float) -> DelayDopplerMap:
    """Build the delay-Doppler map from all frames of a CPI.

    Entry (l, q) is sum_m R_m[l] exp(-j 2 pi q m / M): the slow-time DFT of
    the per-frame cross-correlations with the 802.11ad correlation segment.
    A target's correlator output rotates by exp(-j 2 pi nu T_f) per frame, so
    it concentrates in the bin whose ``doppler_bins_hz`` value is nearest nu.

    Parameters
    ----------
    frames : iterable of EchoFrame
        All M >= 2 frames in frame order 0 to M-1, each item one frame or a
        block of consecutive frames (``EchoFrame`` rows), every item on the
        first item's window: the same ``k_start`` and width, as
        ``map_window``'s cut and frames cut to its lags have.  The map lags
        are every lag that window computes.  Items are read one at a time
        and only their correlator outputs are kept, so a generator need hold
        only one item.  An item's rows of W samples go through one
        correlator call laid end to end: output r W + i of that call reads
        only row r's samples i to i + 511, so it is row r's own output i,
        and the outputs that straddle two rows are dropped.

    Raises
    ------
    ValueError
        If a frame arrives out of order or off the first item's window,
        fewer than two frames arrive, or the window is shorter than the
        correlation segment.
    """
    s_c = correlation_segment(build_preamble())
    columns, m_count = [], 0
    for frame in frames:
        if frame.m != m_count:
            raise ValueError(f"frame {frame.m} out of order: expected frame "
                             f"{m_count} (frames 0 to M-1 in order)")
        window = (frame.k_start, frame.samples.shape[-1])
        if not columns:
            k_start, width = window
            rows = np.arange(width - len(s_c) + 1)
            lags = frame.first_lag + rows
            if rows.size == 0:
                raise ValueError("empty lag range: the map has no lags to evaluate")
        elif window != (k_start, width):
            raise ValueError(f"frame {frame.m} is off the map window: k_start and "
                             f"width {window}, not {(k_start, width)}")
        row_starts = width * np.arange(frame.samples.size // width)
        profile = correlation_profile(s_c, frame.samples.reshape(-1))
        columns.append(profile[rows[:, None] + row_starts])
        m_count += len(row_starts)
    if m_count < 2:
        raise ValueError("delay-Doppler map needs at least two frames")
    # The correlator conjugates the echo, so a Doppler nu appears at -nu on
    # the DFT frequency axis; negate to read bins directly in echo Doppler.
    doppler_bins = -np.fft.fftfreq(m_count, d=frame_period)
    slow_time = np.concatenate(columns, axis=1)
    slow_time.flags.writeable = False
    return DelayDopplerMap(slow_time=slow_time, lags=lags, doppler_bins_hz=doppler_bins,
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
