"""Delay-Doppler-map reference estimator.

Per frame, the echo is matched-filtered against the preamble correlation
segment; a slow-time DFT across the M frames of a CPI turns the per-frame
correlator outputs into a delay-Doppler map whose Doppler resolution is
1/CPI.  Velocities come from the bin centers of the strongest peaks, so the
velocity error is bounded by half a Doppler bin, independent of SNR.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DetectionShortfallError
from .scene import Scenario
from .sequences import CORR_SEGMENT_OFFSET, correlation_profile


@dataclass(frozen=True)
class DelayDopplerMap:
    """Slow-time DFT of per-frame correlator outputs.

    ``values[i, q]`` is the DFT over frames of R_m[lags[i]] at DFT index q;
    ``doppler_bins_hz[q]`` is the Doppler frequency that peaks in column q,
    spanning (-1/(2 T_f), +1/(2 T_f)] with spacing 1/(M T_f).
    """

    values: np.ndarray
    lags: np.ndarray
    doppler_bins_hz: np.ndarray
    doppler_bin_width_hz: float


def delay_doppler_map(frames, s_c: np.ndarray, frame_period: float,
                      lags=None) -> DelayDopplerMap:
    """Build the delay-Doppler map from all frames of a CPI.

    Entry (l, q) is sum_m R_m[l] exp(-j 2 pi q m / M): the slow-time DFT of
    the per-frame cross-correlations.  A target's correlator output rotates
    by exp(-j 2 pi nu T_f) per frame, so it concentrates in the bin whose
    ``doppler_bins_hz`` value is nearest nu.

    Parameters
    ----------
    frames : sequence of EchoFrame
        All M >= 2 frames, identically windowed.
    lags : array of int, optional
        Delay bins to evaluate; default is every lag computable from the
        first frame.
    """
    frames = sorted(frames, key=lambda f: f.m)
    m_count = len(frames)
    if m_count < 2:
        raise ValueError("delay-Doppler map needs at least two frames")

    n_c = len(s_c)
    first_lag = frames[0].k_start - CORR_SEGMENT_OFFSET
    n_lags_full = len(frames[0].samples) - n_c + 1
    if lags is None:
        lags = first_lag + np.arange(n_lags_full)
    lags = np.asarray(lags, dtype=np.int64)

    slow_time = np.empty((len(lags), m_count), dtype=complex)
    lag_lo, lag_hi = int(lags.min()), int(lags.max())
    for col, frame in enumerate(frames):
        offset = frame.k_start - CORR_SEGMENT_OFFSET
        first, last = lag_lo - offset, lag_hi - offset
        if first < 0 or last + n_c > len(frame.samples):
            raise ValueError("requested lags outside the computable range")
        # Correlate only over the samples the requested lags touch.
        profile = correlation_profile(s_c, frame.samples[first:last + n_c])
        slow_time[:, col] = profile[lags - lag_lo]

    values = np.fft.fft(slow_time, axis=1)
    # The correlator conjugates the echo, so a Doppler nu appears at -nu on
    # the DFT frequency axis; negate to read bins directly in echo Doppler.
    doppler_bins = -np.fft.fftfreq(m_count, d=frame_period)
    return DelayDopplerMap(values=values, lags=lags, doppler_bins_hz=doppler_bins,
                           doppler_bin_width_hz=1.0 / (m_count * frame_period))


def baseline_velocities(ddm: DelayDopplerMap, v_source: float, wavelength: float,
                        expected_targets: int, threshold: float,
                        guard: int = Scenario.guard) -> np.ndarray:
    """Velocities of the strongest map peaks, associated by delay order.

    Picks ``expected_targets`` peaks greedily by magnitude; after accepting a
    peak, every bin within ``guard`` delay lags is suppressed (a target
    occupies one delay stripe, Doppler leakage included).  Each accepted
    peak's Doppler bin center maps to a velocity, and the result is ordered
    by increasing delay.

    Raises
    ------
    DetectionShortfallError
        If fewer than ``expected_targets`` peaks exceed ``threshold``.
    """
    mag = np.abs(ddm.values)
    available = np.ones(len(ddm.lags), dtype=bool)
    picks = []
    while len(picks) < expected_targets:
        masked = np.where(available[:, None], mag, -1.0)
        i, q = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if masked[i, q] <= threshold:
            raise DetectionShortfallError(
                f"only {len(picks)} of {expected_targets} map peaks above "
                f"threshold {threshold:.3e}")
        picks.append((int(ddm.lags[i]), int(q)))
        lag = ddm.lags[i]
        available[np.abs(ddm.lags - lag) <= guard] = False
    picks.sort()
    nu = np.array([ddm.doppler_bins_hz[q] for _, q in picks])
    return v_source - nu * wavelength / 2.0
