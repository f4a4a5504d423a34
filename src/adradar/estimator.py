"""Multi-target delay, Doppler, and velocity estimation from preamble echoes.

The pipeline runs in two stages.  Delay: cross-correlate each frame against
the 512-sample preamble segment, take the dominant peak, then collect further
local maxima above threshold near it.  Doppler: recover the per-target
channel coefficients of frame 0 (where the Doppler phase is nearly flat) and
of a late frame m_d by least squares; the phase of their ratio, scaled by the
accumulated sample count, gives a raw Doppler that is ambiguous modulo full
phase turns.  A second frame m_i with a slightly different scale factor
resolves the integer number of turns, and the refined Doppler maps to a
velocity through the two-way Doppler relation.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .echo import EchoFrame
from .errors import (DetectionShortfallError, LseWindowError, NoTargetError,
                     SingularDesignError, ZeroCoefficientError)
from .params import WaveformParams
from .scene import Scenario
from .sequences import (CORR_SEGMENT_LEN, PREAMBLE_LEN, build_preamble,
                        correlation_profile, correlation_segment)

_COND_LIMIT = 1e12
# Entries of lse_coefficients' design cache.  One entry, S^T (P x rows, complex128) and its
# Gram matrix, is 162 KB for three targets in the default 3374-row window; 2.6 MB in all.
_DESIGN_CACHE_SIZE = 16


@dataclass(frozen=True)
class DelayEstimate:
    """Detected delays of one frame, sorted ascending."""

    delays: np.ndarray            # integer lags
    correlation_peak: np.ndarray  # |R| at each retained delay


@dataclass(frozen=True)
class DopplerEstimate:
    """Per-target Doppler chain: LSE coefficients, raw, wraps, refined."""

    h_hat: np.ndarray           # frame-0 coefficients
    h_hat_md: np.ndarray        # frame-m_d coefficients
    h_hat_mi: np.ndarray        # frame-m_i coefficients
    nu_raw: np.ndarray          # Hz, wrapped estimate at m_d
    wrap_count: np.ndarray      # integer turns
    nu_refined: np.ndarray      # Hz
    d_md: float                 # Hz per radian at m_d
    d_mi: float                 # Hz per radian at m_i


@dataclass(frozen=True)
class VelocityEstimate:
    """Final per-target velocities with the full estimation trace."""

    velocities: np.ndarray
    doppler: DopplerEstimate
    delays: dict                # frame index -> DelayEstimate


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one pipeline run over a CPI."""

    m_d: int
    m_i: int
    threshold: float
    expected_targets: int
    search_halfwidth: int = Scenario.search_halfwidth
    guard: int = Scenario.guard


def detection_threshold(noise_clutter_var: float) -> float:
    """Per-frame detection threshold 512 * sigma_cn: the Cauchy-Schwarz bound
    on the correlator's noise term, |z^H s_c| <= ||z|| ||s_c||."""
    return CORR_SEGMENT_LEN * np.sqrt(noise_clutter_var)


def pick_peaks(score, lags, count: int, threshold: float, guard: int) -> list:
    """Indices of up to ``count`` peaks of ``score``, in pick order: take the
    largest remaining score above ``threshold`` (the first on ties), suppress
    every entry whose lag is within ``guard`` of its lag, repeat.  A negative
    ``guard``, which would not even suppress the pick itself, is a ValueError."""
    if guard < 0:
        raise ValueError(f"guard must be >= 0, got {guard}")
    score = np.asarray(score, dtype=float)
    idx = (score > threshold).nonzero()[0]  # nothing else can be picked
    remaining, cand_lags = score[idx], np.asarray(lags)[idx]
    picks = []
    while len(picks) < count and idx.size:
        j = int(remaining.argmax())
        if remaining[j] == -np.inf:
            break
        picks.append(int(idx[j]))
        remaining[abs(cand_lags - cand_lags[j]) <= guard] = -np.inf
    return picks


def estimate_delays(frame: EchoFrame, threshold: float, expected_targets: int,
                    search_halfwidth: int = Scenario.search_halfwidth,
                    guard: int = Scenario.guard) -> DelayEstimate:
    """Correlation-based multi-target delay estimation on one frame.

    The correlation at lag l is R[l] = sum_k s_c[k] conj(y[m, l + k + 2048]), with
    s_c the 802.11ad correlation segment, so a target at delay l_p peaks at l = l_p.
    The dominant delay is the global argmax of |R|; further targets are interior
    local maxima (at least both neighbours) above ``threshold`` within
    ``search_halfwidth`` lags of the dominant, picked by ``pick_peaks`` with ``guard``
    lags suppressed on both sides of every accepted peak.  Exactly
    ``expected_targets`` peaks are required (perfect-detection assumption).

    Raises
    ------
    NoTargetError
        If no lag exceeds the threshold.
    DetectionShortfallError
        If fewer than ``expected_targets`` peaks are found.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    mag = np.abs(correlation_profile(correlation_segment(build_preamble()),
                                     frame.samples))
    dom = int(mag.argmax())
    if mag[dom] <= threshold:
        raise NoTargetError(
            f"no correlation peak above threshold {threshold:.3e} "
            f"(max {mag[dom]:.3e}) in frame {frame.m}")

    # One mask finds the other candidates; pick_peaks takes the dominant first.
    lo = max(dom - search_halfwidth, 1)
    hi = min(dom + search_halfwidth, len(mag) - 2)
    window = mag[lo - 1:hi + 2]
    peak = window[1:-1]
    local = (peak > threshold) & (peak >= window[:-2]) & (peak >= window[2:])
    if lo <= dom <= hi:
        local[dom - lo] = False
    cand = np.concatenate(([dom], lo + local.nonzero()[0]))
    accepted = sorted(cand[pick_peaks(mag[cand], cand, expected_targets,
                                      threshold, guard)].tolist())
    if len(accepted) != expected_targets:
        raise DetectionShortfallError(
            f"frame {frame.m}: detected {len(accepted)} of "
            f"{expected_targets} targets above threshold {threshold:.3e}")
    return DelayEstimate(delays=frame.first_lag + np.array(accepted),
                         correlation_peak=mag[accepted])


def build_shift_matrix(delays, rows: int) -> np.ndarray:
    """Design matrix whose column p is the 802.11ad preamble shifted to delay l_p.

    Row x corresponds to sample index k = l_0 + x; entry (x, p) equals
    s[l_0 + x - l_p] when that index lies in [0, K_pre) and zero otherwise.

    Raises
    ------
    SingularDesignError
        On duplicate delays (identical columns).
    """
    delays = np.asarray(delays, dtype=np.int64)
    if len(set(delays.tolist())) != len(delays):
        raise SingularDesignError(f"duplicate delays {delays}")
    if np.any(np.diff(delays) < 0):
        raise ValueError("delays must be sorted ascending")
    preamble = build_preamble()
    s = np.zeros((rows, len(delays)))
    for p, lo in enumerate(delays - delays[0]):  # sorted, so lo >= 0
        s[lo:lo + PREAMBLE_LEN, p] = preamble[:max(rows - lo, 0)]
    return s


def lse_coefficients(frame: EchoFrame, delays, tx_power: float) -> np.ndarray:
    """Least-squares channel coefficients of one frame at its estimated
    ``delays`` (sorted): (S^T S)^{-1} S^T y / sqrt(P_TX), over the window
    from the first delay through the last delay's preamble tail.  S and
    S^T S come from a 16-entry cache keyed on the delay offsets and rows.

    Raises
    ------
    LseWindowError
        If the window reaches outside the frame's samples.
    SingularDesignError
        If the normal equations are ill-conditioned (cond >= 1e12); the
        message names the most correlated delay pair.
    """
    offsets = np.subtract(delays, delays[0]).tolist()
    rows = PREAMBLE_LEN + offsets[-1]
    start = int(delays[0]) - frame.k_start
    if start < 0 or start + rows > len(frame.samples):
        raise LseWindowError(
            f"frame {frame.m}: LSE window [{int(delays[0])}, "
            f"{int(delays[0]) + rows}) outside the frame's samples "
            f"[{frame.k_start}, {frame.k_start + len(frame.samples)})")
    st, gram = _shift_design(tuple(offsets), rows)
    return np.linalg.solve(gram, st @ frame.samples[start:start + rows]) / np.sqrt(tx_power)


def _checked_gram(shift_matrix: np.ndarray) -> np.ndarray:
    """S^T S, or SingularDesignError when its condition number is >= 1e12."""
    gram = shift_matrix.T @ shift_matrix  # S is real
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        norms = np.sqrt(np.diag(gram))
        corr = np.abs(gram) / np.outer(norms, norms)
        np.fill_diagonal(corr, 0.0)
        i, j = np.unravel_index(np.argmax(corr), corr.shape)
        raise SingularDesignError(
            f"shift matrix ill-conditioned (cond {cond:.2e}); "
            f"columns {i} and {j} nearly collinear")
    return gram


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _shift_design(offsets: tuple, rows: int):
    """Read-only S^T, C-contiguous complex128, and the checked Gram matrix
    of the 802.11ad preamble for delays ``offsets`` relative to the first one.

    The design depends on the delays only through these offsets, so frames
    and trials whose targets keep their spacing share one entry.  A design
    that fails a check raises and is not cached, so it raises again on the
    next call.
    """
    s = build_shift_matrix(offsets, rows)
    gram, st = _checked_gram(s), np.ascontiguousarray(s.T, dtype=np.complex128)
    st.flags.writeable = False
    gram.flags.writeable = False
    return st, gram


def denominator_inverse(l_0: int, m: int, frame_len: int,
                        sample_period: float) -> float:
    """Scale factor D_m turning the frame-m ratio phase into a Doppler (Hz/rad).

    D_m = 1 / (2 pi ((2 l_0 + K_pre - 1)/2 + m K) T_s); the inner term is the
    mid-preamble absolute sample index at which the frame-m phase is read.
    """
    if m < 0:
        raise ValueError("frame index must be nonnegative")
    k_mid = (2 * l_0 + PREAMBLE_LEN - 1) / 2.0
    return 1.0 / (2.0 * np.pi * (k_mid + m * frame_len) * sample_period)


def raw_doppler(h_md, h, d_md: float):
    """Wrapped Doppler estimates (scalar or array): angle(h_md / h) * D_md,
    angle in [-pi, pi]; angle(h_md conj(h)) where h_md / h over- or underflows."""
    if (np.asarray(h) == 0).any():
        raise ZeroCoefficientError("frame-0 coefficient is zero")
    with np.errstate(over="ignore"):
        ratio = h_md / h
        lost = ~np.isfinite(ratio) | (np.abs(ratio) < np.finfo(float).tiny) & (h_md != 0)
        ratio = np.where(lost, h_md * np.conj(h), ratio)
    return np.arctan2(ratio.imag, ratio.real) * d_md  # np.angle, without its wrapper


def wrap_count(nu_md, nu_mi, d_md: float, d_mi: float):
    """Integer number of full phase turns shared by frames m_d and m_i
    (scalar or array, as int64).

    Uses the magnitude difference of the two wrapped estimates,
    c = |nu_md| - |nu_mi|, scaled by the difference of the frame scale
    factors; the sign of nu_md, which is the sign of the observed wrapped
    phase at m_d since D_md > 0, selects the branch.  Valid when both frames
    wrap the same number of times with residual phases of equal sign.
    """
    if not 0 < d_md < d_mi:
        raise ValueError("need 0 < d_md < d_mi (i.e. m_i < m_d)")
    c_hat = np.abs(nu_md) - np.abs(nu_mi)
    scale = 2.0 * np.pi * (d_mi - d_md)
    value = np.where(nu_md >= 0, c_hat / scale, -c_hat / scale)
    return np.rint(value).astype(np.int64)


def refine_doppler(nu_md, n_wraps, d_md: float):
    """Unwrapped Doppler (scalar or array): nu_md + 2 pi N D_md."""
    return nu_md + 2.0 * np.pi * n_wraps * d_md


def velocity_from_doppler(nu_hz, v_source: float, wavelength: float):
    """Two-way Doppler (scalar or array) to absolute target velocity:
    V = V_s - nu * lambda / 2."""
    return v_source - nu_hz * wavelength / 2.0


def run_pipeline(frames, wf: WaveformParams, v_source: float, tx_power: float,
                 cfg: PipelineConfig) -> VelocityEstimate:
    """Full velocity estimation over one CPI.

    Parameters
    ----------
    frames : dict of frame index to EchoFrame
        Must contain frames 0, cfg.m_i, and cfg.m_d.

    Notes
    -----
    Targets are associated across frames by delay rank order; every frame
    yields exactly ``cfg.expected_targets`` delays (perfect-detection
    assumption, enforced by ``estimate_delays``).  The frame-m_d scale factor
    uses that frame's own first delay.
    """
    if not 0 <= cfg.m_i < cfg.m_d:
        raise ValueError(f"need 0 <= m_i < m_d, got m_i={cfg.m_i} m_d={cfg.m_d}")

    needed = (0, cfg.m_i, cfg.m_d)
    missing = [m for m in needed if m not in frames]
    if missing:
        raise ValueError(f"pipeline needs frames {needed}, missing {missing}")

    delay_est = {m: estimate_delays(frames[m], cfg.threshold, cfg.expected_targets,
                                    cfg.search_halfwidth, cfg.guard) for m in needed}
    h, h_mi, h_md = (lse_coefficients(frames[m], delay_est[m].delays, tx_power)
                     for m in needed)

    d_md, d_mi = (denominator_inverse(int(delay_est[m].delays[0]), m, wf.frame_len,
                                      wf.sample_period) for m in (cfg.m_d, cfg.m_i))
    nu_raw = raw_doppler(h_md, h, d_md)
    nu_mi = raw_doppler(h_mi, h, d_mi)
    wraps = wrap_count(nu_raw, nu_mi, d_md, d_mi)
    nu_refined = refine_doppler(nu_raw, wraps, d_md)

    doppler = DopplerEstimate(h_hat=h, h_hat_md=h_md, h_hat_mi=h_mi,
                              nu_raw=nu_raw, wrap_count=wraps,
                              nu_refined=nu_refined, d_md=d_md, d_mi=d_mi)
    return VelocityEstimate(
        velocities=velocity_from_doppler(nu_refined, v_source, wf.wavelength),
        doppler=doppler, delays=delay_est)
