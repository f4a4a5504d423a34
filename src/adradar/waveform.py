"""Root-raised-cosine pulse shaping used to justify the symbol-rate echo model.

The main simulation runs at one sample per symbol: the cascade of TX shaping
and RX matched filtering is Nyquist, so sampling at symbol instants reduces
the continuous echo to the discrete model the estimators consume.  This
module builds the RRC taps and quantifies how close the truncated cascade is
to a true Nyquist pulse.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RrcFilter:
    rolloff: float
    span: int                 # symbols covered by the impulse response
    samples_per_symbol: int
    taps: np.ndarray          # unit energy, symmetric


def rrc_taps(rolloff: float, span: int, samples_per_symbol: int) -> RrcFilter:
    """Root-raised-cosine impulse response, unit energy and symmetric.

    Parameters
    ----------
    rolloff : float
        Excess-bandwidth factor in [0, 1].
    span : int
        Even number of symbol periods covered.
    samples_per_symbol : int
        Oversampling factor, at least 2.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    if span < 2 or span % 2 != 0:
        raise ValueError(f"span must be an even integer >= 2, got {span}")
    if samples_per_symbol < 2:
        raise ValueError(f"samples_per_symbol must be >= 2, got {samples_per_symbol}")

    sps = samples_per_symbol
    t = np.arange(span * sps + 1) / sps - span / 2  # in symbol periods
    beta = rolloff
    with np.errstate(divide="ignore", invalid="ignore"):
        taps = ((np.sin(np.pi * t * (1.0 - beta))
                 + 4.0 * beta * t * np.cos(np.pi * t * (1.0 + beta)))
                / (np.pi * t * (1.0 - (4.0 * beta * t) ** 2)))
    # The removable singularities at t = 0 and |t| = 1/(4 beta) take their limits.
    if beta > 0:
        edge = np.abs(np.abs(t) - 1.0 / (4.0 * beta)) < 1e-9
        taps[edge] = (beta / np.sqrt(2.0)) * (
            (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
            + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta)))
    taps[np.abs(t) < 1e-12] = 1.0 - beta + 4.0 * beta / np.pi
    taps = taps / np.linalg.norm(taps)
    return RrcFilter(rolloff=rolloff, span=span, samples_per_symbol=sps, taps=taps)


def nyquist_residual(f: RrcFilter) -> float:
    """Worst ISI of the cascaded TX/RX filter at nonzero symbol instants.

    Convolves the taps with themselves, samples the result every symbol
    period away from the peak, and returns the largest magnitude normalized
    by the peak.  Zero for an ideal (infinite-span) raised cosine.
    """
    cascade = np.convolve(f.taps, f.taps)
    center = len(cascade) // 2
    sps = f.samples_per_symbol
    peak = cascade[center]
    offsets = np.arange(1, f.span + 1) * sps
    samples = np.concatenate([cascade[center - offsets], cascade[center + offsets]])
    return float(np.max(np.abs(samples)) / abs(peak))
