"""Discrete-time echo synthesis over the preamble-bearing window of a frame.

Each frame-m echo sample is

    y[m, k] = sum_p sqrt(P_TX) h_p exp(j 2 pi nu_p (k + m K) T_s) s[k - l_p] + z[m, k]

with s the preamble on [0, K_pre) and zero elsewhere, and z i.i.d. complex
Gaussian clutter-plus-noise.  The Doppler phase references the absolute sample
index k + m K; the whole unwrapping chain depends on that accumulated phase.

``synthesize_window`` builds frames over any sample window.  A whole frame
runs from the first target's delay through the last target's preamble tail,
so the least-squares shift matrices have complete rows for every target.
It and ``synthesize_frame`` build noiseless frames; ``with_noise`` alone adds
noise, so a stored noiseless frame serves every trial's own draw.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .scene import FrameTruth, Scene
from .sequences import CORR_SEGMENT_LEN, CORR_SEGMENT_OFFSET, PREAMBLE_LEN


@dataclass(frozen=True)
class EchoFrame:
    """Complex baseband samples of frame ``m``, covering k in [k_start, k_start+n).

    ``samples`` is one frame, shape (n,), or a block of consecutive frames on
    a common window, shape (rows, n), whose row r is frame ``m + r``.  Every
    operation acts on the last axis, so a single frame is the one-row case.
    """

    m: int
    k_start: int
    samples: np.ndarray

    @property
    def first_lag(self) -> int:
        """Delay lag of index 0 of this frame's correlation profile."""
        return self.k_start - CORR_SEGMENT_OFFSET

    def cut_to_lags(self, lag_lo: int, lag_hi: int) -> "EchoFrame":
        """This frame over only the samples its correlation lags ``lag_lo`` to
        ``lag_hi`` read, with ``k_start`` moved to match; the samples are a view.

        Raises
        ------
        ValueError
            If ``lag_hi < lag_lo``, or a lag is outside this frame's
            computable range.
        """
        if lag_hi < lag_lo:
            raise ValueError(f"empty lag range: lag_hi {lag_hi} < lag_lo {lag_lo}")
        first = int(lag_lo) - self.first_lag
        stop = int(lag_hi) - self.first_lag + CORR_SEGMENT_LEN
        if first < 0 or stop > self.samples.shape[-1]:
            raise ValueError("requested lags outside the computable range")
        return EchoFrame(m=self.m, k_start=self.k_start + first,
                         samples=self.samples[..., first:stop])


def synthesize_window(scene: Scene, truths, k_start: int, n: int) -> EchoFrame:
    """Noiseless echo of consecutive frames of one scene over samples
    [k_start, k_start + n): an ``EchoFrame`` block whose row r is, bit for bit,
    frame ``truths[r].frame`` synthesized whole there, and 0 past its echo.
    Rows whose delays agree take each target's copy in one broadcast product.
    """
    amp, ts, big_k = np.sqrt(scene.tx_power), scene.wf.sample_period, scene.wf.frame_len
    first = truths[0]
    samples = np.zeros((len(truths), n), dtype=complex)
    for delays, run in itertools.groupby(truths, lambda t: t.delay_samples.tolist()):
        run = list(run)
        rows = samples[run[0].frame - first.frame:run[-1].frame - first.frame + 1]
        for h, nu, ell, pre in zip(first.backscatter, first.doppler_hz, delays,
                                   scene.rotated_preamble):
            lo, hi = max(ell, k_start), min(ell + PREAMBLE_LEN, k_start + n)
            if lo >= hi:
                continue
            # Phase at sample k = ell + i splits into a per-frame scalar at
            # the echo's first sample and the CPI-constant rotation over i.
            phases = [2.0 * np.pi * nu * (ell + t.frame * big_k) * ts for t in run]
            coef = np.array([amp * h * np.exp(1j * phase) for phase in phases])
            # numpy multiplies a (1, 1) product in its scalar loop, which
            # rounds apart from a whole frame's vector loop; one row stays 1-D.
            coef = coef[:, None] if len(run) > 1 else coef
            rows[:, lo - k_start:hi - k_start] += coef * pre[lo - ell:hi - ell]
    return EchoFrame(m=first.frame, k_start=k_start, samples=samples)


def synthesize_frame(scene: Scene, truth: FrameTruth) -> EchoFrame:
    """The noiseless echo of frame ``truth.frame``: a delayed, Doppler-rotated
    copy of the 802.11ad preamble per target.  ``with_noise`` adds its noise.
    """
    delays = truth.delay_samples.tolist()
    if not all(delays[0] <= ell <= delays[-1] for ell in delays):
        raise ScenarioError(f"delay outside representable window at frame {truth.frame}")
    block = synthesize_window(scene, [truth], delays[0],
                              PREAMBLE_LEN + delays[-1] - delays[0])
    return EchoFrame(m=truth.frame, k_start=block.k_start, samples=block.samples[0])


def with_noise(frame: EchoFrame, noise_clutter_var: float,
               rng: np.random.Generator) -> EchoFrame:
    """A new frame: ``frame`` plus one draw of i.i.d. CN(0, ``noise_clutter_var``)
    clutter-plus-noise from ``rng``; ValueError for a negative or NaN variance.

    The draw has shape (2, n) for one frame and (rows, 2, n) for a block:
    each row's real parts, then its imaginary parts.  A generator fills an
    array in C order, so a block's draw is, bit for bit, its rows' (2, n)
    draws in row order.
    """
    if not noise_clutter_var >= 0:
        raise ValueError(f"noise_clutter_var must be >= 0, got {noise_clutter_var!r}")
    shape = frame.samples.shape
    z = rng.standard_normal(shape[:-1] + (2, shape[-1]))
    z *= np.sqrt(noise_clutter_var / 2.0)
    samples = np.empty_like(frame.samples)
    np.add(frame.samples.real, z[..., 0, :], out=samples.real)
    np.add(frame.samples.imag, z[..., 1, :], out=samples.imag)
    return EchoFrame(m=frame.m, k_start=frame.k_start, samples=samples)
