"""Golay complementary sequences and the 802.11ad preamble training field.

The preamble is built from the length-128 complementary pair Ga/Gb: a short
training field of 16 repetitions of Ga followed by -Ga, then the channel
estimation field assembled from +/-Ga and +/-Gb blocks.  The 512-sample window
starting at sample 2048 equals [-Ga, -Gb, -Ga, +Gb].  Correlated against the
whole preamble, with lags relative to the delay peak, it gives 512 at lag 0
and exact zeros at +1 to +127, which every estimator in this package leans
on.  The peak is not free of sidelobes: |256| at each multiple of 128 from
-384 to -2048 and at +1024, |128| at -128, -256, -2176 and -2304 (the STF's
repeats of Ga), and at most 86 elsewhere.
"""

import functools

import numpy as np

PREAMBLE_LEN = 3328
CORR_SEGMENT_OFFSET = 2048
CORR_SEGMENT_LEN = 512

# Delay and seed-weight vectors of the 802.11ad length-128 generator.
_AD_DELAYS = (1, 8, 2, 4, 16, 32, 64)
_AD_WEIGHTS = (-1, -1, -1, -1, 1, -1, -1)


def generate_golay_pair() -> tuple:
    """The 802.11ad complementary pair (Ga128, Gb128) as two int64 arrays.

    Built by the recursive delay/weight construction with the delay and
    weight vectors of the 802.11ad generator; the aperiodic autocorrelations
    satisfy R_a[l] + R_b[l] = 256 delta[l].
    """
    a = b = (np.arange(128) == 0).astype(np.int64)  # both start as a unit impulse
    for d, w in zip(_AD_DELAYS, _AD_WEIGHTS):
        shifted = np.zeros(128, dtype=np.int64)
        shifted[d:] = b[:128 - d]
        a, b = w * a + shifted, w * a - shifted
    return a, b


@functools.cache
def build_preamble() -> np.ndarray:
    """The 3328-sample training field, assembled once per process.

    Layout: STF = 16 x Ga followed by -Ga (2176 samples); CEF = Gu512, Gv512
    and a trailing -Gb (1152 samples), with Gu512 = [-Gb, -Ga, +Gb, -Ga] and
    Gv512 = [-Gb, +Ga, -Gb, -Ga].  Samples [2048, 2560) then read
    [-Ga, -Gb, -Ga, +Gb], the correlation segment.  Every call returns the
    same read-only int64 array.
    """
    ga, gb = generate_golay_pair()
    stf = np.concatenate([np.tile(ga, 16), -ga])
    gu512 = np.concatenate([-gb, -ga, gb, -ga])
    gv512 = np.concatenate([-gb, ga, -gb, -ga])
    cef = np.concatenate([gu512, gv512, -gb])
    samples = np.concatenate([stf, cef])
    assert samples.shape[0] == PREAMBLE_LEN
    samples.flags.writeable = False
    return samples


def correlation_segment(preamble: np.ndarray) -> np.ndarray:
    """Return the 512-sample correlation window s_c at offset 2048.

    For the package's own ``build_preamble()`` every call returns the same
    read-only view, which ``correlation_profile`` accepts without comparing
    its samples.
    """
    if preamble is build_preamble():
        return _SEGMENT
    return preamble[CORR_SEGMENT_OFFSET:CORR_SEGMENT_OFFSET + CORR_SEGMENT_LEN]


# The only segment the lattice in correlation_profile computes.
_SEGMENT = build_preamble()[CORR_SEGMENT_OFFSET:CORR_SEGMENT_OFFSET + CORR_SEGMENT_LEN]


def correlation_profile(s_c: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Correlation of ``s_c`` with every admissible lag of ``window``.

    Element ``l`` equals sum_{k=0}^{511} s_c[k] conj(window[l + k]), with the
    conjugate on the observation; the output is complex128 with
    ``len(window) - 511`` entries, and a real window is cast to complex.
    Since s_c = [-Ga, -Gb, -Ga, +Gb], the profile is four shifted outputs of
    one Ga/Gb correlator, computed by the 7-stage add/subtract lattice of the
    generator (B. M. Popovic, "Efficient Golay correlator", Electron. Lett.
    35(17), 1999).  Integer-valued input gives exact output.

    Raises
    ------
    ValueError
        If ``s_c`` is not the 802.11ad correlation segment, or ``window`` is
        shorter than it.
    """
    if s_c is not _SEGMENT and not np.array_equal(s_c, _SEGMENT):
        raise ValueError("s_c is not the 802.11ad correlation segment")
    if len(window) < CORR_SEGMENT_LEN:
        raise ValueError("window shorter than the correlation segment")
    # Complex add and subtract act on the real and imaginary parts apart, so
    # the lattice runs on the interleaved float view with every shift doubled.
    # a[l] = sum_j Ga[j] x[l + j] and b[l] = sum_j Gb[j] x[l + j], built one
    # stage of the generator's recursion a, b = w a + b', w a - b' at a time.
    # For w = -1 that pair is -(a - b'), -(a + b'): the sum and difference
    # swap and both change sign, which the six such stages cancel.
    f = np.ascontiguousarray(window, dtype=np.complex128).view(np.float64)
    k = len(f) - 2 * _AD_DELAYS[0]  # the first stage (w = -1) fills a new a, b
    span = -(-k // 8) * 8
    ws = np.empty(3 * span + 7)  # a, b and the spare, each from a 64-byte line
    a, b, spare = ws[-ws.ctypes.data % 64 // 8:][:3 * span].reshape(3, span)[:, :k]
    np.subtract(f[:k], f[-k:], out=a)
    np.add(f[:k], f[-k:], out=b)
    for d, w in zip(_AD_DELAYS[1:], _AD_WEIGHTS[1:]):
        k -= 2 * d
        head, tail = a[:k], b[2 * d:2 * d + k]
        (np.subtract if w > 0 else np.add)(head, tail, out=spare[:k])
        (np.add if w > 0 else np.subtract)(head, tail, out=head)
        b, spare = spare, b  # three buffers: a in place, b via the spare
    n, o = len(f) - 2 * (CORR_SEGMENT_LEN - 1), 2 * 128
    out = np.subtract(b[3 * o:3 * o + n], b[o:o + n])
    out -= np.add(a[:n], a[2 * o:2 * o + n], out=spare[:n])
    # s_c is real, so the window's conjugate moves onto the sums.
    out = out.view(np.complex128)
    return np.conjugate(out, out=out)
