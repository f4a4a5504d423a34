import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adradar.sequences import (CORR_SEGMENT_LEN, CORR_SEGMENT_OFFSET,
                               build_preamble, correlation_profile,
                               correlation_segment, generate_golay_pair)


def cross_correlate(s_c, window, lag):
    """Pointwise oracle for ``correlation_profile``.

    Returns sum_{k=0}^{511} s_c[k] * conj(window[lag + k]).  The conjugate
    sits on the observation, so the result is conjugate-linear in ``window``.

    Raises
    ------
    ValueError
        If ``lag`` puts any required index outside ``window``.
    """
    n = len(s_c)
    if lag < 0 or lag + n > len(window):
        raise ValueError(f"lag {lag} out of range for window of length {len(window)}")
    return np.dot(s_c, np.conj(window[lag:lag + n]))


def complex_lattice(window):
    """Rounding oracle for ``correlation_profile``: the same 7-stage Golay
    lattice run on the conjugated window as complex arrays.

    The production lattice runs on the interleaved float view and conjugates
    its n outputs instead; complex add and subtract are componentwise, so the
    two must agree bit for bit, up to the sign of an exactly zero imaginary
    sum (see ``test_lattice_profile_of_a_real_valued_complex_window``).
    """
    x = np.conj(np.asarray(window, dtype=np.complex128))
    a = b = x
    for d, w in zip((1, 8, 2, 4, 16, 32, 64), (-1, -1, -1, -1, 1, -1, -1)):
        head, tail = a[:len(a) - d], b[d:]
        a, b = (head + tail, head - tail) if w > 0 else (head - tail, head + tail)
    n = len(x) - 511
    return (b[384:384 + n] - b[128:128 + n]) - (a[:n] + a[256:256 + n])


def aperiodic_autocorr(x):
    # Independent oracle: direct integer correlation at every lag.
    return np.correlate(x, x, "full")


@pytest.mark.parametrize("length", [128])
def test_complementarity_all_lengths(length):
    a, b = generate_golay_pair()
    total = aperiodic_autocorr(a) + aperiodic_autocorr(b)
    expected = np.zeros(2 * length - 1, dtype=np.int64)
    expected[length - 1] = 2 * length
    assert total.dtype.kind == "i"
    assert np.array_equal(total, expected)


def test_pair_alphabet_and_length():
    a, b = generate_golay_pair()
    for seq in (a, b):
        assert seq.shape == (128,)
        assert set(np.unique(seq)).issubset({-1, 1})


def test_preamble_length_and_alphabet(preamble):
    assert preamble.shape == (3328,)
    assert preamble.dtype == np.int64
    assert np.all(np.abs(preamble) == 1)


def test_preamble_is_built_once_and_read_only(preamble):
    assert build_preamble() is preamble
    assert not preamble.flags.writeable
    with pytest.raises(ValueError):
        preamble[0] = 0
    with pytest.raises(ValueError):
        correlation_segment(preamble)[0] = 0


def test_preamble_window_identity(preamble):
    a, b = generate_golay_pair()
    window = np.concatenate([-a, -b, -a, b])
    lo, hi = CORR_SEGMENT_OFFSET, CORR_SEGMENT_OFFSET + CORR_SEGMENT_LEN
    assert np.array_equal(preamble[lo:hi], window)


def test_correlation_segment_matches_slice(preamble):
    seg = correlation_segment(preamble)
    assert seg.shape == (512,)
    assert np.array_equal(seg, preamble[2048:2560])
    assert int(np.sum(seg.astype(np.int64) ** 2)) == 512


def test_cross_correlate_autocorrelation_peak(s_c):
    assert cross_correlate(s_c, s_c, 0) == pytest.approx(512.0)


def test_cross_correlate_zero_window(s_c):
    window = np.zeros(1024, dtype=complex)
    for lag in (0, 100, 512):
        assert cross_correlate(s_c, window, lag) == 0


def test_cross_correlate_lag_out_of_range(s_c):
    with pytest.raises(ValueError):
        cross_correlate(s_c, np.zeros(600), 100)
    with pytest.raises(ValueError):
        cross_correlate(s_c, np.zeros(600), -1)


def test_cross_correlate_echo_peak_at_delay(preamble, s_c):
    # Noiseless zero-Doppler echo at an integer delay: |R| maximized at the
    # lag aligning s_c with its echo copy.  Scan all lags by brute force.
    delay = 37
    echo = np.zeros(len(preamble) + delay, dtype=complex)
    echo[delay:] = preamble
    best = max(range(len(echo) - 511),
               key=lambda lag: abs(cross_correlate(s_c, echo, lag)))
    assert best == CORR_SEGMENT_OFFSET + delay
    assert abs(cross_correlate(s_c, echo, best)) == pytest.approx(512.0)


def test_cross_correlate_conjugate_linear_in_window(s_c):
    rng = np.random.default_rng(7)
    window = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    alpha = 1.3 - 0.8j
    for lag in (0, 55, 188):
        scaled = cross_correlate(s_c, alpha * window, lag)
        base = cross_correlate(s_c, window, lag)
        assert scaled == pytest.approx(np.conj(alpha) * base, rel=1e-12)


def test_correlation_profile_matches_pointwise(preamble, s_c):
    rng = np.random.default_rng(11)
    window = rng.standard_normal(800) + 1j * rng.standard_normal(800)
    profile = correlation_profile(s_c, window)
    assert profile.shape == (800 - 512 + 1,)
    for lag in (0, 10, 200, 288):
        assert profile[lag] == pytest.approx(cross_correlate(s_c, window, lag))


def test_sidelobe_free_window_after_peak(preamble, s_c):
    # Correlating s_c against the whole preamble: exact zeros for the 127
    # lags after the peak, the property the delay estimator relies on.
    profile = correlation_profile(s_c, preamble.astype(float))
    peak = int(np.argmax(np.abs(profile)))
    assert peak == CORR_SEGMENT_OFFSET
    assert np.all(profile[peak + 1:peak + 128] == 0)


def test_correlation_profile_rejects_another_segment(preamble, s_c):
    # The lattice hard-wires the 802.11ad segment; any other s_c would be
    # silently ignored if it were accepted.
    window = preamble.astype(float)
    for bad in (-s_c, s_c[:256], preamble[:512],
                np.concatenate([s_c[1:], s_c[:1]])):
        with pytest.raises(ValueError, match="correlation segment"):
            correlation_profile(bad, window)
    with pytest.raises(ValueError, match="shorter"):
        correlation_profile(s_c, window[:511])
    assert correlation_profile(s_c.astype(complex), window).shape == (2817,)


def test_the_package_segment_is_one_object_and_copies_still_pass(preamble):
    s_c = correlation_segment(preamble)
    assert correlation_segment(build_preamble()) is s_c
    assert not s_c.flags.writeable
    window = preamble.astype(complex)
    want = correlation_profile(s_c, window)
    # An equal array that is not the package's segment takes the full check.
    for equal in (s_c.copy(), correlation_segment(preamble.copy()),
                  s_c.astype(float)):
        assert equal is not s_c
        assert correlation_profile(equal, window).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(length=st.integers(512, 4096), seed=st.integers(0, 2**32 - 1))
def test_lattice_profile_matches_the_pointwise_oracle(s_c, length, seed):
    rng = np.random.default_rng(seed)
    lags = range(length - 511)
    window = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    profile = correlation_profile(s_c, window)
    expected = np.array([cross_correlate(s_c, window, lag) for lag in lags])
    assert profile.dtype == np.complex128
    assert np.max(np.abs(profile - expected)) <= 1e-12 * np.max(np.abs(expected))
    # Integer-valued input: every sum is exact, whatever the summation order,
    # and a real window gives a complex profile with zero imaginary parts.
    ints = rng.integers(-1000, 1001, size=length)
    profile = correlation_profile(s_c, ints)
    expected = np.array([cross_correlate(s_c, ints, lag) for lag in lags])
    assert profile.dtype == np.complex128
    assert np.array_equal(profile, expected)
    assert not np.any(profile.imag)


# Up to 12,288 samples: one map block of 16 frames of 768 samples.
@settings(max_examples=40, deadline=None)
@given(length=st.integers(512, 12288), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.complex128, np.complex64, np.float64, np.int64]))
@example(length=12288, seed=0, dtype=np.complex128)
def test_lattice_profile_is_bit_identical_to_the_complex_lattice(s_c, length, seed,
                                                                 dtype):
    rng = np.random.default_rng(seed)
    kind = np.dtype(dtype).kind
    if kind == "i":
        window = rng.integers(-1000, 1001, size=length)
    elif kind == "f":
        window = rng.standard_normal(length)
    else:
        window = (rng.standard_normal(length)
                  + 1j * rng.standard_normal(length)).astype(dtype)
    expected = complex_lattice(window)
    profile = correlation_profile(s_c, window)
    assert profile.dtype == expected.dtype == np.complex128
    if kind == "c":
        assert profile.tobytes() == expected.tobytes()
    else:  # a real window's zero imaginary sums may differ in sign alone
        assert profile.real.tobytes() == expected.real.tobytes()
        assert not np.any(profile.imag) and not np.any(expected.imag)
    # A non-contiguous view gives the same bits as its contiguous copy.
    strided = np.repeat(window, 2)[::2]
    assert not strided.flags.c_contiguous
    assert correlation_profile(s_c, strided).tobytes() == profile.tobytes()


def placed_in_a_line(window, offset):
    """A copy of ``window`` whose first byte sits ``offset`` bytes past a
    64-byte line."""
    raw = np.empty(window.nbytes + 128, np.uint8)
    start = -raw.ctypes.data % 64 + offset
    placed = raw[start:start + window.nbytes].view(window.dtype).reshape(window.shape)
    placed[...] = window
    return placed


# One 3374-sample frame, one 16 x 768 map block laid end to end, and lengths
# on both sides of each: the first stage's 2n - 2 floats are a multiple of 8
# at 513, 3373 and 12,289 samples and not at 512, 3374 and 12,288, so the
# workspace's spans are rounded up at some lengths and not at others.
@pytest.mark.parametrize("shape", [(512,), (513,), (3373,), (3374,), (16, 768), (12289,)],
                         ids=str)
def test_the_profile_does_not_depend_on_where_the_window_sits_in_a_line(s_c, shape):
    rng = np.random.default_rng(shape[-1])
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = complex_lattice(block.reshape(-1)).tobytes()
    for offset in (0, 16, 32, 48):
        window = placed_in_a_line(block, offset)
        assert window.ctypes.data % 64 == offset
        assert correlation_profile(s_c, window.reshape(-1)).tobytes() == want


def test_a_profile_holds_no_stage_array(s_c):
    # The map slices frame 0's column from its profile and keeps it for the
    # trial, so a profile that viewed the stage workspace would keep three
    # stage arrays alive with it.
    profile = correlation_profile(s_c, np.ones(16 * 768, dtype=complex))
    owner = profile
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == profile.nbytes


def test_the_lattice_holds_three_stage_arrays_and_its_output(s_c):
    # A 16 x 768 map block.  The stages run in three float64 buffers of the
    # first stage's 2n - 2 entries, and the output takes 2 (n - 511); a
    # lattice holding a fourth stage array or a temporary of the output's
    # size would exceed the bound by far more than the slack.
    n = 16 * 768
    rng = np.random.default_rng(3)
    window = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    correlation_profile(s_c, window)
    tracemalloc.start()
    try:
        correlation_profile(s_c, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stage, out = 8 * (2 * n - 2), 16 * (n - 511)
    assert peak <= 3 * stage + out + 16384


def test_lattice_profile_of_a_real_valued_complex_window(s_c, preamble):
    # The one place the two lattices can differ: the conjugate of an exactly
    # zero imaginary sum is -0.0 on one and +0.0 on the other.  Values and
    # magnitudes, all that the estimators read, still agree bit for bit.
    window = preamble.astype(complex)
    profile, expected = correlation_profile(s_c, window), complex_lattice(window)
    assert np.array_equal(profile, expected)
    assert np.abs(profile).tobytes() == np.abs(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 20), width=st.integers(512, 1200),
       seed=st.integers(0, 2**32 - 1))
def test_the_lattice_over_rows_end_to_end_reads_each_rows_profile(s_c, rows, width,
                                                                   seed):
    # Output r W + i reads only row r's samples i to i + 511, so it is row
    # r's own output i; the outputs that straddle two rows are the rest.
    rng = np.random.default_rng(seed)
    block = (rng.standard_normal((rows, width))
             + 1j * rng.standard_normal((rows, width)))
    joined = correlation_profile(s_c, block.reshape(-1))
    assert len(joined) == rows * width - 511
    lags = np.arange(width - 511)
    for r in range(rows):
        own = correlation_profile(s_c, block[r])
        assert joined[r * width + lags].tobytes() == own.tobytes()
