import numpy as np
import pytest

from adradar.waveform import nyquist_residual, rrc_taps


def scalar_rrc_taps(beta, span, sps):
    """Reference: the root-raised-cosine formula evaluated tap by tap."""
    t = np.arange(span * sps + 1) / sps - span / 2
    taps = np.empty_like(t)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - beta + 4.0 * beta / np.pi
        elif beta > 0 and abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-9:
            taps[i] = (beta / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta)))
        else:
            num = (np.sin(np.pi * ti * (1.0 - beta))
                   + 4.0 * beta * ti * np.cos(np.pi * ti * (1.0 + beta)))
            den = np.pi * ti * (1.0 - (4.0 * beta * ti) ** 2)
            taps[i] = num / den
    return taps / np.linalg.norm(taps)


@pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("span,sps", [(16, 4), (8, 3), (4, 2)])
def test_taps_match_the_scalar_formula(rolloff, span, sps):
    # rolloffs 0.25, 0.5 and 1.0 put taps on the |t| = 1/(4 beta) singularity
    np.testing.assert_allclose(rrc_taps(rolloff, span, sps).taps,
                               scalar_rrc_taps(rolloff, span, sps),
                               rtol=0, atol=1e-15)


def test_taps_symmetric():
    f = rrc_taps(0.25, 16, 4)
    np.testing.assert_allclose(f.taps, f.taps[::-1], atol=1e-15)


def test_taps_unit_energy():
    for rolloff in (0.0, 0.25, 1.0):
        f = rrc_taps(rolloff, 16, 4)
        assert np.sum(f.taps ** 2) == pytest.approx(1.0, abs=1e-9)


def test_default_cascade_is_nyquist():
    f = rrc_taps(0.25, 16, 4)
    assert nyquist_residual(f) < 1e-3


def test_residual_decreases_with_span():
    residuals = [nyquist_residual(rrc_taps(0.25, span, 4)) for span in (8, 16, 32)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_residual_definition_matches_direct_convolution():
    f = rrc_taps(0.25, 8, 3)
    cascade = np.convolve(f.taps, f.taps)
    center = len(cascade) // 2
    direct = max(abs(cascade[center + i * 3]) for i in range(-8, 9) if i != 0)
    assert nyquist_residual(f) == pytest.approx(direct / cascade[center], rel=1e-12)


@pytest.mark.parametrize("rolloff,span,sps", [
    (-0.1, 16, 4), (1.1, 16, 4), (0.25, 3, 4), (0.25, 0, 4), (0.25, 16, 1),
])
def test_invalid_parameters(rolloff, span, sps):
    with pytest.raises(ValueError):
        rrc_taps(rolloff, span, sps)
