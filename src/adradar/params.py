"""IEEE 802.11ad single-carrier waveform timing parameters."""

from dataclasses import dataclass

from .errors import ScenarioError
from .sequences import PREAMBLE_LEN

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the metre


@dataclass(frozen=True)
class WaveformParams:
    """Symbol-rate timing of the 802.11ad SC PHY frame used for sensing.

    Attributes
    ----------
    carrier_hz : float
        Carrier frequency (60 GHz channelization).
    bandwidth_hz : float
        Symbol rate / occupied bandwidth (1.76 GHz).
    frame_len : int
        Samples per frame, preamble plus data fields (K = 13632).

    Raises
    ------
    ScenarioError
        If the frame is shorter than the preamble, or the carrier or
        bandwidth is not positive.
    """

    carrier_hz: float = 60e9
    bandwidth_hz: float = 1.76e9
    frame_len: int = 13632

    def __post_init__(self):
        if self.frame_len < PREAMBLE_LEN:
            raise ScenarioError(f"frame_len {self.frame_len} shorter than the "
                                f"{PREAMBLE_LEN}-sample preamble")
        if not (self.carrier_hz > 0 and self.bandwidth_hz > 0):
            raise ScenarioError("carrier_hz and bandwidth_hz must be positive")
        if not (self.frame_len < 2 ** 63 and self.frame_period < float("inf")):
            raise ScenarioError(f"frame_len {self.frame_len} at bandwidth_hz "
                                f"{self.bandwidth_hz!r} is past 2^63 samples or the "
                                "largest float in seconds")

    @property
    def sample_period(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def frame_period(self) -> float:
        return self.frame_len * self.sample_period

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def frames_per_cpi(self, cpi_s: float) -> int:
        """Number of whole frames fitting in one coherent processing interval."""
        if cpi_s < 2 * self.frame_period:
            raise ValueError(f"CPI {cpi_s} s shorter than two frames of "
                             f"{self.frame_period:.3e} s")
        if not cpi_s / self.frame_period < 2.0 ** 63:
            raise ValueError(f"CPI {cpi_s} s holds 2^63 frames or more")
        return int(cpi_s / self.frame_period)
