"""Ground-truth V2V scenario: kinematics, channel gains, and noise statistics.

A scene fixes the source vehicle, the target vehicles as per-target arrays
(sorted by round-trip delay) with their Doppler, the waveform, the designed
beam, and the clutter-plus-noise variance, but no small-scale gains:
``scene_backscatter`` takes each CPI's.  Per-frame truth (integer delays)
is derived under a constant-velocity model.
"""

import functools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ScenarioError
from .params import SPEED_OF_LIGHT, WaveformParams
from .phasedarray import UpaGeometry, design_wide_beam, steering_upa
from .sequences import PREAMBLE_LEN, build_preamble


@dataclass(frozen=True)
class Scene:
    """Complete simulation scene over one CPI; each target field is a read-only
    float64 array with one entry per target, in order of increasing delay."""

    source_velocity: float
    velocities: np.ndarray       # m/s, along-road
    ranges: np.ndarray           # m, at frame 0
    azimuths: np.ndarray         # rad
    elevations: np.ndarray       # rad
    rcs: float                   # m^2, every target's
    tx_power: float              # W
    noise_clutter_var: float     # W, sigma_cn^2
    geometry: UpaGeometry
    beam: np.ndarray             # unit-norm TX beam; RX uses its conjugate
    wf: WaveformParams = field(default_factory=WaveformParams)

    def __post_init__(self):
        for name in ("velocities", "ranges", "azimuths", "elevations"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if not values.size or values.shape != (len(self.velocities),):
                raise ScenarioError(f"scene needs at least one target and one {name} "
                                    "value per target")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not (self.ranges > 0).all():
            raise ScenarioError("target range must be positive")
        if not self.rcs > 0:
            raise ScenarioError("target RCS must be positive")
        gains = [large_scale_gain(r, self.rcs, self.wf.wavelength)
                 for r in self.ranges.tolist()]
        if not all(0 < gain < np.inf for gain in gains):
            raise ScenarioError(f"radar-equation gain of targets at {self.ranges.tolist()} m "
                                f"with RCS {self.rcs!r} m^2 is not positive and finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.doppler_hz).all():
                raise ScenarioError(f"Doppler of {self.velocities.tolist()} m/s overflows")
        for name, watts in (("TX power", self.tx_power),
                            ("noise-plus-clutter variance", self.noise_clutter_var)):
            if not 0 < watts < np.inf:
                raise ScenarioError(f"{name} must be positive and finite, got {watts!r} W")

    @functools.cached_property
    def doppler_hz(self) -> np.ndarray:
        """Read-only per-target Doppler nu_p = 2 (V_s - V_p) / lambda (small
        azimuth approximation), constant over the CPI."""
        doppler = 2.0 * (self.source_velocity - self.velocities) / self.wf.wavelength
        doppler.flags.writeable = False
        return doppler

    @functools.cached_property
    def rotated_preamble(self) -> np.ndarray:
        """Read-only (P, K_pre) array exp(j 2 pi nu_p i T_s) s[i] for i in [0, K_pre).

        A target's Doppler is fixed over a CPI, so every frame of it reuses its
        rotated preamble; the frame and delay enter as one scalar phase.
        """
        phase = (2.0 * np.pi * np.outer(self.doppler_hz, np.arange(PREAMBLE_LEN))
                 * self.wf.sample_period)
        rotated = np.exp(1j * phase) * build_preamble()
        rotated.flags.writeable = False
        return rotated


@dataclass(frozen=True)
class FrameTruth:
    """Per-frame ground truth for every target, in scene target order."""

    frame: int
    delay_samples: np.ndarray  # l_p^m, integer


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` in Python floats, ``inf`` where that overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return np.inf


def large_scale_gain(range_m: float, rcs_m2: float, wavelength_m: float) -> float:
    """Two-way power gain of the monostatic radar range equation.

    G = lambda^2 * sigma / ((4 pi)^3 * r^4): ``inf`` or 0.0 where r^4 under- or overflows.
    """
    if range_m <= 0:
        raise ValueError(f"range must be positive, got {range_m}")
    r4 = _power(range_m, 4)
    return wavelength_m ** 2 * rcs_m2 / ((4.0 * np.pi) ** 3 * r4) if r4 else np.inf


def backscatter_coefficient(azimuth: float, elevation: float, beta: complex,
                            beam: np.ndarray, gain: float, geometry: UpaGeometry) -> complex:
    """Effective radar channel coefficient after TX and RX beamforming.

    h_p = sqrt(G_p) * beta_p * (f_RX^H a*(phi, theta)) * (a^H(phi, theta) f),
    held constant over one CPI.  The array receives on f_RX = conj(f), whose
    factor f_RX^H a* equals a^H f, so h_p = sqrt(G_p) * beta_p * (a^H f)^2.
    """
    factor = np.vdot(steering_upa(azimuth, elevation, geometry), beam)
    return complex(np.sqrt(gain) * beta * factor * factor)


def noise_clutter_variance(noise_density_w_hz: float, bandwidth_hz: float,
                           tx_power_w: float, clutter_ratio: float = 0.0) -> float:
    """Combined clutter-plus-noise variance sigma_cn^2 = N0*W + kappa*P_TX."""
    if min(noise_density_w_hz, bandwidth_hz, tx_power_w, clutter_ratio) < 0:
        raise ValueError("noise/clutter parameters must be nonnegative")
    return noise_density_w_hz * bandwidth_hz + clutter_ratio * tx_power_w


def scene_backscatter(scene: Scene, betas=None) -> np.ndarray:
    """Backscatter coefficients h_p, constant over the CPI, of one CPI's
    small-scale gains ``betas`` (default: pinned ones)."""
    betas = np.ones(scene.velocities.size, dtype=complex) if betas is None else betas
    return np.array([backscatter_coefficient(
        az, el, beta, scene.beam, large_scale_gain(r, scene.rcs, scene.wf.wavelength),
        scene.geometry) for r, az, el, beta in zip(
            scene.ranges.tolist(), scene.azimuths.tolist(), scene.elevations.tolist(), betas)])


def frame_truth(scene: Scene, m: int) -> FrameTruth:
    """Integer delay of every target at frame m.

    Constant-velocity model: r_p(t) = r_p(0) + (V_p - V_s)*t, rounded to whole
    sample delays.  The gains h_p are constant over the CPI, so no truth holds them.
    """
    return frame_truths(scene, (m,))[0]


def frame_truths(scene: Scene, frames) -> list:
    """``frame_truth`` of each frame of the sequence ``frames``, all delays from
    one ``np.rint``; raises ``frame_truth``'s error for the first bad frame."""
    if min(frames) < 0:
        raise ValueError("frame index must be nonnegative")
    wf = scene.wf
    frames = np.asarray(frames)
    ranges = scene.ranges + (scene.velocities - scene.source_velocity) * (
        frames[:, None] * wf.frame_period)
    rounded = np.rint(2.0 * ranges / SPEED_OF_LIGHT / wf.sample_period)
    fits = (ranges > 0) & (rounded < 2.0 ** 63)  # int64 holds every float below 2^63
    delays = np.where(fits, rounded, -1.0).astype(np.int64)
    bad = ~fits.all(axis=1) | (np.diff(delays) <= 0).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if ranges[i].min() <= 0:
            raise ScenarioError(f"target range nonpositive at frame {frames[i]}")
        if not fits[i].all():
            raise ScenarioError(f"target delay past 2^63 samples at frame {frames[i]}")
        what = ("delays collide after rounding" if len(set(delays[i].tolist()))
                < delays.shape[1] else "delay ordering violated")
        raise ScenarioError(f"{what} at frame {frames[i]}: {delays[i]}")
    return [FrameTruth(frame=m, delay_samples=d) for m, d in zip(frames.tolist(), delays)]


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def dbm_to_watts(dbm: float) -> float:
    return _power(10.0, dbm / 10.0) * 1e-3


def check_db(name: str, db: float, unit: str = "dBm") -> None:
    """ScenarioError naming ``name`` unless ``db`` in ``unit``, dBm or dBsm, is a
    positive float in watts or m^2: in dBm, from about -3,206 to 3,082."""
    linear_unit, symbol, scale = (("watts", "W", 1e-3) if unit == "dBm"
                                  else ("square metres", "m^2", 1.0))
    linear = _power(10.0, db / 10.0) * scale
    if linear == np.inf:
        raise ScenarioError(f"{name} of {db!r} {unit} overflows in {linear_unit}")
    if linear == 0:
        raise ScenarioError(f"{name} of {db!r} {unit} is 0 {symbol} in floating point")


@dataclass
class Scenario:
    """Serializable description of a scene plus detection knobs.

    This mirrors the JSON scenario file one-to-one; ``build_scene`` turns it
    into a concrete ``Scene`` (designing the wide beam along the way).
    """

    source_velocity_mps: float = 25.271
    target_velocities_mps: tuple = (20.279, 24.949, 21.806)
    target_ranges_m: tuple = (14.0, 15.7, 17.9)
    target_azimuths_rad: tuple = (-0.1, 0.0, 0.1)
    target_elevations_rad: tuple = (0.0, 0.0, 0.0)
    rcs_dbsm: float = 20.0
    p_tx_dbm: float = 20.0
    noise_density_dbm_hz: float = -174.0
    clutter_ratio: float = 0.0
    carrier_hz: float = WaveformParams.carrier_hz
    bandwidth_hz: float = WaveformParams.bandwidth_hz
    frame_len: int = WaveformParams.frame_len
    n_beams: int = 3
    azimuth_beamwidth_rad: float = 0.4084
    elevation_center_rad: float = 0.0
    nx_tx: int = UpaGeometry.nx
    ny_tx: int = UpaGeometry.ny
    beta_mode: str = "fixed"          # "fixed" (beta = 1) or "rayleigh" (CN(0,1))
    threshold_scale: float = 1.0      # multiplies the 512*sigma_cn detection threshold
    search_halfwidth: int = 1024
    guard: int = 8
    cpi_s: float = 0.5e-3
    m_i_offset: int = 6
    trials: int = 200
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (float, tuple) and not np.all(np.isfinite(value)):
                raise ScenarioError(f"{f.name} must be finite, got {value!r}")
        check_db("p_tx_dbm", self.p_tx_dbm)
        check_db("rcs_dbsm", self.rcs_dbsm, "dBsm")
        # N0 may be 0 W/Hz when clutter makes sigma^2 positive
        if not np.isfinite(dbm_to_watts(self.noise_density_dbm_hz) * self.bandwidth_hz):
            raise ScenarioError(f"noise_density_dbm_hz of {self.noise_density_dbm_hz!r} "
                                f"dBm overflows in watts over {self.bandwidth_hz!r} Hz")
        if not self.azimuth_beamwidth_rad > 0:
            raise ScenarioError("azimuth_beamwidth_rad must be positive")
        n = len(self.target_velocities_mps)
        for name in ("target_ranges_m", "target_azimuths_rad", "target_elevations_rad"):
            if len(getattr(self, name)) != n:
                raise ScenarioError(f"{name} must list one value per target")
        if self.beta_mode not in ("fixed", "rayleigh"):
            raise ScenarioError(f"unknown beta_mode {self.beta_mode!r}")
        if self.guard < 0 or self.search_halfwidth < 0:
            raise ScenarioError("guard and search_halfwidth must be >= 0")
        if not self.threshold_scale > 0:
            raise ScenarioError("threshold_scale must be positive")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.nx_tx * self.ny_tx > 1024:  # the beam scan: 3141 x 1024 complex, 51 MB
            raise ScenarioError(f"nx_tx {self.nx_tx} * ny_tx {self.ny_tx} > 1024 elements")
        self.waveform()  # raises ScenarioError on bad waveform numbers

    @property
    def num_targets(self) -> int:
        return len(self.target_velocities_mps)

    def waveform(self) -> WaveformParams:
        return WaveformParams(carrier_hz=self.carrier_hz,
                              bandwidth_hz=self.bandwidth_hz,
                              frame_len=self.frame_len)

    def geometry(self) -> UpaGeometry:
        return UpaGeometry(nx=self.nx_tx, ny=self.ny_tx)


def save_scenario(scn: Scenario, path) -> None:
    data = {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(scn).items()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


# Keys that older scenario files carry but the simulator no longer reads,
# each with the one value it could run: one preamble, one window, and one
# array for both TX and RX.
_RETIRED_KEYS = {"preamble_len": lambda scn: PREAMBLE_LEN,
                 "first_delay_window": lambda scn: False,
                 "nx_rx": lambda scn: scn.nx_tx,
                 "ny_rx": lambda scn: scn.ny_tx}


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    retired = {key: data.pop(key) for key in _RETIRED_KEYS if key in data}
    types = {f.name: f.type for f in Scenario.__dataclass_fields__.values()}
    unknown = set(data) - set(types)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    scn = Scenario(**{key: _checked(key, types[key], val)
                      for key, val in data.items()})
    for key, val in retired.items():
        want = _RETIRED_KEYS[key](scn)
        if type(val) is not type(want) or val != want:
            raise ScenarioError(f"scenario key {key!r} is retired and accepts "
                                f"only {json.dumps(want)}, got {json.dumps(val)}")
    return scn


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _checked(key: str, kind: type, val):
    """``val`` as a ``kind`` Scenario field; ints widen to float, lists to tuples."""
    if kind is float and _is_number(val):
        return float(val)
    if kind is tuple and isinstance(val, list) and all(map(_is_number, val)):
        return tuple(val)
    if kind in (int, str) and type(val) is kind:
        return val
    expected = "a list of numbers" if kind is tuple else kind.__name__
    raise ScenarioError(f"scenario key {key!r} must be {expected}, got {val!r}")


def draw_betas(scn: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Rayleigh small-scale gains for one CPI: one CN(0,1) draw per target."""
    re, im = rng.standard_normal(scn.num_targets), rng.standard_normal(scn.num_targets)
    return (re + 1j * im) / np.sqrt(2.0)


def designed_beam(scn: Scenario) -> np.ndarray:
    """The scenario's read-only wide TX beam; the deterministic bisection runs
    once per design."""
    return _design_wide_beam_once(scn.geometry(), scn.n_beams,
                                  scn.azimuth_beamwidth_rad,
                                  scn.elevation_center_rad)


@functools.cache
def _design_wide_beam_once(geometry, n_beams, width, elevation_center):
    return design_wide_beam(width, n_beams, geometry,
                            elevation_center=elevation_center)


def build_scene(scn: Scenario, p_tx_dbm=None) -> Scene:
    """Instantiate a Scene from a Scenario, designing the wide beam.

    ``p_tx_dbm`` overrides the scenario TX power, which the sweeps use.
    """
    wf = scn.waveform()
    p_tx = dbm_to_watts(scn.p_tx_dbm if p_tx_dbm is None else p_tx_dbm)
    n0 = dbm_to_watts(scn.noise_density_dbm_hz)
    sigma2 = noise_clutter_variance(n0, wf.bandwidth_hz, p_tx, scn.clutter_ratio)
    return Scene(source_velocity=scn.source_velocity_mps,
                 velocities=scn.target_velocities_mps, ranges=scn.target_ranges_m,
                 azimuths=scn.target_azimuths_rad, elevations=scn.target_elevations_rad,
                 rcs=_power(10.0, scn.rcs_dbsm / 10.0), tx_power=p_tx,
                 noise_clutter_var=sigma2, geometry=scn.geometry(),
                 beam=designed_beam(scn), wf=wf)
