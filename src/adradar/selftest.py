"""Built-in invariant battery behind the ``selftest`` CLI subcommand."""

import numpy as np

from .echo import synthesize_frame
from .estimator import PipelineConfig, detection_threshold, run_pipeline
from .harness import ExperimentConfig, format_csv, sweep_cpi
from .phasedarray import measure_beamwidth
from .scene import Scenario, build_scene, designed_beam, frame_truth
from .sequences import build_preamble, correlation_segment, generate_golay_pair


def _check_golay():
    a, b = generate_golay_pair()
    total = np.correlate(a, a, "full") + np.correlate(b, b, "full")
    expected = np.zeros(255, dtype=np.int64)
    expected[127] = 256
    ok = np.array_equal(total, expected)
    return ok, "R_a + R_b = 256*delta over all lags"


def _check_preamble():
    a, b = generate_golay_pair()
    pre = build_preamble()
    window = np.concatenate([-a, -b, -a, b])
    ok = (len(pre) == 3328
          and np.array_equal(pre[2048:2560], window)
          and np.array_equal(correlation_segment(pre), window)
          and bool(np.all(np.abs(pre) == 1)))
    return ok, "3328 +/-1 samples; [2048, 2560) = [-a, -b, -a, +b]"


def _check_beamwidths():
    scn = Scenario()
    geo = scn.geometry()
    f = designed_beam(scn)
    az = measure_beamwidth(f, geo, "azimuth", scn.elevation_center_rad)
    el = measure_beamwidth(f, geo, "elevation", scn.elevation_center_rad)
    ok = abs(az - 0.4084) / 0.4084 < 0.05 and abs(el - 1.0399) / 1.0399 < 0.05
    return ok, f"azimuth {az:.4f} rad, elevation {el:.4f} rad"


def _check_noiseless_pipeline():
    scn = Scenario()
    scene = build_scene(scn)
    wf = scene.wf
    m_count = wf.frames_per_cpi(0.5e-3)
    m_d, m_i = m_count - 1, m_count - 7
    frames = {m: synthesize_frame(scene, frame_truth(scene, m))
              for m in (0, m_i, m_d)}
    cfg = PipelineConfig(m_d=m_d, m_i=m_i,
                         threshold=detection_threshold(scene.noise_clutter_var),
                         expected_targets=scn.num_targets)
    res = run_pipeline(frames, wf, scene.source_velocity, scene.tx_power, cfg)
    true_v = np.array([t.velocity for t in scene.targets])
    worst = float(np.max(np.abs(res.velocities - true_v)))
    return worst < 0.02, f"worst noiseless velocity error {worst:.4f} m/s"


def _check_determinism():
    scn = Scenario()
    exp = ExperimentConfig(cpi_s=2e-4, trials=4)
    outputs = [format_csv(sweep_cpi(scn, exp, [exp.cpi_s])) for _ in range(2)]
    return outputs[0] == outputs[1], "repeated run produces identical CSV"


CHECKS = (
    ("golay-complementarity", _check_golay),
    ("preamble-window", _check_preamble),
    ("beamwidths", _check_beamwidths),
    ("noiseless-pipeline", _check_noiseless_pipeline),
    ("determinism", _check_determinism),
)


def run_selftest() -> bool:
    all_ok = True
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
