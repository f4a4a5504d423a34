#!/usr/bin/env python3
"""Delay-Doppler-map baseline versus the proposed estimator, one noisy CPI.

Renders the map (delay stripes at each target, slow-time DFT across frames)
and contrasts the bin-quantized baseline velocities with the wrap-compensated
least-squares estimates from the same echo frames.
"""

import numpy as np

from adradar import (PipelineConfig, baseline_velocities, delay_doppler_map,
                     detection_threshold, run_pipeline, synthesize_frame)
from adradar.baseline import map_columns
from adradar.echo import with_noise
from adradar.scene import Scenario, build_scene, frame_truth, scene_backscatter


def main():
    scenario = Scenario()
    scene = build_scene(scenario)
    wf = scene.wf

    cpi = 1e-3
    m_count = wf.frames_per_cpi(cpi)
    h = scene_backscatter(scene)
    frames = {}
    for m in range(m_count):
        rng = np.random.default_rng([scenario.seed, 0, 0, m])
        frames[m] = with_noise(synthesize_frame(scene, frame_truth(scene, m), h),
                               scene.noise_clutter_var, rng)

    # The map reads every frame over the lags 40 either side of the targets.
    truth = frame_truth(scene, 0)
    lo, hi = truth.delay_samples[0] - 40, truth.delay_samples[-1] + 40
    window = frames[0].cut_to_lags(lo, hi)
    ddm = delay_doppler_map((map_columns(f.cut_to_lags(lo, hi), window)
                             for f in frames.values()), window, wf.frame_period)
    threshold = detection_threshold(scene.noise_clutter_var)
    base_v = baseline_velocities(ddm, scene.source_velocity, wf.wavelength,
                                 scenario.num_targets, threshold)

    cfg = PipelineConfig(m_d=m_count - 1, m_i=m_count - 7, threshold=threshold,
                         expected_targets=scenario.num_targets)
    res = run_pipeline(frames, wf, scene.source_velocity, scene.tx_power, cfg)

    print(f"CPI {cpi * 1e3:.1f} ms, M = {m_count}, Doppler bin "
          f"{ddm.doppler_bin_width_hz:.1f} Hz "
          f"(velocity quantum {ddm.doppler_bin_width_hz * wf.wavelength / 2:.3f} m/s)")
    print("\n target   true V    baseline V   (err)      proposed V   (err)")
    for p, v in enumerate(scene.velocities):
        print(f"   {p}    {v:8.3f}   {base_v[p]:9.3f} "
              f"({abs(base_v[p] - v):6.3f})   "
              f"{res.velocities[p]:9.3f} "
              f"({abs(res.velocities[p] - v):6.4f})")
    print("\nThe baseline cannot do better than half a Doppler bin; the "
          "proposed estimator reads the phase directly and lands two orders "
          "of magnitude closer.")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        order = np.argsort(ddm.doppler_bins_hz)
        fig, ax = plt.subplots(figsize=(6.5, 4))
        img = ax.imshow(20 * np.log10(np.abs(ddm.values[:, order]).T + 1e-12),
                        aspect="auto", origin="lower",
                        extent=(ddm.lags[0], ddm.lags[-1],
                                ddm.doppler_bins_hz.min(),
                                ddm.doppler_bins_hz.max()))
        ax.set_ylim(-4000, 4000)
        ax.set_xlabel("delay (samples)")
        ax.set_ylabel("Doppler (Hz)")
        fig.colorbar(img, label="dB")
        fig.tight_layout()
        fig.savefig("demo_delay_doppler_map.png", dpi=120)
        print("wrote demo_delay_doppler_map.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
