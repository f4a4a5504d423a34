#!/usr/bin/env python3
"""Walk the full estimation pipeline on one noiseless CPI.

Three targets, the stock V2V scenario.  Shows every stage: detected delays,
least-squares channel coefficients, wrapped raw Dopplers, wrap counts, the
refined Dopplers, and the final velocities.
"""

from adradar import (PipelineConfig, detection_threshold, run_pipeline,
                     synthesize_frame)
from adradar.scene import Scenario, build_scene, frame_truth, scene_backscatter


def main():
    scenario = Scenario()
    scene = build_scene(scenario)
    wf = scene.wf

    cpi = scenario.cpi_s
    m_count = wf.frames_per_cpi(cpi)
    m_d, m_i = m_count - 1, m_count - 1 - scenario.m_i_offset
    print(f"CPI {cpi * 1e3:.2f} ms -> M = {m_count} frames, "
          f"m_d = {m_d}, m_i = {m_i}")

    h = scene_backscatter(scene)
    frames = {m: synthesize_frame(scene, frame_truth(scene, m), h)
              for m in (0, m_i, m_d)}
    cfg = PipelineConfig(m_d=m_d, m_i=m_i,
                         threshold=detection_threshold(scene.noise_clutter_var),
                         expected_targets=scenario.num_targets)
    res = run_pipeline(frames, wf, scene.source_velocity, scene.tx_power, cfg)

    truth = frame_truth(scene, 0)
    print("\ndetected delays (frame 0):", res.delays[0].delays.tolist(),
          " true:", truth.delay_samples.tolist())
    print("\n target   true nu (Hz)   raw nu (Hz)   wraps   refined (Hz)   "
          "true V     est V    |err| (m/s)")
    for p in range(scenario.num_targets):
        print(f"   {p}     {scene.doppler_hz[p]:10.1f}   "
              f"{res.doppler.nu_raw[p]:10.1f}    {res.doppler.wrap_count[p]:3d}   "
              f"{res.doppler.nu_refined[p]:10.1f}   "
              f"{scene.velocities[p]:8.3f} {res.velocities[p]:9.3f}   "
              f"{abs(res.velocities[p] - scene.velocities[p]):.4f}")
    print("\nThe raw estimates wrap (note targets 0 and 2); the two-frame "
          "comparison recovers the turn count and the refined Doppler lands "
          "within a few Hz of truth.")


if __name__ == "__main__":
    main()
