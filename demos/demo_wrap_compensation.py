#!/usr/bin/env python3
"""Raw versus wrap-compensated Doppler across several full phase turns.

Sweeps the true Doppler of a single noiseless target over +/-3 wraps at the
late frame m_d.  The raw estimate is confined to one wrap period and aliases
into a sawtooth; the two-frame wrap count restores the true line except in
the narrow bands where the two frames disagree about the turn count.
"""

import numpy as np

from adradar import PipelineConfig, run_pipeline, synthesize_frame
from adradar.estimator import denominator_inverse
from adradar.scene import Scenario, build_scene, frame_truth, scene_backscatter


def main():
    base = Scenario(target_velocities_mps=(20.0,), target_ranges_m=(15.7,),
                    target_azimuths_rad=(0.0,), target_elevations_rad=(0.0,))
    scene0 = build_scene(base)
    wf = scene0.wf
    m_count = wf.frames_per_cpi(0.5e-3)
    m_d, m_i = m_count - 1, m_count - 7
    ell0 = int(frame_truth(scene0, 0).delay_samples[0])
    d_md = denominator_inverse(ell0, m_d, wf.frame_len, wf.sample_period)
    print(f"M = {m_count}, one wrap period at m_d: {2 * np.pi * d_md:.1f} Hz")

    nus, raws, refined = [], [], []
    for nu in np.linspace(-3 * 2 * np.pi * d_md, 3 * 2 * np.pi * d_md, 121):
        scn = Scenario(target_velocities_mps=(25.271 - nu * wf.wavelength / 2,),
                       target_ranges_m=(15.7,), target_azimuths_rad=(0.0,),
                       target_elevations_rad=(0.0,))
        scene = build_scene(scn)
        h = scene_backscatter(scene)
        frames = {m: synthesize_frame(scene, frame_truth(scene, m, h))
                  for m in (0, m_i, m_d)}
        cfg = PipelineConfig(m_d=m_d, m_i=m_i, threshold=1e-9, expected_targets=1)
        res = run_pipeline(frames, wf, scene.source_velocity,
                           scene.tx_power, cfg)
        nus.append(nu)
        raws.append(res.doppler.nu_raw[0])
        refined.append(res.doppler.nu_refined[0])

    nus, raws, refined = map(np.array, (nus, raws, refined))
    good = np.abs(refined - nus) < 0.005 * np.maximum(np.abs(nus), 1.0)
    print(f"refined estimate within 0.5% at {good.sum()}/{len(nus)} grid "
          f"points (the rest sit on wrap-count disagreement bands)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots(figsize=(7, 3.4))
        ax.plot(nus, raws, ".", ms=3, label="raw (wrapped)")
        ax.plot(nus, refined, ".", ms=3, label="refined")
        ax.plot(nus, nus, "-", lw=0.7, c="gray", label="truth")
        ax.set_xlabel("true Doppler (Hz)")
        ax.set_ylabel("estimate (Hz)")
        ax.legend()
        fig.tight_layout()
        fig.savefig("demo_wrap_compensation.png", dpi=120)
        print("wrote demo_wrap_compensation.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
