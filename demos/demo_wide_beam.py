#!/usr/bin/env python3
"""Wide-beam synthesis on the 8x2 UPA.

Three component beams with equal weights are combined on the azimuth axis;
the component spacing is found by bisection until the 3 dB azimuth width
hits 0.4084 rad.  The elevation cut of the 2-element axis comes out near
1.04 rad on its own.
"""

import numpy as np

from adradar import UpaGeometry, design_wide_beam, gain_cut, measure_beamwidth, wide_beam


def main():
    geo = UpaGeometry()
    single = wide_beam([0.0], 0.0, geo)
    wide = design_wide_beam(0.4084, 3, geo)

    for name, beam in (("single beam", single), ("3-beam wide", wide)):
        az = measure_beamwidth(beam, geo, "azimuth", 0.0)
        el = measure_beamwidth(beam, geo, "elevation", 0.0)
        peak = gain_cut(beam, geo, "azimuth", 0.0, np.linspace(-0.5, 0.5, 401)).max()
        print(f"{name:12s}: 3 dB azimuth {az:.4f} rad, elevation {el:.4f} rad, "
              f"peak gain {10 * np.log10(peak):.2f} dB")

    angles = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 1201)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots(figsize=(7, 3.4))
        for name, beam in (("single", single), ("3-beam wide", wide)):
            g = gain_cut(beam, geo, "azimuth", 0.0, angles)
            ax.plot(angles, 10 * np.log10(np.maximum(g, 1e-9)), label=name)
        broadside = gain_cut(wide, geo, "azimuth", 0.0, np.zeros(1))[0]
        ax.axhline(10 * np.log10(broadside / 2), ls="--", c="gray", lw=0.8)
        ax.set_ylim(-35, 14)
        ax.set_xlabel("azimuth (rad)")
        ax.set_ylabel("gain (dB)")
        ax.legend()
        fig.tight_layout()
        fig.savefig("demo_wide_beam.png", dpi=120)
        print("wrote demo_wide_beam.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
