#!/usr/bin/env python3
"""Golay preamble anatomy and the 127 zero lags after the correlation peak.

Builds the 3328-sample training field, verifies the complementarity of the
length-128 Golay pair, and plots the magnitude of the cross-correlation
between the 512-sample segment s_c and the full preamble.  The segment is
chosen so that the 127 lags after the peak are exactly zero, which is what
makes multi-target delay peaks clean.
"""

import numpy as np

from adradar import build_preamble, correlation_profile, correlation_segment, generate_golay_pair


def main():
    a, b = generate_golay_pair()
    total = np.correlate(a, a, "full") + np.correlate(b, b, "full")
    print("Golay pair length        :", len(a))
    print("autocorr sum at lag 0    :", total[127])
    print("worst off-peak |R_a+R_b| :", np.abs(np.delete(total, 127)).max())

    pre = build_preamble()
    s_c = correlation_segment(pre)
    print("\npreamble length          :", len(pre))
    print("correlation segment      : samples [2048, 2560) = [-a, -b, -a, +b]")

    profile = correlation_profile(s_c, pre.astype(float))
    mag = np.abs(profile)
    peak = int(np.argmax(mag))
    print("correlation peak         :", mag[peak], "at preamble offset", peak)
    print("max |R| over next 127 lags:", mag[peak + 1:peak + 128].max())
    print("max |R| elsewhere        :", np.delete(mag, peak).max(),
          "(half the peak, in the repetitive STF region)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots(figsize=(8, 3.2))
        ax.plot(np.arange(len(mag)) - peak, mag, lw=0.7)
        ax.set_xlabel("lag relative to aligned position")
        ax.set_ylabel("|correlation|")
        ax.set_title("s_c against the full preamble")
        fig.tight_layout()
        fig.savefig("demo_preamble_correlation.png", dpi=120)
        print("\nwrote demo_preamble_correlation.png")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
