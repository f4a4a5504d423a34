"""Time ``correlation_profile`` of two checkouts in alternating fresh processes.

    python tests/run_correlator_timing.py BASE NEW [--pairs 10] [--offsets 0 16 32 48]

BASE and NEW are the roots of two checkouts.  Each pair runs one fresh
interpreter per checkout, importing adradar from that checkout's ``src/``;
odd pairs run NEW first.  In each interpreter the correlator runs on a
3374-sample frame and on a flattened 16 x 768 map block, each copied into a
buffer that starts ``--offsets`` bytes past a 64-byte line, so the input's
place in the line, not the heap's, is what varies.  The shapes and offsets
are timed in interleaved rounds, and each gives the median over rounds of
the mean time of a batch of calls.  The script prints, per shape, each
pair's time (median over offsets), the number of pairs NEW ran faster, each
checkout's median and, per checkout, the spread of the per-offset medians
across offsets.  It exits 1 unless both checkouts return the same bytes at
every shape and offset.  Ten pairs take about 20 s; like
``run_sweep_timing.py``, it times the host, so it is not part of the test
suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SHAPES = {"frame": 3374, "block": 16 * 768}
ROUNDS, BATCH = 15, 40  # per shape and offset: 15 timed batches of 40 calls

# Runs in a fresh interpreter: argv is rounds, batch, the shapes as JSON and
# the byte offsets.  Prints {shape: {offset: [median us per call, sha256 of
# the output]}}.
RUNNER = """\
import hashlib, json, statistics, sys, time
import numpy as np
from adradar.sequences import build_preamble, correlation_profile, correlation_segment
rounds, batch, shapes = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
offsets = [int(o) for o in sys.argv[4:]]
s_c = correlation_segment(build_preamble())
rng = np.random.default_rng(2024)
cases, times = {}, {}
for name, n in shapes.items():
    x = rng.standard_normal(2 * n)
    for off in offsets:
        raw = np.empty(16 * n + 128, np.uint8)
        start = -raw.ctypes.data % 64 + off
        window = raw[start:start + 16 * n].view(np.complex128)
        window.view(np.float64)[:] = x
        digest = hashlib.sha256(correlation_profile(s_c, window).tobytes()).hexdigest()
        cases[name, off], times[name, off] = (window, digest), []
for _ in range(rounds):
    for key, (window, _) in cases.items():
        t0 = time.perf_counter()
        for _ in range(batch):
            correlation_profile(s_c, window)
        times[key].append((time.perf_counter() - t0) / batch * 1e6)
out = {}
for (name, off), (_, digest) in cases.items():
    out.setdefault(name, {})[off] = [statistics.median(times[name, off]), digest]
print(json.dumps(out))
"""


def run_once(checkout: Path, offsets) -> dict:
    """{shape: {offset: (median us per call, output digest)}} of one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(ROUNDS), str(BATCH),
                           json.dumps(SHAPES), *map(str, offsets)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--offsets", type=int, nargs="+", default=[0, 16, 32, 48])
    args = parser.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "new": args.new.resolve()}
    runs = {"base": [], "new": []}
    for i in range(args.pairs):
        order = list(checkouts.items())
        for label, checkout in order if i % 2 == 0 else order[::-1]:
            runs[label].append(run_once(checkout, args.offsets))
    same = True
    for name in SHAPES:
        def per_run(label):
            return [statistics.median(t for t, _ in run[name].values())
                    for run in runs[label]]
        base, new = per_run("base"), per_run("new")
        for i, (b, n) in enumerate(zip(base, new)):
            print(f"{name} pair {i + 1}: base {b:.1f} us, new {n:.1f} us ({b / n:.3f}x)")
        wins = sum(n < b for b, n in zip(base, new))
        print(f"{name} ({SHAPES[name]} samples): new faster in {wins} of {args.pairs} "
              f"pairs; median base {statistics.median(base):.1f} us, "
              f"new {statistics.median(new):.1f} us")
        for label, rs in runs.items():
            by_offset = {off: statistics.median(run[name][str(off)][0] for run in rs)
                         for off in args.offsets}
            cells = ", ".join(f"+{off} B {t:.1f}" for off, t in by_offset.items())
            spread = max(by_offset.values()) - min(by_offset.values())
            print(f"  {label}: {cells} us; spread across offsets {spread:.1f} us")
        digests = {run[name][str(off)][1] for rs in runs.values() for run in rs
                   for off in args.offsets}
        same &= len(digests) == 1
        print(f"  outputs {'byte-identical' if len(digests) == 1 else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
