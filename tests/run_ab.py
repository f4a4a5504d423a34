"""Compare two checkouts target by target in alternating fresh processes.

    python tests/run_ab.py BASE NEW TARGET... [--pairs 10] [--workers 1 2]

BASE and NEW are the roots of two checkouts.  Each pair runs every target once
in each checkout, each run in a fresh interpreter on that checkout's ``src/``,
BASE first in odd pairs and NEW first in even ones.  ``sweep-cpi`` (``--trials
20``) and ``sweep-framegap`` (``--trials 200 --cpi 6e-4 --p-tx-dbm 10``) run
the CLI at each ``--workers`` count (``ADRADAR_WORKERS``): wall time and the
peak RSS of the main process and of its largest worker.  ``correlator`` times
``correlation_profile`` on a 3374-sample frame and on a flattened 16 x 768 map
block, the input copied 0, 16, 32 and 48 bytes past a 64-byte line: us per call
at each offset, their median and their spread.  Each ``BENCHMARK.json``
workload runs the checkout's own ``perfbench/run.py --trace 0`` for the
benchmark's run length, pair i at seed i.

Per metric it prints each side's median and quartiles, each pair's ratio
(above 1: NEW better), each side's wins (ties count for neither), an
order-statistic interval for the median ratio (r(2) to r(9) at 10 pairs,
97.9%) and a verdict: ``gain`` if NEW wins 9 in 10 of at least 10 pairs and
the medians differ by more than BASE's interquartile range; ``worse`` if NEW's
median is worse by more than the bound (``BENCHMARK.json``'s, or for other
times ``point_s_p50``'s and for memory ``peak_rss_mb``'s); ``unresolved`` if
a side's interquartile range over its median exceeds the bound and some NEW
run does not beat every BASE run; else ``no worse``.  It exits 1 when two
outputs differ or a benchmark run is not ``correct``.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SWEEPS = {"sweep-cpi": ["sweep-cpi", "--trials", "20"],
          "sweep-framegap": ["sweep-framegap", "--trials", "200", "--cpi", "6e-4",
                             "--p-tx-dbm", "10"]}

# Runs one CLI command and prints the peak RSS of this process and of its
# largest waited-for child.
SWEEP_RUNNER = """\
import json, resource, sys
from adradar.cli import run_cli
if run_cli(sys.argv[1:]):
    sys.exit("the CLI run failed")
kib = [resource.getrusage(who).ru_maxrss
       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
print(json.dumps({"main_rss_mb": kib[0] / 1024, "workers_rss_mb": kib[1] / 1024}))
"""

# Times the correlator in 15 interleaved rounds of a 40-call batch per shape
# and offset; prints [{metric: us}, [output sha256 per shape and offset]].
CORRELATOR_RUNNER = """\
import hashlib, json, statistics, time
import numpy as np
from adradar.sequences import build_preamble, correlation_profile, correlation_segment
shapes, offsets = {"frame": 3374, "block": 16 * 768}, (0, 16, 32, 48)
s_c = correlation_segment(build_preamble())
rng, cases, times = np.random.default_rng(2024), {}, {}
for name, n in shapes.items():
    x = rng.standard_normal(2 * n)
    for off in offsets:
        raw = np.empty(16 * n + 128, np.uint8)
        start = -raw.ctypes.data % 64 + off
        window = raw[start:start + 16 * n].view(np.complex128)
        window.view(np.float64)[:] = x
        cases[name, off], times[name, off] = window, []
for _ in range(15):
    for key, window in cases.items():
        t0 = time.perf_counter()
        for _ in range(40):
            correlation_profile(s_c, window)
        times[key].append((time.perf_counter() - t0) / 40 * 1e6)
values = {}
for name in shapes:
    us = [statistics.median(times[name, off]) for off in offsets]
    values.update({f"{name}_us": statistics.median(us),
                   f"{name}_offset_spread_us": max(us) - min(us),
                   **{f"{name}+{off}B_us": t for off, t in zip(offsets, us)}})
print(json.dumps([values, [hashlib.sha256(correlation_profile(s_c, w).tobytes()).hexdigest()
                           for w in cases.values()]]))
"""


def median_interval(ratios, level=0.95):
    """(r(k), r(n+1-k), coverage) for the largest k whose order-statistic
    interval covers the median with at least ``level``; None if k = 1 does not."""
    n, r, found = len(ratios), sorted(ratios), None
    for k in range(1, n // 2 + 1):
        coverage = 1 - 2 * sum(math.comb(n, j) for j in range(k)) / 2 ** n
        if coverage < level:
            break
        found = (r[k - 1], r[n - k], coverage)
    return found


def ratio(base, new, better):
    """NEW's value over BASE's, inverted for a lower-is-better metric."""
    num, den = (new, base) if better == "higher" else (base, new)
    return 1.0 if base == new else num / den if den else math.inf


def judge(base, new, better, bound):
    """The paired statistics and verdict of one metric's BASE and NEW runs."""
    sign = 1 if better == "higher" else -1
    ratios = [ratio(b, n, better) for b, n in zip(base, new)]
    qb, qn = (statistics.quantiles(v, n=4, method="inclusive") for v in (base, new))
    gap = sign * (qn[1] - qb[1])
    wins, losses = sum(r > 1 for r in ratios), sum(r < 1 for r in ratios)
    too_wide = any(q[2] - q[0] > bound * abs(q[1]) for q in (qb, qn))
    if len(ratios) >= 10 and wins >= 0.9 * len(ratios) and gap > qb[2] - qb[0]:
        verdict = "gain"
    elif -gap > bound * abs(qb[1]):
        verdict = "worse"
    elif too_wide and min(sign * v for v in new) <= max(sign * v for v in base):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"base": qb, "new": qn, "ratios": ratios, "wins": wins, "losses": losses,
            "interval": median_interval(ratios), "verdict": verdict}


def fresh(checkout, argv, **env):
    """Wall time and the last stdout line, as JSON, of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **env)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {argv[0]} exited {proc.returncode}:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def run(checkout, target, workers, pair, tmp, seconds):
    """({metric: value}, output digest or None, run correct) of one run."""
    if target in SWEEPS:
        out = Path(tmp) / "out.csv"
        wall, rss = fresh(checkout, ["-c", SWEEP_RUNNER, *SWEEPS[target], "--output",
                                     str(out)], ADRADAR_WORKERS=str(workers))
        return dict(wall_s=wall, **rss), hashlib.sha256(out.read_bytes()).hexdigest(), True
    if target == "correlator":
        _, (values, digests) = fresh(checkout, ["-c", CORRELATOR_RUNNER],
                                     OPENBLAS_NUM_THREADS="1")
        return values, " ".join(digests), True
    _, res = fresh(checkout, [str(checkout / "perfbench" / "run.py"), "--workload", target,
                              "--seed", str(pair + 1), "--seconds", str(seconds),
                              "--trace", "0"])
    return {k: m["value"] for k, m in res["metrics"].items()}, None, res["correct"]


def report(case, runs, metrics):
    """Print one case by ``metrics``' bounds; True if outputs agree and runs were correct."""
    print(f"\n== {case}")
    for metric in runs["base"][0][0]:
        spec = metrics.get(metric) or metrics[
            "peak_rss_mb" if metric.endswith("rss_mb") else "point_s_p50"]
        base, new = ([r[0][metric] for r in runs[side]] for side in ("base", "new"))
        s = judge(base, new, spec["better"], spec["bound"])
        interval = ("none at 95% for this many pairs" if s["interval"] is None else
                    "{:.4g} to {:.4g} ({:.1%})".format(*s["interval"]))
        print(f"{metric}: {s['verdict']} ({spec['better']} is better, bound "
              f"{spec['bound']:.0%})\n  base median {s['base'][1]:.6g} quartiles "
              f"{s['base'][0]:.6g} {s['base'][2]:.6g}; new median {s['new'][1]:.6g} "
              f"quartiles {s['new'][0]:.6g} {s['new'][2]:.6g}\n  ratios "
              + " ".join(f"{r:.3f}" for r in s["ratios"])
              + f"\n  NEW won {s['wins']}, BASE {s['losses']} of {len(base)} pairs; "
              f"median ratio {statistics.median(s['ratios']):.4g}, interval {interval}")
    same = len({r[1] for side in runs.values() for r in side}) == 1
    correct = all(r[2] for side in runs.values() for r in side)
    print(f"outputs {'identical' if same else 'DIFFER'}; "
          f"{'every run correct' if correct else 'a run was NOT correct'}")
    return same and correct


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("targets", nargs="+", metavar="TARGET", choices=[
        *SWEEPS, "correlator", *(w["name"] for w in spec["workloads"])])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    if args.pairs < 2 or min(args.workers) < 1:
        parser.error("--pairs must be at least 2 and --workers at least 1")
    sides = [("base", args.base.resolve()), ("new", args.new.resolve())]
    cases = {f"{t} workers={w}" if w else t: (t, w) for t in args.targets
             for w in (args.workers if t in SWEEPS else [None])}
    runs = {case: {"base": [], "new": []} for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            for case, target in cases.items():
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    runs[case][side].append(run(checkout, *target, pair, tmp, spec["run_seconds"]))
                print(f"pair {pair + 1} of {args.pairs}: {case} done", flush=True)
    return 0 if all([report(case, r, metrics) for case, r in runs.items()]) else 1


if __name__ == "__main__":
    sys.exit(main())
