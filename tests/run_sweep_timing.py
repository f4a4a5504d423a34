"""Time the CLI sweeps of two checkouts in alternating fresh processes.

    python tests/run_sweep_timing.py BASE NEW [--pairs 10] [--workers 1 2]

BASE and NEW are the roots of two checkouts.  For each worker count
(``ADRADAR_WORKERS``) and each sweep below, the script runs the CLI of one
checkout and then of the other, each in a fresh interpreter that imports
adradar from that checkout's ``src/``, ``--pairs`` times; odd pairs run NEW
first.  It prints each pair's wall times, the number of pairs NEW ran faster,
the medians, and the median peak RSS of the main process and of its largest
worker, and exits 1 unless every run of both checkouts wrote the same CSV
bytes.  Like ``run_mutants.py`` it takes minutes, so it is not part of the
test suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWEEPS = {
    "sweep-cpi": ["sweep-cpi", "--trials", "20"],
    "sweep-framegap": ["sweep-framegap", "--trials", "200", "--cpi", "6e-4",
                       "--p-tx-dbm", "10"],
}

# Runs one CLI command in process and prints its exit code and the peak RSS,
# in KiB, of this process and of its largest waited-for child.
RUNNER = """\
import json, resource, sys
from adradar.cli import run_cli
code = run_cli(sys.argv[1:])
print(json.dumps({"code": code,
                  "main_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "workers_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


def run_once(checkout: Path, argv, workers: int, out: Path) -> dict:
    """Wall time, peak RSS and CSV bytes of one fresh CLI run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), ADRADAR_WORKERS=str(workers))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RUNNER, *argv, "--output", str(out)],
                          env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {result['code']}: "
                           f"{proc.stderr}")
    return dict(result, wall_s=wall, csv=out.read_bytes())


def compare(base: Path, new: Path, name: str, workers: int, pairs: int) -> bool:
    """Print the pairs and summary of one sweep at one worker count; True if
    every CSV matched."""
    runs = {"base": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            order = [("base", base), ("new", new)]
            for label, checkout in order if i % 2 == 0 else order[::-1]:
                runs[label].append(run_once(checkout, SWEEPS[name], workers,
                                            Path(tmp) / f"{label}.csv"))
            b, n = runs["base"][-1]["wall_s"], runs["new"][-1]["wall_s"]
            print(f"{name} workers={workers} pair {i + 1}: base {b:.3f} s, new {n:.3f} s "
                  f"({b / n:.3f}x)", flush=True)
    wins = sum(n["wall_s"] < b["wall_s"] for b, n in zip(runs["base"], runs["new"]))
    print(f"{name} workers={workers}: new faster in {wins} of {pairs} pairs")
    for label, rs in runs.items():
        def median(key):
            return statistics.median(r[key] for r in rs)
        print(f"  {label}: median {median('wall_s'):.3f} s, peak RSS main "
              f"{median('main_kib') / 1024:.1f} MiB, workers {median('workers_kib') / 1024:.1f} MiB")
    same = len({r["csv"] for rs in runs.values() for r in rs}) == 1
    print(f"  CSVs {'byte-identical' if same else 'DIFFER'}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    ok = True
    for workers in args.workers:
        for name in SWEEPS:
            ok &= compare(args.base.resolve(), args.new.resolve(), name, workers, args.pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
