"""Layered Monte Carlo benchmark for adradar.

    python3 perfbench/run.py --workload framegap-proposed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                # every workload in turn
    python3 perfbench/run.py --write-reference

Run it from the root of a checkout; it imports adradar from ``src/`` there.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced single-worker run.  The output of a workload
ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  Results, with machine info, and traced spans go to
``perfbench/out/``.  ``--write-reference`` regenerates the stored reference
CSVs; do that only when a change is meant to alter results, and say so.
See README.md in this directory.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads.  Two harness
# workers each running a multi-threaded BLAS oversubscribe a small machine,
# and the figures then measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
PROBE_EVERY_S = 3.0   # one cold set-up probe per this much measured time


def setup_probes(bench, count, traced=False):
    """``count`` cold set-ups, each in a fresh interpreter, as parsed JSON.

    ``setup_s`` is scaled to the reference speed by the calibration kernel
    run just before and just after the probe; ``raw_setup_s`` is as timed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--trace"] if traced else [])
    results = []
    for _ in range(count):
        before = bench.calibrate()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        after = bench.calibrate()
        out = json.loads(proc.stdout.splitlines()[-1])
        if not out["adradar_file"].startswith(str(SRC)):
            raise RuntimeError(f"set-up probe imported {out['adradar_file']}")
        out["raw_setup_s"] = out["setup_s"]
        out["setup_s"] *= bench.CALIB_REF_S / statistics.fmean((before, after))
        results.append(out)
    return results


def print_metric(name, value, unit, note=""):
    print(f"{name:45s} {value:14.6g} {unit:10s} {note}")


def end_to_end(bench, name, seed, seconds):
    workload = bench.WORKLOADS[name]
    probes, rss_first_pass = [], []

    def between_passes(phase):
        # Set-up probes are spread over the run, so that set-up time samples
        # the machine as often as the passes do.  Peak RSS is read before the
        # first probe, so that it covers this process only; every pass does
        # the same work.
        if not rss_first_pass:
            rss_first_pass.append(bench.peak_rss_mb())
            setup_probes(bench, 1)  # untimed: the first start after byte-compiling
        measured = sum(p.wall_s for p in phase.passes)
        probes.extend(setup_probes(bench, 1 + int(measured / PROBE_EVERY_S) - len(probes)))

    phase = bench.measure(workload, seed, seconds, 1, between_passes)
    rss = max(rss_first_pass[0], bench.peak_rss_mb(children=False))
    values = {
        "trials_per_s": (phase.trials_per_s(),
                         f"over {len(phase.passes)} passes; raw "
                         f"{phase.trials_per_s(raw=True):.4g}"),
        "point_s_p50": (phase.point_s_p50(),
                        f"{len(workload.points())} points x {len(phase.passes)} "
                        f"passes; raw {phase.point_s_p50(raw=True):.4g}"),
        "ok_trial_frac": (bench.ok_trial_frac(phase.passes[0].csv),
                          "successful estimator runs / attempted"),
        "peak_rss_mb": (rss, "benchmark process, 1 worker"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes),
                    f"median of {len(probes)} fresh interpreters; raw "
                    f"{statistics.median(p['raw_setup_s'] for p in probes):.4g}"),
    }
    metrics = {key: (value, bench.END_TO_END[key], note)
               for key, (value, note) in values.items()}
    return [phase], metrics, []


def per_layer(bench, name, seed, seconds):
    workload = bench.WORKLOADS[name]
    pool = bench.POOL_WORKERS
    # The phases share the run's measuring time.
    share = seconds / (3 if pool > 1 else 2)
    untraced_w1 = bench.measure(workload, seed, share, 1)
    phases = [untraced_w1]
    untraced = untraced_w1
    if pool > 1:
        untraced = bench.measure(workload, seed, share, pool)
        phases.append(untraced)
    traced = bench.measure(workload, seed, share, 1, traced=True)
    phases.append(traced)
    problems = bench.check_trace(traced, untraced)
    probes = setup_probes(bench, 3, traced=True)
    values = bench.layer_metrics(
        traced, untraced_w1, untraced,
        beam_calls=statistics.median(p["design_wide_beam_calls"] for p in probes),
        beam_self_s=statistics.median(p["design_wide_beam_self_s"] for p in probes))
    metrics = {key: (values[key], unit, "") for key, unit in bench.PER_LAYER.items()}
    OUT_DIR.mkdir(exist_ok=True)
    traced.tracer.write_jsonl(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return phases, metrics, problems


def write_reference(bench):
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in bench.WORKLOADS.items():
        for seed in bench.REFERENCE_SEEDS:
            path = bench.reference_path(name, seed)
            path.write_text(bench.reference_csv(workload, seed, 1), encoding="utf-8")
            print(f"wrote {path}")


def run_workload(bench, name, seed, seconds, trace):
    """Measure and check one workload; print its metrics and the JSON result."""
    workload = bench.WORKLOADS[name]
    measure = per_layer if trace else end_to_end
    phases, metrics, problems = measure(bench, name, seed, seconds)
    problems += bench.check_references(name, workload, 1)
    for phase in phases:
        if not phase.deterministic():
            problems.append(f"passes at {phase.workers} worker(s) disagree")
        if phase.failed_points:
            problems.append(f"{phase.failed_points} sweep points raised")
    info = bench.machine_info(max(phase.workers for phase in phases), seed)

    print(f"workload {name}: {workload.why}")
    print(f"machine {json.dumps(info)}")
    for key, (value, unit, note) in metrics.items():
        print_metric(key, value, unit, note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output check: {'passed' if not problems else 'FAILED'} "
          f"(references for seeds {bench.REFERENCE_SEEDS}, pass determinism"
          f"{', traced = untraced' if trace else ''})")

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted_points for p in phases),
        "failed": sum(p.failed_points for p in phases),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=name, machine=info, problems=problems,
                  seconds=seconds, trace=trace)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "adradar" / "__init__.py").is_file():
        print(f"perfbench: no adradar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.write_reference:
        write_reference(bench)
        return 0
    if args.workload is not None and args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for name in [args.workload] if args.workload else bench.WORKLOADS:
        run_workload(bench, name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
