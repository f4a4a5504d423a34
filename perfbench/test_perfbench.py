"""Tests of the benchmark itself: tracing changes no result, self times add up.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from adradar.harness import CSV_HEADER  # noqa: E402
from tracer import END, START, Tracer, self_times, summarize  # noqa: E402

# Small sweeps touching every traced layer: the proposed pipeline, and the
# baseline map next to it.
TINY = {
    "proposed": bench.Workload(why="test", sweep="framegap", xs=(1, 6),
                               powers=(10.0,), trials=2, cpi_s=6e-4),
    "both": bench.Workload(why="test", sweep="cpi", xs=(2e-4,), powers=(20.0,),
                           trials=2, estimators="both"),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def phases(request):
    workload = TINY[request.param]
    untraced = bench.measure(workload, seed=5, seconds=1e-3, workers=1)
    traced = bench.measure(workload, seed=5, seconds=1e-3, workers=1, traced=True)
    return untraced, traced


def test_traced_run_gives_the_untraced_csv(phases):
    untraced, traced = phases
    assert traced.passes[0].csv == untraced.passes[0].csv
    assert bench.check_trace(traced, untraced) == []


def test_self_times_are_nonnegative_and_within_wall(phases):
    _, traced = phases
    own = self_times(traced.tracer.spans)
    assert min(own) >= 0.0
    assert sum(own) <= traced.wall_s


def test_wrappers_are_removed_after_the_run(phases):
    import adradar.harness
    from adradar.echo import synthesize_frame
    assert adradar.harness.synthesize_frame is synthesize_frame


def test_every_per_layer_metric_is_reported(phases):
    untraced, traced = phases
    values = bench.layer_metrics(traced, untraced, untraced, 1, 0.05)
    assert values.keys() == bench.PER_LAYER.keys()
    assert values["sequences.build_preamble.calls"] == 1.0
    assert values["sequences.correlation_profile.macs"] > 0


def test_timing_metrics_use_the_scaled_times():
    passes = [bench.Pass(wall_s=3.0, trials=20, raw_point_s=[1.0, 2.0],
                         point_s=[0.5, 1.0], csv=""),
              bench.Pass(wall_s=3.0, trials=20, raw_point_s=[1.0, 2.0],
                         point_s=[1.5, 1.0], csv="")]
    phase = bench.Phase(workers=1, passes=passes)
    assert phase.trials_per_s() == pytest.approx(40 / 4.0)
    assert phase.trials_per_s(raw=True) == pytest.approx(40 / 6.0)
    assert phase.point_s_p50() == pytest.approx(1.0)
    assert phase.point_s_p50(raw=True) == pytest.approx(1.5)


def test_calibration_kernel_is_fixed_work():
    assert bench._calibration_kernel() == bench._calibration_kernel()
    assert bench.calibrate() > 0.0


def test_self_time_excludes_children_and_errors_are_counted():
    tracer = Tracer()

    def failing():
        raise ValueError("x")

    def outer():
        tracer.call("inner", sum, range(10))
        with pytest.raises(ValueError):
            tracer.call("inner", failing)
        return 1

    assert tracer.call("outer", outer) == 1
    spans = tracer.spans
    own = self_times(spans)
    children = sum(s[END] - s[START] for s in spans[1:])
    assert own[0] == pytest.approx(spans[0][END] - spans[0][START] - children)
    summary = summarize(spans)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["errors"] == {"ValueError": 1}


def test_compare_csv_tolerance():
    header = ",".join(CSV_HEADER)
    want = header + "\n1,proposed,10,2.5e-07,1.9e-07,3.4e-07,20,0\n"
    close = header + "\n1,proposed,10,2.5000000001e-07,1.9e-07,3.4e-07,20,0\n"
    far = header + "\n1,proposed,10,2.5001e-07,1.9e-07,3.4e-07,20,0\n"
    count = header + "\n1,proposed,10,2.5e-07,1.9e-07,3.4e-07,19,1\n"
    assert bench.compare_csv(want, want) == []
    assert bench.compare_csv(close, want) == []
    assert bench.compare_csv(far, want) != []
    assert bench.compare_csv(count, want) != []


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "framegap-proposed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
