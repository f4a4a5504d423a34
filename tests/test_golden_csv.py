"""The CLI's outputs for fixed seeds match the committed golden files.

For the result CSVs, text and integer columns must match exactly; ``nmse``,
``ci_lo`` and ``ci_hi`` may differ by 1e-9 relative, the tolerance
perfbench's output check uses.  The beam-pattern CSV must give the same
angles and each ``gain_db`` within 1e-6 dB, one unit of its last printed
digit; the selftest report must match exactly.  A change that is meant to
alter these outputs regenerates the files with the commands below and says
why in CHANGES.md.  The benchmark's stored reference CSVs are checked here
too, with the benchmark's own comparison.
"""

import csv
import importlib
import io
import math
from decimal import Decimal
from pathlib import Path

import pytest

from adradar.cli import run_cli

DATA = Path(__file__).resolve().parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FLOAT_COLUMNS = ("nmse", "ci_lo", "ci_hi")
REL_TOL = 1e-9
GAIN_DB_TOL = Decimal("1e-6")

GOLDEN = {
    "simulate.csv": ["simulate", "--cpi", "2e-4", "--trials", "6", "--seed", "7",
                     "--estimator", "both"],
    "sweep_framegap.csv": ["sweep-framegap", "--cpi", "6e-4", "--p-tx-dbm", "10",
                           "--trials", "4", "--gaps", "1", "2", "3"],
    "sweep_cpi.csv": ["sweep-cpi", "--trials", "2", "--cpis", "2e-4", "1e-3",
                      "--p-tx-grid", "20"],
}
BEAM_PATTERN = ["beam-pattern", "--resolution", "0.01"]  # beam_pattern.csv
SELFTEST = ["selftest"]                                   # stdout: selftest.txt


def rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames, list(reader)


@pytest.mark.parametrize("name, workers", [
    pytest.param(name, workers, id=name if workers == "1" else f"{name}-2-workers")
    for workers in ("1", "2") for name in sorted(GOLDEN)])
def test_cli_csv_matches_the_golden_file(name, workers, tmp_path, monkeypatch):
    # Two workers send the shared fixed-gain scene across the process pool.
    monkeypatch.setenv("ADRADAR_WORKERS", workers)
    out = tmp_path / name
    assert run_cli(GOLDEN[name] + ["--output", str(out)]) == 0
    got_header, got = rows(out.read_text(encoding="utf-8"))
    want_header, want = rows((DATA / name).read_text(encoding="utf-8"))
    assert got_header == want_header
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for key in want_header:
            if key in FLOAT_COLUMNS:
                assert math.isclose(float(g[key]), float(w[key]),
                                    rel_tol=REL_TOL, abs_tol=0.0), (i, key)
            else:
                assert g[key] == w[key], (i, key)


def test_beam_pattern_matches_the_golden_file(tmp_path):
    out = tmp_path / "beam_pattern.csv"
    assert run_cli(BEAM_PATTERN + ["--output", str(out)]) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    want = (DATA / "beam_pattern.csv").read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got[1:], want[1:])):
        g_angle, g_db = g.split(",")
        w_angle, w_db = w.split(",")
        assert g_angle == w_angle, i
        assert abs(Decimal(g_db) - Decimal(w_db)) <= GAIN_DB_TOL, i


def test_selftest_report_matches_the_golden_file(capsys):
    assert run_cli(SELFTEST) == 0
    want = (DATA / "selftest.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("workload, workers", [
    pytest.param(name, workers, id=name if workers == 1 else f"{name}-2-workers")
    for workers in (1, 2) for name in ("framegap-proposed", "baseline-cpi1ms")])
def test_benchmark_outputs_match_its_references(workload, workers, monkeypatch):
    # The benchmark's own output check, run read-only: a change to these
    # outputs fails here before the benchmark reports it.  reference_csv
    # sets ADRADAR_WORKERS; monkeypatch restores it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("ADRADAR_WORKERS", "1")
    bench = importlib.import_module("bench")
    assert bench.check_references(workload, bench.WORKLOADS[workload], workers) == []
