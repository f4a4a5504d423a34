"""The CLI's result CSVs for fixed seeds match the committed golden files.

Text and integer columns must match exactly; ``nmse``, ``ci_lo`` and
``ci_hi`` may differ by 1e-9 relative, the tolerance perfbench's output
check uses.  A change that is meant to alter these numbers regenerates the
files with the commands below and says why in CHANGES.md.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from adradar.cli import run_cli

DATA = Path(__file__).resolve().parent / "data"
FLOAT_COLUMNS = ("nmse", "ci_lo", "ci_hi")
REL_TOL = 1e-9

GOLDEN = {
    "simulate.csv": ["simulate", "--cpi", "2e-4", "--trials", "6", "--seed", "7",
                     "--estimator", "both"],
    "sweep_framegap.csv": ["sweep-framegap", "--cpi", "6e-4", "--p-tx-dbm", "10",
                           "--trials", "4", "--gaps", "1", "2", "3"],
}


def rows(text):
    reader = csv.DictReader(io.StringIO(text))
    return reader.fieldnames, list(reader)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_csv_matches_the_golden_file(name, tmp_path):
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
