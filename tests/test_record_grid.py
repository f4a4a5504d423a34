"""Every trial record of a fixed grid of experiments matches the committed file.

The grid crosses both gain modes, three CPIs, three TX powers and two frame
gaps, six trials each with both estimators: 216 records, 199 of whose 432
estimator runs fail, so it reaches the failure paths that the golden CSVs
do not.  Each line of ``data/record_grid.jsonl`` holds one record and the
grid point it came from, floats by ``repr``.  A change that is meant to alter
records regenerates the file with

    PYTHONPATH=src python tests/test_record_grid.py

and shows the diff in CHANGES.md.
"""

import dataclasses
import itertools
import json
from pathlib import Path

from adradar.harness import ExperimentConfig, run_experiment
from adradar.scene import Scenario

GRID_FILE = Path(__file__).resolve().parent / "data" / "record_grid.jsonl"
BETA_MODES = ("fixed", "rayleigh")
CPIS_S = (1e-4, 5e-4, 1e-3)
POWERS_DBM = (-5.0, 10.0, 20.0)
M_I_OFFSETS = (1, 5)


def grid_lines():
    """One JSON line per record of the grid, in loop order."""
    for beta_mode, cpi, p_tx, offset in itertools.product(
            BETA_MODES, CPIS_S, POWERS_DBM, M_I_OFFSETS):
        exp = ExperimentConfig(cpi_s=cpi, p_tx_dbm=p_tx, m_i_offset=offset,
                               trials=6, estimators="both", seed=3)
        for record in run_experiment(Scenario(beta_mode=beta_mode), exp):
            yield json.dumps({"beta_mode": beta_mode, "cpi_s": cpi, "p_tx_dbm": p_tx,
                              "m_i_offset": offset,
                              "record": dataclasses.asdict(record)}, sort_keys=True)


def test_every_record_matches_the_committed_grid():
    want = GRID_FILE.read_text(encoding="utf-8").splitlines()
    got = list(grid_lines())
    assert len(got) == len(want)
    changed = [json.loads(w) for g, w in zip(got, want) if g != w]
    assert not changed, "changed records: " + "; ".join(
        f"{c['beta_mode']} cpi={c['cpi_s']} p_tx={c['p_tx_dbm']} "
        f"offset={c['m_i_offset']} trial={c['record']['trial']}" for c in changed)


if __name__ == "__main__":
    GRID_FILE.write_text("".join(line + "\n" for line in grid_lines()), encoding="utf-8")
