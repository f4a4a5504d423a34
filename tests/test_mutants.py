"""The mutant list that ``run_mutants.py`` applies still fits the code.

Every mutant's old text occurs exactly once in its file, and each killer
names a test function that exists.  Running the mutants takes minutes, so
the runner itself stays out of this suite:

    python tests/run_mutants.py
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutant_applies_once_and_names_existing_killers(mutant):
    assert mutant["file"].startswith("src/adradar/")
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1 and mutant["new"] != mutant["old"]
    assert mutant["killers"] or mutant["survives"]
    for killer in mutant["killers"]:
        path, name = killer.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M)


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))
