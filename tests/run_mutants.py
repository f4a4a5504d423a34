"""Apply each mutant of ``data/mutants.json`` to a copy of the package and
report whether the tests kill it.

    python tests/run_mutants.py [NAME ...]

For each mutant (every one, or those named), the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a new temporary directory, replaces the
mutant's ``old`` text, which must occur exactly once in its file, with its
``new`` text, and runs the mutant's killer tests there.  A mutant they do not
kill goes through the whole tier-1 suite, and is killed if a test fails that
passes on an unmutated copy; the unmutated copy runs tier-1 once, the first
time a survivor needs it.  The script prints one line per mutant and exits 1
if a mutant survives that the list does not name as a survivor with a reason,
or if the list itself is wrong (an ``old`` text not found once, no killer
test collected).

Each mutant is a JSON object: ``name``, ``file`` (from the repository root),
``old``, ``new``, ``killers`` (pytest node IDs) and, for a known survivor,
``survives`` (why no test can read it).  The idea is R. A. DeMillo, R. J.
Lipton and F. G. Sayward, IEEE Computer 11(4), 1978.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "data" / "mutants.json"


def load_mutants() -> list:
    with open(MUTANTS, encoding="utf-8") as f:
        return json.load(f)


def mutated_copy(dest: Path, mutant=None) -> None:
    """``src/``, ``tests/`` and ``pyproject.toml`` under ``dest``, with
    ``mutant`` applied; ValueError unless its old text occurs once."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    if mutant is not None:
        path = dest / mutant["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            raise ValueError(f"old text occurs {text.count(mutant['old'])} times "
                             f"in {mutant['file']}")
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run_pytest(cwd: Path, args) -> tuple:
    """pytest's exit code and the node IDs it reports failed or in error."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-rfE", *args], cwd=cwd, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def tier1_failures(mutant=None) -> set:
    """Tier-1's failures on a copy, less ``test_mutants.py``, which fails on
    every mutated copy because the mutant's old text is gone."""
    with tempfile.TemporaryDirectory() as tmp:
        mutated_copy(Path(tmp), mutant)
        return run_pytest(Path(tmp), ["--continue-on-collection-errors",
                                      "--ignore=tests/test_mutants.py"])[1]


def main(names) -> int:
    mutants = [m for m in load_mutants() if not names or m["name"] in names]
    baseline, bad, start = None, 0, time.perf_counter()
    for mutant in mutants:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                mutated_copy(Path(tmp), mutant)
            except ValueError as exc:
                print(f"{mutant['name']}: LIST ERROR: {exc}")
                bad += 1
                continue
            code, _ = run_pytest(Path(tmp), mutant["killers"]) if mutant["killers"] else (0, ())
        if code in (1, 2):  # a test failed, or the mutant broke collection
            verdict = "killed by its killers"
        elif code != 0:
            verdict, bad = f"LIST ERROR: pytest exit code {code} on its killers", bad + 1
        else:
            if baseline is None:
                baseline = tier1_failures()
            new = sorted(tier1_failures(mutant) - baseline)
            if new:
                verdict = f"killed by tier-1: {' '.join(new)}"
            elif "survives" in mutant:
                verdict = f"survived, as listed: {mutant['survives']}"
            else:
                verdict, bad = "SURVIVED", bad + 1
        print(f"{mutant['name']}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(mutants)} mutants, {bad} unlisted survivors or list errors, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
