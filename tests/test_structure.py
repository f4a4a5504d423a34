"""Module boundaries of the package: no module reaches into a sibling's privates,
importing the package does not load scipy (a test-only dependency), a
single-worker run loads no process pool, no scan cut outlives the beam
design, every function the benchmark's tracer wraps is still where the
tracer looks it up, the harness reaches the baseline only through its entry
points and builds each point's pipeline configuration once, only synthesis
takes a CPI's gains, no module of the package, the tests or the demos
imports a name it never uses, and every module of the package parses as the
oldest Python that pyproject.toml allows.

A ``_``-prefixed name is private to the module that defines it.  The scan
flags ``from .sibling import _name`` (relative or absolute) and
``sibling._name`` attribute access through an imported sibling module.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adradar"
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
DEMO_MODULES = sorted((PACKAGE.parent.parent / "demos").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "adradar"


def private_imports(source: str):
    """(line, text) of every sibling-private name ``source`` imports or reaches."""
    tree = ast.parse(source)
    found, sibling_modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sibling(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
                elif node.module is None or node.module == "adradar":
                    sibling_modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("adradar.") and alias.asname:
                    sibling_modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in sibling_modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_scan_sees_the_package():
    assert {p.stem for p in MODULES} >= {"cli", "harness", "scene", "selftest"}
    assert {p.stem for p in DEMO_MODULES} >= {"demo_delay_doppler_baseline",
                                              "demo_nmse_sweeps"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_sibling_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_each_form():
    source = ("from .scene import _designed_beam\n"
              "from adradar.phasedarray import _gain_cut\n"
              "from . import harness\n"
              "import adradar.echo as echo\n"
              "harness._point_rows()\n"
              "echo._DUMP_MAGIC\n"
              "from .scene import Scenario\n"
              "def _local():\n"
              "    return _local\n")
    assert [text for _, text in private_imports(source)] == [
        "import _designed_beam", "import _gain_cut", "harness._point_rows",
        "echo._DUMP_MAGIC"]


def run_fresh(source: str, **env):
    """Run ``source`` in a fresh interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), **env)
    subprocess.run([sys.executable, "-c", source], env=env, check=True, timeout=60)


def test_importing_the_package_does_not_load_scipy():
    run_fresh("import sys, adradar; assert 'scipy' not in sys.modules")


# Every trial draws its noise, so numpy.random loads with the package; the
# process pool loads only for a run with more than one worker.
def test_a_single_worker_run_loads_no_process_pool():
    run_fresh("import sys, adradar\n"
              "assert 'numpy.random' in sys.modules\n"
              "adradar.run_experiment(adradar.Scenario(),\n"
              "                       adradar.ExperimentConfig(cpi_s=2e-4, trials=2))\n"
              "pool = {'concurrent.futures.process', 'multiprocessing'}\n"
              "assert pool.isdisjoint(sys.modules), pool & set(sys.modules)\n",
              ADRADAR_WORKERS="1")


# The beam design's scan cut (3141 x 16 complex, 0.8 MB) is not kept once
# the beam is designed.
def test_the_beam_designs_scan_cut_is_freed_with_the_design():
    run_fresh("import gc, weakref, adradar\n"
              "from adradar import phasedarray\n"
              "refs, conj_steering = [], phasedarray._conj_steering\n"
              "def recording(*args):\n"
              "    a_conj = conj_steering(*args)\n"
              "    refs.append(weakref.ref(a_conj))\n"
              "    return a_conj\n"
              "phasedarray._conj_steering = recording\n"
              "adradar.build_scene(adradar.Scenario())\n"
              "gc.collect()\n"
              "assert len(refs) == 1 and refs[0]() is None, refs\n")


def tracer_targets():
    """(module, attribute) of each ``TARGETS`` entry, read from the tracer's
    source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


# A refactor that drops or renames a traced name fails here, not only in a
# traced benchmark run.
def test_every_tracer_target_resolves_to_a_callable():
    targets = tracer_targets()
    assert {("adradar.harness", name) for name in (
        "build_preamble", "synthesize_frame", "frame_truth",
        "correlation_profile")} <= set(targets)
    modules = {module: importlib.import_module(module) for module, _ in targets}
    # the package under test is this checkout's src/, not an installed copy
    assert {Path(mod.__file__).resolve().parent for mod in modules.values()} == {PACKAGE}
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(modules[module], attr, None))]
    assert missing == []


def imported_names(source: str, module: str):
    """Names ``source`` imports from the package's ``module``, relative or absolute."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and _is_sibling(node)
            and (node.module or "").split(".")[-1] == module
            for alias in node.names}


# The baseline picks its own map window, correlates each frame on it and
# takes the map lags from it, so the harness hands frames through and reads
# the result.
def test_the_harness_reaches_the_baseline_only_through_its_entry_points():
    source = (PACKAGE / "harness.py").read_text(encoding="utf-8")
    assert imported_names(source, "baseline") == {
        "map_window", "map_columns", "delay_doppler_map", "baseline_velocities"}
    assert "cut_to_lags" not in {node.attr for node in ast.walk(ast.parse(source))
                                 if isinstance(node, ast.Attribute)}


def functions(module: str) -> dict:
    """Each top-level function of the package's ``module`` by name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


# A point's frame indices, threshold and pipeline configuration are built once,
# before any trial runs, and the trials take them whole.
def test_the_trials_take_their_pipeline_configuration_whole():
    called = {node.func.id for node in ast.walk(functions("harness")["_run_trials"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called.isdisjoint({"_frame_indices", "PipelineConfig", "detection_threshold"})


# A target's gain h_p holds over the CPI, so no frame truth carries it: only
# the functions that compute the gains and the two that synthesize take them.
def test_only_the_synthesis_takes_the_gains():
    takes = {f"{module}.{name}" for module in ("scene", "echo")
             for name, node in functions(module).items()
             if {arg.arg for arg in node.args.args} & {"h", "backscatter", "betas", "beta"}}
    assert takes == {"scene.backscatter_coefficient", "scene.scene_backscatter",
                     "echo.synthesize_window", "echo.synthesize_frame"}


def unused_imports(source: str):
    """(line, name) of every name ``source`` imports but never reads as a ``Name``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0],
                                    node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_unused_import_scan_flags_each_form():
    source = ("import os\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .scene import Scenario, build_scene as build\n"
              "np.zeros(1)\n"
              "Scenario()\n")
    assert unused_imports(source) == [(1, "os"), (4, "build")]


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"] + TEST_MODULES
    + DEMO_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_has_an_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def oldest_python():
    """(major, minor) of the oldest Python that pyproject.toml allows."""
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject)
    assert found, "pyproject.toml declares no requires-python lower bound"
    return int(found[1]), int(found[2])


# Library names newer than 3.10, which a parse cannot see.
NEWER_THAN_3_10 = {"batched", "tomllib", "ExceptionGroup", "TaskGroup", "Self"}


# Tier-1 runs on a newer Python than the package declares, so syntax or
# library names newer than the declared floor would fail only for a user.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_as_the_oldest_declared_python(path):
    assert oldest_python() == (3, 10)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                     feature_version=oldest_python())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert names & NEWER_THAN_3_10 == set()
