"""Fuzz the CLI boundary: any scenario file and flags end in one of three
outcomes, never in a traceback or a warning.

Each example writes a drawn scenario JSON and runs, in process, one of

    simulate --scenario S --trials 1 --output O --cpi 2e-4 [drawn flags]
    sweep-framegap --scenario S --trials 1 --output O --gaps 1 --cpi 2e-4 [drawn flags]
    sweep-cpi --scenario S --trials 1 --output O --cpis 2e-4 [drawn flags]

with warnings as errors and ``ADRADAR_WORKERS`` unset.  The drawn flags are
the subcommand's own and, one time in ten, one it does not take.  Exactly one
must hold:

- exit 0, and O starts with the CSV header;
- exit 1, stderr holds ``adradar: config error:`` or a usage line, and O is gone;
- exit 2, stderr holds ``adradar: estimation failure:``, and O is gone.

No run may name ``nan``, ``inf`` or an int64 that wrapped round.  Every drawn
number is finite, since a non-finite input is named back by design.

Floats come from plain ranges and from boundary and extreme values (0, -0,
the smallest subnormal, 1e-300, 1e300, the largest float, both signs).  Any
key may get a value of the wrong type, and the target lists may get the
wrong length.  The keys that set array sizes or frame counts are drawn only
within these bounds, which keep one run to a few MB and well under a second:

- ``bandwidth_hz`` at most 4e9 Hz (at most 240 frames in the 0.2 ms CPI),
  or nonpositive, or at most 1e-300 Hz;
- ``frame_len`` any int (below 3328 is an error; longer frames are fewer);
- ``nx_tx`` from -1 to 16 and ``ny_tx`` from -1 to 4 (at most 64 elements;
  a scenario allows 1,024);
- ``n_beams`` from -1 to 6;
- ``target_ranges_m`` from 1e-3 to 300 m (echoes within 8,000 samples of
  each other), or an extreme value, which makes a gain or a delay that no
  scene can use, or 1e7 m, whose delay spread no frame holds;
- target and source velocities within 1e3 m/s, or an extreme value, which
  moves a target by at least 1e288 m a frame or by none.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from adradar.cli import run_cli
from adradar.harness import CSV_HEADER

MAX = 1.7976931348623157e308
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, MAX, -MAX]


def rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 0


@st.composite
def floats(draw, lo, hi, *special):
    """A plain float in [lo, hi] or, one time in ten, an extreme or ``special`` one."""
    return draw(st.sampled_from(EXTREMES + list(special)) if rarely(draw)
                else st.floats(lo, hi))


@st.composite
def ints(draw, lo, hi, *special):
    """An int in [lo, hi] or, one time in ten, a ``special`` one."""
    return draw(st.sampled_from(special) if special and rarely(draw)
                else st.integers(lo, hi))


HUGE_INTS = (2**31, 2**63 - 1, 2**63, 2**100, 10**400, -2**64)
SCALARS = {
    "source_velocity_mps": floats(-1e3, 1e3),
    "rcs_dbsm": floats(-100.0, 100.0, 3082.0, 3083.0, -3240.0, -3300.0),
    "p_tx_dbm": floats(-100.0, 100.0, 3082.0, 3083.0, -3206.0, -3300.0),
    "noise_density_dbm_hz": floats(-250.0, 0.0, 3080.0),
    "clutter_ratio": floats(-1e-6, 1e-3),
    "carrier_hz": floats(1e9, 1e11),
    "bandwidth_hz": st.one_of(st.floats(1e8, 4e9), st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300, -1e300, -MAX])),
    "frame_len": ints(-5, 20000, 3327, 3328, 13632, 10**6, *HUGE_INTS),
    "n_beams": st.integers(-1, 6),
    "azimuth_beamwidth_rad": floats(0.0, 3.0),
    "elevation_center_rad": floats(-2.0, 2.0),
    "nx_tx": st.integers(-1, 16),
    "ny_tx": st.integers(-1, 4),
    "beta_mode": st.sampled_from(["fixed", "rayleigh", "Fixed", ""]),
    "threshold_scale": floats(1e-3, 1e3),
    "search_halfwidth": ints(-2, 5000, *HUGE_INTS),
    "guard": ints(-2, 50, *HUGE_INTS),
    "cpi_s": floats(0.0, 1e-3),
    "m_i_offset": ints(-2, 40, *HUGE_INTS),
    "trials": ints(-1, 3, *HUGE_INTS),
    "seed": ints(-2, 2**32, 2**64, 2**200),
}
TARGETS = {
    "target_velocities_mps": floats(-1e3, 1e3),
    "target_ranges_m": floats(1e-3, 300.0, 1e-50, 1e50, 1e7),
    "target_azimuths_rad": floats(-2.0, 2.0),
    "target_elevations_rad": floats(-2.0, 2.0),
}
WRONG = st.sampled_from(["20", True, None, [], {}, [1.0, "a"], [True], 2.5, 7])
ODD_KEYS = st.sampled_from([("preamble_len", 3328), ("preamble_len", 3000),
                            ("nx_rx", 8), ("nx_rx", 4), ("first_delay_window", True),
                            ("no_such_key", 1)])


@st.composite
def scenarios(draw) -> dict:
    """A scenario file's object: a few drawn keys, rarely of the wrong type, and
    maybe the target lists, rarely one of the wrong type or length."""
    data = {}
    for key in draw(st.lists(st.sampled_from(sorted(SCALARS)), max_size=4, unique=True)):
        data[key] = draw(WRONG if rarely(draw) else SCALARS[key])
    if draw(st.booleans()):
        n = draw(st.integers(0, 4))
        odd = draw(st.sampled_from(sorted(TARGETS))) if rarely(draw) else None
        for key, values in TARGETS.items():
            if key == odd and draw(st.booleans()):
                data[key] = draw(WRONG)
                continue
            size = draw(st.integers(0, 5)) if key == odd else n
            data[key] = draw(st.lists(values, min_size=size, max_size=size))
            if key == "target_ranges_m" and not rarely(draw):
                data[key].sort()
    if rarely(draw):
        key, value = draw(ODD_KEYS)
        data[key] = value
    return data


# Subcommand -> the flags every run of it passes after --output, which keep
# a run short (the later of two equal flags wins).
COMMANDS = {"simulate": ["--cpi", "2e-4"], "sweep-framegap": ["--gaps", "1", "--cpi", "2e-4"],
            "sweep-cpi": ["--cpis", "2e-4"]}
# Flag -> the scenario key its values are drawn from.
VALUES = {"--p-tx-dbm": "p_tx_dbm", "--seed": "seed", "--mi-offset": "m_i_offset",
          "--gaps": "m_i_offset", "--p-tx-grid": "p_tx_dbm"}
# Subcommand -> its own flags that are drawn.
OWN = {"simulate": ["--p-tx-dbm", "--seed", "--mi-offset", "--estimator"],
       "sweep-framegap": ["--p-tx-dbm", "--seed", "--gaps"],
       "sweep-cpi": ["--seed", "--mi-offset", "--p-tx-grid"]}


@st.composite
def invocations(draw) -> list:
    """A subcommand and some of its flags, as ``--flag value`` or
    ``--flag=value``, rarely with a value that does not parse or a flag the
    subcommand does not take."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    drawn = [flag for flag in OWN[command] if draw(st.booleans())]
    if rarely(draw):
        drawn.append(draw(st.sampled_from(sorted(set(VALUES) - set(OWN[command])))))
    for flag in drawn:
        if flag == "--estimator":
            value = (draw(st.sampled_from(["proposed", "baseline", "both"]))
                     if not rarely(draw) else "dense")
        else:
            value = (draw(st.sampled_from(["abc", "", "1e", "0x10", "2.5"]))
                     if rarely(draw) else repr(draw(SCALARS[VALUES[flag]])))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def run_command(scenario: dict, argv: list):
    """(exit code, stderr, output text or None) of one in-process run of the
    subcommand ``argv[0]`` with the flags ``argv[1:]``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scn.json", Path(tmp) / "out.csv"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with mock.patch.dict(os.environ), warnings.catch_warnings(), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            os.environ.pop("ADRADAR_WORKERS", None)
            warnings.simplefilter("error")
            code = run_cli([argv[0], "--scenario", str(path), "--trials", "1",
                            "--output", str(out)] + COMMANDS[argv[0]] + argv[1:])
        return code, err.getvalue(), out.read_text() if out.exists() else None


# Four hand probes that once ended in a traceback or a garbled message, a
# delay spread that would make frame 0 1.9 GB, a guard past int64, a negative
# flag value in exponent form, two CPIs of 2^63 frames or more (the later
# ``--cpi`` wins), an array past 32 x 32 elements, a frame period whose double
# overflows, then a run of each subcommand that passes.
@settings(max_examples=120, deadline=None)
@given(scenario=scenarios(), argv=invocations())
@example(scenario={"rcs_dbsm": 4000}, argv=["simulate"])
@example(scenario={"target_ranges_m": [1e-300, 15.7, 17.9]}, argv=["simulate"])
@example(scenario={"target_ranges_m": [1e300] * 3}, argv=["simulate"])
@example(scenario={"target_velocities_mps": [1e300, 24.949, 21.806]}, argv=["simulate"])
@example(scenario={"target_ranges_m": [14.0, 15.7, 1e7]}, argv=["simulate"])
@example(scenario={"guard": 2**100}, argv=["simulate"])
@example(scenario={}, argv=["simulate", "--p-tx-dbm", "-1e+300"])
@example(scenario={}, argv=["simulate", "--cpi", "1e300"])
@example(scenario={"bandwidth_hz": 1e30}, argv=["simulate"])
@example(scenario={"nx_tx": 1025, "ny_tx": 1}, argv=["simulate"])
@example(scenario={"bandwidth_hz": 1e-304}, argv=["simulate"])
@example(scenario={}, argv=["simulate", "--estimator", "both"])
@example(scenario={}, argv=["sweep-framegap"])
@example(scenario={}, argv=["sweep-cpi", "--p-tx-grid", "20"])
def test_any_scenario_and_flags_end_in_one_of_three_outcomes(scenario, argv):
    code, err, output = run_command(scenario, argv)
    event(f"{argv[0]} exit {code}")
    config = err.startswith("adradar: config error: ") or err.startswith("usage: ")
    outcomes = [code == 0 and output is not None
                and output.startswith(",".join(CSV_HEADER) + "\n"),
                code == 1 and config and output is None,
                code == 2 and err.startswith("adradar: estimation failure: ")
                and output is None]
    assert outcomes.count(True) == 1, (code, err)
    text = err + (output or "")
    assert "Traceback" not in text and "Warning" not in text
    assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), text
    assert str(-2**63) not in text, text
