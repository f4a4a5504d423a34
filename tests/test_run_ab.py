"""The statistics and verdicts of ``run_ab.py``, on synthetic runs.

``run_ab.judge`` orients every ratio so that above 1 means NEW is better, and
reads a metric by the ten-pair rule: a gain needs 9 wins in 10 pairs (ties
count for neither side) and a median gap wider than BASE's interquartile
range; a change worse by more than the metric's bound is ``worse``; a spread
wider than the bound is ``unresolved`` unless every NEW run beats every BASE
run.
"""

import pytest

import run_ab

TRIALS_PER_S = {"trials_per_s": {"better": "higher", "bound": 0.25}}
BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def scaled(factors):
    return [b * f for b, f in zip(BASE, factors)]


def test_ten_a_a_pairs_bracket_one_and_claim_nothing():
    new = [99.5, 100.5, 101.0, 98.5, 100.0, 99.0, 102.0, 100.0, 99.0, 101.0]
    s = run_ab.judge(BASE, new, "higher", 0.25)
    low, high, coverage = s["interval"]
    assert low <= 1.0 <= high
    assert coverage == pytest.approx(1 - 22 / 1024)  # r(2) to r(9): 97.9%
    assert s["verdict"] == "no worse"


def test_the_interval_runs_from_the_second_to_the_ninth_ratio():
    low, high, _ = run_ab.median_interval([float(r) for r in range(10, 0, -1)])
    assert (low, high) == (2.0, 9.0)


@pytest.mark.parametrize("step, verdict", [(1.10, "gain"), (1.002, "no worse")])
def test_nine_wins_are_a_gain_only_past_the_base_interquartile_range(step, verdict):
    s = run_ab.judge(BASE, scaled([step] * 9 + [0.99]), "higher", 0.25)
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["verdict"] == verdict


def test_ties_count_for_neither_side():
    s = run_ab.judge(BASE, scaled([1.10] * 8 + [1.0, 1.0]), "higher", 0.25)
    assert (s["wins"], s["losses"]) == (8, 0)
    assert s["verdict"] == "no worse"


def test_a_lower_is_better_metric_is_judged_downwards():
    point_s = [b / 1000 for b in BASE]
    faster = run_ab.judge(point_s, [p * 0.8 for p in point_s], "lower", 0.25)
    assert faster["verdict"] == "gain"
    assert faster["ratios"] == pytest.approx([1.25] * 10)
    slower = run_ab.judge(point_s, [p * 1.3 for p in point_s], "lower", 0.25)
    assert slower["verdict"] == "worse"
    assert slower["wins"] == 0


def test_worse_past_the_bound_and_unresolved_past_the_spread():
    assert run_ab.judge(BASE, scaled([0.7] * 10), "higher", 0.25)["verdict"] == "worse"
    assert run_ab.judge(BASE, scaled([0.8] * 10), "higher", 0.25)["verdict"] == "no worse"
    wide = [10.0, 11.0, 12.0, 90.0, 91.0, 92.0, 93.0, 94.0, 95.0, 96.0]
    assert run_ab.judge(wide, wide[::-1], "higher", 0.25)["verdict"] == "unresolved"
    # Every NEW run beats every BASE run, by less than BASE's spread.
    assert run_ab.judge(wide, [97.0] * 10, "higher", 0.25)["verdict"] == "no worse"


def runs(base, new, digests=("same", "same")):
    return {side: [({"trials_per_s": v}, digest, True) for v in values]
            for side, values, digest in zip(("base", "new"), (base, new), digests)}


def test_five_pairs_print_no_95_percent_interval(capsys):
    assert run_ab.median_interval([1.0, 1.1, 0.9, 1.2, 0.8]) is None
    assert run_ab.report("five", runs(BASE[:5], BASE[5:]), TRIALS_PER_S)
    assert "none at 95%" in capsys.readouterr().out


def test_outputs_that_differ_fail_the_case(capsys):
    assert not run_ab.report("differ", runs(BASE, BASE, digests=("a", "b")), TRIALS_PER_S)
    assert "outputs DIFFER" in capsys.readouterr().out
