"""scripts/ab_bench.py's gain rule and bound check on canned numbers."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [1000.0, 1010.0, 990.0, 1020.0, 980.0, 1005.0, 995.0, 1015.0, 985.0, 1000.0]


def test_clear_gain():
    change = [p * 1.4 for p in PARENT]
    v = ab.verdict(PARENT, change, "higher")
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["parent_median"] == pytest.approx(1000.0)
    assert v["change_median"] == pytest.approx(1400.0)
    assert v["parent_iqr"] == pytest.approx(1008.75 - 991.25)
    assert v["gain"]


def test_eight_wins_is_not_a_gain():
    change = [p * 1.4 for p in PARENT]
    change[0] = change[1] = 900.0
    v = ab.verdict(PARENT, change, "higher")
    assert v["wins"] == 8 and not v["gain"]


def test_ties_count_for_neither():
    change = [p * 1.4 for p in PARENT]
    change[3] = PARENT[3]
    v = ab.verdict(PARENT, change, "higher")
    assert v["wins"] == 9 and v["gain"]


def test_median_inside_parent_iqr_is_not_a_gain():
    change = [p + 10.0 for p in PARENT]  # wins every pair, by less than the IQR
    v = ab.verdict(PARENT, change, "higher")
    assert v["wins"] == 10 and not v["gain"]


def test_lower_is_better():
    change = [p * 0.7 for p in PARENT]
    assert ab.verdict(PARENT, change, "lower")["gain"]
    assert not ab.verdict(PARENT, change, "higher")["gain"]


def test_bound():
    assert ab.over_bound(100.0, 74.0, "higher", 0.25)
    assert not ab.over_bound(100.0, 76.0, "higher", 0.25)
    assert ab.over_bound(100.0, 111.0, "lower", 0.1)
    assert not ab.over_bound(100.0, 109.0, "lower", 0.1)


def test_seeds_and_last_json():
    assert ab.parse_seeds("901-903,910") == [901, 902, 903, 910]
    out = 'setup_s 6.1 s\n{"info": 1}\n{"correct": true, "failed": 0}\n'
    assert ab.last_json(out) == {"correct": True, "failed": 0}
