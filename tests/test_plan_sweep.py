"""scripts/plan_sweep.py's pure parts, without Ray."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "plan_sweep.py")
_spec = importlib.util.spec_from_file_location("plan_sweep", _PATH)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_hints_and_names():
    assert sweep.parse_hints("1,2,4") == [1, 2, 4]
    assert [sweep.variant_name(h) for h in (1, 8)] == ["hint-1", "hint-8"]
    with pytest.raises(ValueError):
        sweep.parse_hints("1,0")


def test_round_order_puts_each_variant_first_in_turn():
    names = ["hint-1", "hint-2", "hint-4"]
    orders = [sweep.round_order(names, r) for r in range(4)]
    assert [o[0] for o in orders] == ["hint-1", "hint-2", "hint-4", "hint-1"]
    assert all(sorted(o) == sorted(names) for o in orders)
