"""scripts/diff_oracle.py on canned check_oracle.py logs."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "diff_oracle.py")
_spec = importlib.util.spec_from_file_location("diff_oracle", _PATH)
do = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(do)

PARENT = """\
2026-01-01 12:00:00,000	INFO streaming_executor.py:159 -- Starting execution of Dataset dataset_1_0
OK    tile_bounds: rows 200/200 cols_ok=True hash_ok=True (0.5s) value_hash=aaa111
OK    zonal_stats: rows 25/25 cols_ok=True hash_ok=True (2.1s) value_hash=bbb222
ROWS  extra: 3 rows, cols=['a'] (0.1s) [no oracle] value_hash=ccc333
FAIL  broken: ray error: ValueError: boom
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_identical_runs_ignore_timings(tmp_path, capsys):
    a = _write(tmp_path, "a.log", PARENT)
    b = _write(tmp_path, "b.log", PARENT.replace("(0.5s)", "(9.9s)").replace("(2.1s)", "(0.2s)"))
    assert do.main(["diff_oracle.py", a, b]) == 0
    assert "4 queries identical, 0 differ" in capsys.readouterr().out


def test_hash_status_and_missing_query_differ(tmp_path, capsys):
    a = _write(tmp_path, "a.log", PARENT)
    changed = PARENT.replace("bbb222", "bbb999").replace("OK    tile_bounds", "FAIL  tile_bounds")
    b = _write(tmp_path, "b.log", "\n".join(changed.splitlines()[:-1]) + "\n")
    assert do.main(["diff_oracle.py", a, b]) == 1
    out = capsys.readouterr().out
    assert "zonal_stats: A OK bbb222 != B OK bbb999" in out
    assert "tile_bounds: A OK aaa111 != B FAIL aaa111" in out
    assert "broken: only in A" in out


def test_rerun_merges_by_name(tmp_path):
    """An interrupted run plus a rerun of its missing queries equals one
    whole run; the later log wins for a query in both."""
    lines = PARENT.splitlines()
    whole = _write(tmp_path, "whole.log", PARENT)
    first = _write(tmp_path, "first.log", "\n".join(lines[:2] + ["OK    zonal_stats: stale value_hash=old"]))
    rerun = _write(tmp_path, "rerun.log", "\n".join(lines[2:]))
    assert do.main(["diff_oracle.py", f"{first},{rerun}", whole]) == 0


def test_empty_log_is_an_error(tmp_path):
    a = _write(tmp_path, "a.log", PARENT)
    b = _write(tmp_path, "b.log", "Traceback (most recent call last):\n")
    assert do.main(["diff_oracle.py", a, b]) == 1
