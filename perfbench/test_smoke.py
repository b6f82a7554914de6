"""Self-test of the benchmark: every workload once at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that no job fails on correct output, that a tampered reference
makes every job fail, and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS

TINY = {
    "flagship_large_tiles": dict(n_images=128, tile_px=32, rows_per_file=64, poly_layout=(4096, 32)),
    "flagship_many_polygons": dict(n_images=128, tile_px=16, rows_per_file=64, n_polys=256, poly_layout=(1024, 16)),
    "flagship_resume": dict(n_images=128, tile_px=32, rows_per_file=64, poly_layout=(4096, 32)),
    "shuffle_pip_skewed": dict(n_points=200, n_polys=80),
}
SEED = 3


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module", autouse=True)
def env():
    run.configure_env()


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    out = run.run(tiny(name), SEED, 0.1, trace, setups=1)
    res = out["result"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(res["metrics"]) == set(expected)
    for metric, m in res["metrics"].items():
        assert m["unit"] == expected[metric]
        assert isinstance(m["value"], float) or isinstance(m["value"], int)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert out["info"]["failed_frac"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        metrics = {k: m["value"] for k, m in res["metrics"].items()}
        assert abs(metrics["trace.accounted_frac"] - 1) < 0.01
        assert metrics["trace.wall_s"] > 0
        if WORKLOADS[name].kind == "shuffle":
            assert metrics["shuffle.pairs"] > 0 and metrics["shuffle.pip.us_per_point"] > 0
        else:
            assert metrics["flagship.worker_init.count"] == metrics["flagship.tasks"] > 0
            assert metrics["decode.calls"] > 0 and metrics["joins.pip.pairs_per_row"] > 0
        if WORKLOADS[name].kind == "resume":
            assert metrics["manifest.partitions"] > 0 and metrics["ray_data.exchange.rows_max_over_mean"] > 0


def _tampered(w):
    from perfbench.workloads import prepare

    ref = copy.deepcopy(prepare(w, SEED, str(run.STATE / "inputs")).reference)
    if w.kind == "shuffle":
        ref["pairs"] = ref["pairs"][1:]
    else:
        for row in ref["rows"]:
            row[2] = [row[2][1] + 1, row[2][1] + 1]  # n_px one above its highest
    return ref


@pytest.mark.parametrize("name", ["flagship_large_tiles", "shuffle_pip_skewed"])
def test_tampered_reference_fails_every_job(name):
    w = tiny(name)
    out = run.run(w, SEED, 0.1, False, reference=_tampered(w), setups=1)
    assert out["info"]["failed_frac"] == 1
    assert out["result"]["failed"] == out["result"]["attempted"] and not out["result"]["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    p = subprocess.run(
        [sys.executable if c == "python3" else c for c in spec["command"]]
        + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
