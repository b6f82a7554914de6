"""Flagship resume: a REAL mid-run SIGKILL at ~50% of checkpoint
partitions, then replay — the resumed output must be byte-identical to
a clean single-shot run, and finished partitions must not be
recomputed (north_rule checkpoint criterion on the flagship path).
By default one Dataset runs every missing file."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest


N_IMAGES = 256
TILE_PX = 32
N_FILES = 8  # rows_per_file=32


@pytest.fixture(scope="module")
def images_dir(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    d = str(tmp_path_factory.mktemp("imgs"))
    generate_images_parquet(d, n_images=N_IMAGES, tile_px=TILE_PX, bands=1, skew_frac=0.0, rows_per_file=32)
    return d


def _polys():
    from gdal_boots_ray.sources.fixtures import bench_polygons

    return bench_polygons(N_IMAGES, TILE_PX, n_polys=9)


def _canon(df) -> bytes:
    return df.sort_values("poly_id").reset_index(drop=True).to_csv(index=False).encode()


_CHILD = """
import sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})
from gdal_boots_ray.pipelines.flagship import run_flagship_resumable
from gdal_boots_ray.sources.fixtures import bench_polygons
run_flagship_resumable({imgs!r}, {out!r}, polygons=bench_polygons({n}, {px}, n_polys=9),
                       chunk_files=1, batch_size=16)
ray.shutdown()
"""


def _count_parts(out_dir):
    from gdal_boots_ray.state.manifest import completed_partitions

    return len(completed_partitions(out_dir))


def test_kill_at_half_then_resume_byte_identical(ray_session, images_dir, tmp_path):
    from gdal_boots_ray.pipelines.flagship import run_flagship_resumable
    from gdal_boots_ray.state.manifest import completed_partitions

    # clean single-shot reference run
    clean_out = str(tmp_path / "clean")
    ref, summary = run_flagship_resumable(images_dir, clean_out, polygons=_polys(), chunk_files=4)
    assert summary["partitions"] == N_FILES
    assert len(ref) == 9

    # killed run in a real subprocess (own Ray instance), SIGKILL once
    # ~half the checkpoint partitions exist
    kill_out = str(tmp_path / "killed")
    code = _CHILD.format(repo=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         imgs=images_dir, out=kill_out, n=N_IMAGES, px=TILE_PX)
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # the child owns its own local instance
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.time() + 180
    killed_at = None
    while time.time() < deadline:
        n = _count_parts(kill_out)
        if n >= N_FILES // 2:
            proc.send_signal(signal.SIGKILL)
            killed_at = n
            break
        if proc.poll() is not None:  # finished before we could kill: still a valid (weaker) run
            killed_at = _count_parts(kill_out)
            break
        time.sleep(0.05)
    proc.wait(timeout=60)
    assert killed_at is not None, "child never reached 50% partitions"
    # interrupted run left a partial checkpoint set
    n_before = _count_parts(kill_out)
    assert n_before >= N_FILES // 2
    if proc.returncode == -signal.SIGKILL:
        # the kill landed mid-run: the checkpoint set must be partial,
        # so the resume below genuinely replays missing shards
        assert n_before < N_FILES

    before = completed_partitions(kill_out)
    mtimes = {
        k: os.path.getmtime(os.path.join(kill_out, f"part={k}", "data.parquet")) for k in before
    }

    # resume in-process: replays only the missing shards
    resumed, summary2 = run_flagship_resumable(images_dir, kill_out, polygons=_polys(), chunk_files=4)
    assert summary2["partitions"] == N_FILES
    # byte-identical final output (integer-valued float64 partials:
    # addition order cannot change the result)
    assert _canon(resumed) == _canon(ref)
    # finished partitions were skipped, not rewritten
    for k, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(kill_out, f"part={k}", "data.parquet")) == mt

    # complete rerun is a no-op with identical output
    again, _ = run_flagship_resumable(images_dir, kill_out, polygons=_polys())
    assert _canon(again) == _canon(ref)


def test_default_resume_runs_every_file_in_one_dataset(ray_session, images_dir, tmp_path, monkeypatch):
    from gdal_boots_ray.pipelines import flagship

    calls = []
    read_in_task = flagship._read_in_task

    def counted(files, *args, **kwargs):
        calls.append(list(files))
        return read_in_task(files, *args, **kwargs)

    monkeypatch.setattr(flagship, "_read_in_task", counted)
    one_by_one, _ = flagship.run_flagship_resumable(
        images_dir, str(tmp_path / "chunked"), polygons=_polys(), chunk_files=1
    )
    assert [len(c) for c in calls] == [1] * N_FILES
    calls.clear()
    default, summary = flagship.run_flagship_resumable(images_dir, str(tmp_path / "default"), polygons=_polys())
    assert [len(c) for c in calls] == [N_FILES]
    assert summary["partitions"] == N_FILES
    assert default.equals(one_by_one)
