"""corpus_clean checkpoint semantics: the survivor set publishes
atomically to a cluster-shared dir and a rerun with the same params
RESUMES from it (skips the whole filter+dedup lineage) with an
identical result."""

import os

import numpy as np
import pandas as pd


def _run(tmp_path, ckpt):
    from gdal_boots_ray.pipelines.queries.text import q_corpus_clean

    out = q_corpus_clean("/root/testdata/sf0.001", checkpoint_dir=str(ckpt))
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    return df.sort_values(df.columns.tolist()).reset_index(drop=True)


def test_corpus_clean_checkpoint_resume(ray_session, tmp_path):
    ckpt = tmp_path / "corpus_ckpt"
    first = _run(tmp_path, ckpt)
    assert len(first) > 0
    assert os.path.isdir(ckpt)  # atomic rename published the survivor set
    files = sorted(os.listdir(ckpt))
    assert any(f.endswith(".parquet") for f in files)

    # plant a sentinel: if the rerun rewrote the checkpoint, the
    # tmp-dir rename would have replaced the directory and the
    # sentinel would vanish — resume must REUSE the published dir
    sentinel = ckpt / "_sentinel"
    sentinel.write_text("published")
    mtimes = {f: os.path.getmtime(ckpt / f) for f in files}

    second = _run(tmp_path, ckpt)
    assert sentinel.exists()
    assert {f: os.path.getmtime(ckpt / f) for f in files} == mtimes
    pd.testing.assert_frame_equal(first, second)


def test_corpus_clean_partial_checkpoint_is_ignored(ray_session, tmp_path):
    # a crash mid-write leaves only the .tmp dir: the published path
    # doesn't exist, so the rerun recomputes and publishes atomically
    ckpt = tmp_path / "corpus_ckpt2"
    tmp_dir = str(ckpt) + ".tmp"
    os.makedirs(tmp_dir)
    (ckpt.parent / (ckpt.name + ".tmp") / "garbage.parquet").write_bytes(b"not parquet")
    out = _run(tmp_path, ckpt)
    assert len(out) > 0
    assert os.path.isdir(ckpt)
    assert not os.path.exists(tmp_dir)  # stale tmp cleared by the rerun


def test_corpus_clean_job_entrypoint(ray_session, tmp_path):
    """jobs.corpus_clean writes the clean corpus as partitioned
    parquet under --out and reports the row count (the ray-job
    operational form of the pipeline)."""
    import json

    import ray.data as rd

    from gdal_boots_ray.jobs.corpus_clean import main

    out_root = tmp_path / "job_out"
    rc = main(["--docs", "/root/testdata/sf0.001", "--out", str(out_root)])
    assert rc == 0
    clean = rd.read_parquet(str(out_root / "clean"))
    n = clean.count()
    assert n > 0
    # matches the oracle-checked query result size
    from gdal_boots_ray.pipelines.queries.text import q_corpus_clean

    ref = q_corpus_clean("/root/testdata/sf0.001", checkpoint_dir=str(tmp_path / "ck2"))
    assert n == len(ref.to_pandas() if hasattr(ref, "to_pandas") else ref)
