"""Ray Data stage tests: decode/encode round trip, bounds/cells,
broadcast PIP join, zonal stats, mosaic, dedup, manifest resume."""

import os

import numpy as np
import pyarrow as pa
import pytest

from gdal_boots_ray.sources.fixtures import (
    nation_polygons,
    synth_images_batch,
    tile_params,
    tile_pixels,
)


@pytest.fixture(scope="module")
def ray_mod(ray_session):
    import ray

    return ray


def test_decode_encode_roundtrip(ray_mod):
    """input_hint fidelity gate: decoded pixels allclose (lossless) +
    caption equality per row (BASELINE.json input_hint)."""
    import ray.data as rd

    from gdal_boots_ray.stages.decode import DecodeImages, EncodeImages, pixels_view

    keys = np.arange(16)
    table = synth_images_batch(keys, bands=1)
    ds = rd.from_arrow(table)
    decoded = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=1)
    out = decoded.to_arrow_refs()
    tbl = pa.concat_tables([pa.Table.from_batches(b.to_batches()) for b in __import__("ray").get(out)])
    assert tbl.num_rows == 16
    cap = dict(zip(tbl.column("image_id").to_pylist(), tbl.column("caption").to_pylist()))
    for i, key in enumerate(sorted(keys)):
        iid = f"img-{key:08d}"
        assert cap[iid] == f"tile {iid}"
    # pixel equality vs the deterministic field
    idx = tbl.column("image_id").to_pylist().index("img-00000003")
    img = pixels_view(
        tbl.column("pixels")[idx].as_py(),
        int(tbl.column("bands")[idx].as_py()),
        int(tbl.column("h")[idx].as_py()),
        int(tbl.column("w")[idx].as_py()),
    )
    expect = tile_pixels(3, int(tbl.column("w")[idx].as_py()), int(tbl.column("h")[idx].as_py()))
    assert np.array_equal(img, expect)

    # encode back to png and decode again: lossless round trip
    encoded = decoded.map_batches(EncodeImages, batch_format="pyarrow", concurrency=1)
    re_decoded = encoded.map_batches(DecodeImages, batch_format="pyarrow", concurrency=1)
    row = re_decoded.take(1)[0]
    img2 = pixels_view(row["pixels"], int(row["bands"]), int(row["h"]), int(row["w"]))
    k2 = int(row["image_id"].split("-")[1])
    assert np.array_equal(img2, tile_pixels(k2, int(row["w"]), int(row["h"])))


def test_broadcast_pip_and_zonal(ray_mod):
    import ray.data as rd

    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, fused_partials
    from gdal_boots_ray.stages.joins import put_polygons

    keys = np.arange(64)
    ds = rd.from_arrow(synth_images_batch(keys))
    polys = nation_polygons(np.arange(4))
    ref = put_polygons(polys)
    stats = fused_partials(ds, ref, cell_res=1000.0, s2_level=9, with_s2=False, batch_size=16)
    agg = combine_zonal_partials(stats)
    # oracle: direct numpy evaluation of the same join + mask
    from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings

    p = tile_params(keys)
    expect = {}
    for poly in polys:
        rings = polygon_rings(poly["geometry"])
        inside = points_in_rings(p["cx"], p["cy"], rings)
        n_px = 0
        for k in keys[inside]:
            t = tile_params(np.array([k]))
            xs = t["x0"][0] + (np.arange(t["w"][0]) + 0.5) * 10.0
            ys = t["y0"][0] - (np.arange(t["h"][0]) + 0.5) * 10.0
            gx, gy = np.meshgrid(xs, ys)
            m = points_in_rings(gx.ravel(), gy.ravel(), rings)
            n_px += int(m.sum())
        if n_px:
            expect[poly["poly_id"]] = n_px
    got = dict(zip(agg["poly_id"], agg["n_px"]))
    assert got == expect


def test_broadcast_pip_join_matches_per_polygon_reference():
    """The join's rows are, row for row and in order, the (row, list
    entry) pairs ``points_in_rings`` puts inside: by row, then list
    position, over unsorted poly_ids, a duplicated poly_id with other
    rings, an empty geometry, a hole and a MultiPolygon part outside the
    first part's box; points on vertices and edges included.  An empty
    batch gives a typed empty table."""
    from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin

    def poly(*rings):
        return {"type": "Polygon", "coordinates": [[list(p) for p in r] for r in rings]}

    geoms = [
        (9, poly([(0, 4), (4, 0), (8, 4), (4, 8), (0, 4)])),
        (2, poly([(1, 1), (7, 1), (7, 7), (1, 7), (1, 1)], [(3, 3), (5, 3), (5, 5), (3, 5), (3, 3)])),
        (9, poly([(2, 2), (6, 2.5), (4, 6), (2, 2)])),
        (5, {"type": "Polygon", "coordinates": []}),
        (
            4,
            {
                "type": "MultiPolygon",
                "coordinates": [[[(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)]], [[(5, 5), (8, 6), (6, 8), (5, 5)]]],
            },
        ),
    ]
    packed = [(pid, polygon_rings(g)) for pid, g in geoms]
    grid = np.arange(-2, 21) / 2
    gx, gy = (a.ravel() for a in np.meshgrid(grid, grid))
    batch = pa.table({"cx": gx, "cy": gy, "row": np.arange(len(gx)), "other": np.zeros(len(gx))})
    join = BroadcastPIPJoin(packed, keep_cols=["row", "cy"])
    rows, pids = [], []
    for i in range(len(gx)):
        for pid, rings in packed:
            if points_in_rings(gx[i : i + 1], gy[i : i + 1], rings)[0]:
                rows.append(i)
                pids.append(pid)
    want = batch.select(["row", "cy"]).take(pa.array(rows, pa.int64()))
    want = want.append_column("poly_id", pa.array(pids, pa.int64()))
    # the cases occur: both entries of poly_id 9 on one row, the second part of 4
    assert set(pids) == {2, 4, 9}
    assert len(set(zip(rows, pids))) < len(rows)
    assert any(pid == 4 and gx[i] > 2 for i, pid in zip(rows, pids))
    assert join(batch).equals(want)
    assert join(batch.slice(0, 0)).equals(want.schema.empty_table())


def test_mosaic_stage(ray_mod):
    import ray.data as rd

    from gdal_boots_ray.stages.decode import DecodeImages, pixels_view
    from gdal_boots_ray.stages.mosaic import mosaic_dataset

    keys = np.arange(8)
    tbl = synth_images_batch(keys)
    ds = rd.from_arrow(tbl)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=1)

    def add_key(batch: pa.Table) -> pa.Table:
        ids = [int(i.split("-")[1]) for i in batch.column("image_id").to_pylist()]
        batch = batch.append_column("mosaic_key", pa.array(np.zeros(len(ids), np.int64)))
        return batch.append_column("seq", pa.array(ids, pa.int64()))

    out = mosaic_dataset(ds.map_batches(add_key, batch_format="pyarrow")).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["n_inputs"] == 8
    # tiles 0..7 sit in one grid row: width spans keys*1000 + max w
    p = tile_params(keys)
    exp_w = int((p["maxx"].max() - p["minx"].min()) / 10.0)
    exp_h = int((p["maxy"].max() - p["miny"].min()) / 10.0)
    assert (row["w"], row["h"]) == (exp_w, exp_h)
    img = pixels_view(row["pixels"], int(row["bands"]), int(row["h"]), int(row["w"]))
    assert img.max() == 255


def test_exact_dedup_stage(ray_mod):
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import exact_dedup

    docs = rd.from_items(
        [
            {"doc_id": 1, "text": "aaa"},
            {"doc_id": 2, "text": "bbb"},
            {"doc_id": 3, "text": "aaa"},
            {"doc_id": 4, "text": "ccc"},
            {"doc_id": 5, "text": "aaa"},
        ]
    )
    out = exact_dedup(docs).to_pandas().sort_values("keep_id")
    assert out["n_dups"].tolist() == [3, 1, 1]
    assert out["keep_id"].tolist() == [1, 2, 4]


def test_manifest_resume(ray_mod, tmp_path):
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.state.manifest import (
        completed_partitions,
        finalize_run,
        resume_plan,
        write_partitioned,
    )

    out_dir = str(tmp_path / "out")
    df = pd.DataFrame({"cell": np.repeat([1, 2, 3], 4), "v": np.arange(12)})
    ds = rd.from_pandas(df)
    res = write_partitioned(ds, out_dir, "cell").to_pandas()
    assert len(res) == 3
    done = completed_partitions(out_dir)
    assert set(done) == {"1", "2", "3"}
    assert all(m["rows"] == 4 for m in done.values())
    # resume: nothing left
    assert resume_plan(out_dir, [1, 2, 3, 4]) == [4]
    # idempotent rewrite keeps digests
    res2 = write_partitioned(ds, out_dir, "cell").to_pandas()
    assert sorted(res2["digest"]) == sorted(res["digest"])
    summary = finalize_run(out_dir)
    assert summary["partitions"] == 3 and summary["rows"] == 12


def test_knn_stage(ray_mod):
    import ray.data as rd

    from gdal_boots_ray.stages.joins import knn_brute_force

    rng = np.random.default_rng(0)
    mat = rng.normal(size=(200, 16))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(200), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        }
    )
    ds = rd.from_arrow(tbl)
    out = knn_brute_force(ds, mat[:3], k=4, query_ids=np.arange(3))
    assert len(out) == 12
    # self is always the top hit
    top = out.sort_values(["q_id", "sim"], ascending=[True, False]).groupby("q_id").head(1)
    assert top["vec_id"].tolist() == [0, 1, 2]


def test_grouped_top_k(ray_mod):
    """grouped_top_k == pandas windowed row_number()<=k, including
    ties (tie_cols break deterministically), k > group size, and
    groups split across many blocks."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import grouped_top_k

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 37, n),
            "v": rng.integers(0, 50, n).astype(float),  # many ties
            "id": np.arange(n, dtype=np.int64),
        }
    )
    # one group with fewer rows than k
    df = df[~((df.g == 36) & (df.id % 7 != 0))].reset_index(drop=True)

    ds = rd.from_pandas(df).repartition(16)
    got = (
        grouped_top_k(ds, ["g"], "v", 5, descending=True, tie_cols=["id"])
        .to_pandas()
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )

    want = (
        df.sort_values(["v", "id"], ascending=[False, True], kind="mergesort")
        .groupby("g", sort=False)
        .head(5)
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "v", "id"]], want[["g", "v", "id"]])


def test_hash_join(ray_mod):
    """Bucketed shuffle hash_join == pandas inner merge, with keys
    split across blocks, one-to-many fan-out, and keys missing on
    either side."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.joins import hash_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {"k": rng.integers(0, 200, 3000), "lv": rng.normal(size=3000)}
    )
    right = pd.DataFrame(
        {"k": rng.integers(100, 300, 500), "rv": np.arange(500, dtype=np.int64)}
    )

    got = hash_join(
        rd.from_pandas(left).repartition(8),
        rd.from_pandas(right).repartition(4),
        on="k",
        left_cols=["lv"],
        right_cols=["rv"],
    ).to_pandas()
    want = left.merge(right, on="k", how="inner")

    assert len(got) == len(want)
    key = lambda df: df.sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    g, w = key(got), key(want)
    assert (g["k"].to_numpy() == w["k"].to_numpy()).all()
    assert np.allclose(g["lv"].astype(float), w["lv"].to_numpy())
    assert (g["rv"].astype(np.int64).to_numpy() == w["rv"].to_numpy()).all()


def test_exact_quantiles(ray_mod):
    """Histogram-plan quantiles == numpy inverted-CDF on the full
    multiset, regardless of partitioning."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import exact_quantiles

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 40, 2000).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(16)
    got = exact_quantiles(ds, "v", [0.1, 0.5, 0.9, 0.99])
    s = np.sort(vals)
    for q, v in zip(got["q"], got["v"]):
        idx = int(np.ceil(q * len(s))) - 1  # percentile_disc
        assert v == s[max(idx, 0)], (q, v, s[max(idx, 0)])


def test_exact_quantiles_ignores_nulls(ray_mod):
    """NULL rows are not values (SQL aggregate semantics): over
    [1, NULL, 3, 5] percentile_disc(0.6) is 3, as DuckDB and
    ``grouped_quantiles`` give, not the 5 a NaN-counted n = 4 gives."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from gdal_boots_ray.stages.agg import exact_quantiles, grouped_quantiles

    tbl = pa.table({"g": [0, 0, 0, 0], "v": pa.array([1, None, 3, 5], pa.int64())})
    want = duckdb.sql("SELECT percentile_disc(0.6) WITHIN GROUP (ORDER BY v) FROM tbl").fetchone()[0]
    assert want == 3
    got = exact_quantiles(rd.from_arrow(tbl), "v", [0.6])
    assert got["v"].tolist() == [want]
    grouped = grouped_quantiles(rd.from_arrow(tbl), "g", "v", [0.6]).to_pandas()
    assert grouped["v"].tolist() == [want]


def test_deterministic_sample_stable(ray_mod):
    """deterministic_sample keeps the identical id set under any
    partitioning (the resume/retry-stability contract)."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.sample import deterministic_sample

    df = pd.DataFrame({"id": np.arange(3000, dtype=np.int64)})
    a = deterministic_sample(rd.from_pandas(df).repartition(2), "id", 0.3).to_pandas()
    b = deterministic_sample(rd.from_pandas(df).repartition(31), "id", 0.3).to_pandas()
    assert set(a["id"]) == set(b["id"])
    assert 0.25 < len(a) / len(df) < 0.35


def test_hash_join_semi_anti(ray_mod):
    """semi/anti hash_join == pandas isin filters."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.joins import hash_join

    rng = np.random.default_rng(13)
    left = pd.DataFrame({"k": rng.integers(0, 100, 1000), "lv": np.arange(1000, dtype=np.int64)})
    right = pd.DataFrame({"k": rng.integers(50, 150, 300), "rv": np.arange(300, dtype=np.int64)})
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)

    semi = hash_join(lds, rds, on="k", left_cols=["lv"], right_cols=[], how="semi").to_pandas()
    anti = hash_join(lds, rds, on="k", left_cols=["lv"], right_cols=[], how="anti").to_pandas()
    in_right = left["k"].isin(set(right["k"]))
    assert sorted(semi["lv"].astype(np.int64)) == sorted(left.loc[in_right, "lv"])
    assert sorted(anti["lv"].astype(np.int64)) == sorted(left.loc[~in_right, "lv"])
    assert len(semi) + len(anti) == len(left)


def test_hash_join_left_outer(ray_mod):
    """left hash_join == pandas left merge: unmatched rows survive
    with Arrow nulls, int right columns stay int."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.joins import hash_join

    rng = np.random.default_rng(13)
    left = pd.DataFrame({"k": rng.integers(0, 100, 1000), "lv": np.arange(1000, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(50, 150, dtype=np.int64), "rv": np.arange(100, dtype=np.int64)})
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right).repartition(3)

    got = hash_join(
        lds, rds, on="k", left_cols=["lv"], right_cols=["rv"], how="left"
    ).to_pandas()
    want = left.merge(right, on="k", how="left")
    assert len(got) == len(want) == len(left)
    g = got.sort_values("lv").reset_index(drop=True)
    w = want.sort_values("lv").reset_index(drop=True)
    assert g["k"].astype(np.int64).tolist() == w["k"].astype(np.int64).tolist()
    gm = g["rv"].isna()
    assert gm.tolist() == w["rv"].isna().tolist()
    assert g.loc[~gm, "rv"].astype(np.int64).tolist() == w.loc[~w["rv"].isna(), "rv"].astype(np.int64).tolist()


def test_continuous_quantiles(ray_mod):
    """Histogram-refine percentile_cont == numpy linear interpolation
    over several distributions + degenerate cases."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import continuous_quantiles

    rng = np.random.default_rng(5)
    for vals in (rng.normal(100, 25, 5000), rng.exponential(5, 999), np.full(50, 7.0)):
        ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(6)
        got = continuous_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.9, 1.0])
        s = np.sort(vals)
        n = len(s)
        for q, v in zip(got["q"], got["v"]):
            pos = q * (n - 1)
            lo_r, hi_r = int(np.floor(pos)), int(np.ceil(pos))
            want = s[lo_r] + (s[hi_r] - s[lo_r]) * (pos - lo_r)
            assert abs(v - want) < 1e-9


def test_prefix_jaccard_recall_exact(ray_mod):
    """Prefix-filter blocking (AllPairs) has recall EXACTLY 1: every
    pair at n-gram Jaccard >= t must appear in the candidate set, and
    the verified output equals the quadratic brute force — planted
    near-dups, mutated copies, and unrelated docs."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import ngram_jaccard
    from gdal_boots_ray.stages.textstages import prefix_jaccard_candidate_pairs

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    docs = []
    base_texts = []
    for i in range(12):
        base = " ".join(rng.choice(words, size=30))
        base_texts.append(base)
        docs.append({"doc_id": 2 * i, "text": base})
        # mutated copy: drop/replace a few words -> Jaccard spread
        toks = base.split()
        for j in rng.choice(len(toks), size=rng.integers(0, 6), replace=False):
            toks[j] = str(rng.choice(words))
        docs.append({"doc_id": 2 * i + 1, "text": " ".join(toks)})
    t = 0.6
    truth = {
        (a["doc_id"], b["doc_id"])
        for a, b in itertools.combinations(docs, 2)
        if ngram_jaccard(a["text"], b["text"], 5) >= t
    }
    assert truth, "planted corpus must contain at least one near-dup pair"

    ds = rd.from_pandas(pd.DataFrame(docs)).repartition(4)
    cand = prefix_jaccard_candidate_pairs(ds, threshold=t).to_pandas()
    got_cand = {(int(r.doc_a), int(r.doc_b)) for r in cand.itertuples()}
    assert truth <= got_cand  # recall = 1 (blocking may add extras)


def test_doc_pack_prefix_scan(ray_mod):
    """The two-pass distributed scan in q_doc_pack must equal a
    single-process exclusive prefix sum over doc_id order."""
    import re

    import pandas as pd
    import pyarrow.parquet as pq

    from gdal_boots_ray.pipelines.queries.text import q_doc_pack

    sf = "/root/testdata/sf0.001"
    out = q_doc_pack(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)

    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    word = re.compile(r"[a-zA-Z0-9']+")
    tok = docs["text"].map(lambda t: len(word.findall(t.lower()))).astype("int64")
    excl = tok.cumsum().shift(fill_value=0)
    exp = pd.DataFrame(
        {
            "doc_id": docs["doc_id"].astype("int64"),
            "n_tokens": tok,
            "chunk_id": (excl // 256).astype("int64"),
        }
    )
    pd.testing.assert_frame_equal(out, exp)
    # chunks are contiguous and nondecreasing in stream order
    assert (out["chunk_id"].diff().fillna(0) >= 0).all()


def test_build_bloom_or_tree(ray_mod):
    """Distributed bitmap build (map-side OR tree, no shuffle) equals
    the single-pass kernel bitmap, and the pushdown keeps exactly the
    superset property: no false negatives, few false positives."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.bloom import bloom_partial, bloom_test, build_bloom

    keys = np.arange(0, 5000, dtype=np.int64) * 7919
    ds = rd.from_pandas(pd.DataFrame({"k": keys})).repartition(20)
    words = build_bloom(ds, lambda b: b.column("k").to_numpy(), fanin=4, levels=2)
    np.testing.assert_array_equal(words, bloom_partial(keys))
    assert bloom_test(words, keys).all()
    absent = np.arange(1, 4000, dtype=np.int64) * 7919 + 3
    assert bloom_test(words, absent).mean() < 0.05


def test_dup_components_plans(ray_mod):
    """The union-find small-graph plan and the distributed
    pointer-jumping loop return IDENTICAL (key, component) labels —
    broadcast_threshold only changes the physical plan."""
    from gdal_boots_ray.pipelines.queries.embed import q_dup_components

    sf = "/root/testdata/sf0.001"
    small = q_dup_components(sf).to_pandas().sort_values("key").reset_index(drop=True)
    looped = (
        q_dup_components(sf, broadcast_threshold=0)
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    assert small["key"].tolist() == looped["key"].tolist()
    assert small["component"].tolist() == looped["component"].tolist()


def test_attach_pair_columns(ray_mod):
    """Fused both-ends attach: payloads land on the right ends, pairs
    missing either end are dropped (inner), list payloads survive."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import attach_pair_columns

    pairs = rd.from_arrow(
        pa.table({"doc_a": pa.array([1, 2, 5], pa.int64()), "doc_b": pa.array([3, 4, 6], pa.int64())})
    )
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(["t1", "t2", "t3", "t4"], pa.string()),
            }
        )
    )
    out = attach_pair_columns(pairs, docs).to_pandas().sort_values("doc_a").reset_index(drop=True)
    assert out["doc_a"].tolist() == [1, 2]  # pair (5,6) has no docs -> dropped
    assert out["text_a"].tolist() == ["t1", "t2"]
    assert out["text_b"].tolist() == ["t3", "t4"]

    vecs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 3], pa.int64()),
                "v": pa.array([[1.0, 2.0], [3.0, 4.0]], pa.list_(pa.float64())),
            }
        )
    )
    out2 = attach_pair_columns(
        rd.from_arrow(pa.table({"a": pa.array([1], pa.int64()), "b": pa.array([3], pa.int64())})),
        vecs,
        key_a="a",
        key_b="b",
        out_a="va",
        out_b="vb",
        val_col="v",
    ).to_pandas()
    assert list(out2["va"][0]) == [1.0, 2.0] and list(out2["vb"][0]) == [3.0, 4.0]

    # duplicated pairs keep their upstream multiplicity (the chained
    # inner-join semantics): (1,3) x3 and (2,4) x1, one end missing x2
    dup_pairs = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 1, 1, 2, 5, 5], pa.int64()),
                "doc_b": pa.array([3, 3, 3, 4, 6, 6], pa.int64()),
            }
        )
    )
    out3 = attach_pair_columns(dup_pairs, docs).to_pandas().sort_values("doc_a")
    assert out3["doc_a"].tolist() == [1, 1, 1, 2]
    assert out3["text_a"].tolist() == ["t1", "t1", "t1", "t2"]
    assert out3["text_b"].tolist() == ["t3", "t3", "t3", "t4"]


def test_semdedup_scale_paths(ray_mod):
    """The blocked gram walk (tiny panels force the multi-panel code
    path) and the scaled-k clustering return the SAME drop decisions
    as the defaults — the 100 TB shape is semantics-preserving."""
    from gdal_boots_ray.pipelines.queries.embed import q_semdedup

    sf = "/root/testdata/sf0.001"

    def norm(out):
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        return df.sort_values("vec_id").reset_index(drop=True)

    base = norm(q_semdedup(sf))
    blocked = norm(q_semdedup(sf, block=16))  # forces panel iteration
    assert base["vec_id"].tolist() == blocked["vec_id"].tolist()
    assert base["n_dups"].tolist() == blocked["n_dups"].tolist()
    # scaled k (tiny target cluster -> many clusters): the planted
    # bit-identical copies still land with their originals, so the
    # survivor set is identical
    scaled = norm(q_semdedup(sf, target_cluster=64))
    assert base["vec_id"].tolist() == scaled["vec_id"].tolist()


def test_decode_windows_stage(ray_mod):
    """DecodeWindows: windowed decode through a Ray pipeline — tiled
    TIFF rows decode O(touched tiles), PNG rows decode-then-crop; both
    yield the same pixels as slicing the source field, with w/h and gt
    rewritten to the window."""
    import ray.data as rd

    from gdal_boots_ray.kernels.gtiff import gtiff_encode
    from gdal_boots_ray.kernels.png import encode_image
    from gdal_boots_ray.stages.decode import DecodeWindows, batch_pixel_views

    rows = []
    for k in range(8):
        w, h = 64 + (k % 3) * 16, 48 + (k % 2) * 16
        img = tile_pixels(k, w, h)
        gt = [10.0, 0.0, 1000.0 * k, 0.0, -10.0, 500000.0]
        if k % 2 == 0:
            blob, fmt = (
                gtiff_encode(img, gt=gt, epsg=3857, compress="lzw",
                             tiled=True, blockxsize=16, blockysize=16),
                "tiff",
            )
        else:
            blob, fmt = encode_image(img, "png"), "png"
        rows.append(
            dict(image_id=f"img-{k:08d}", bytes=blob, fmt=fmt, w=w, h=h, gt=gt,
                 wx=w // 4, wy=h // 4, ww=w // 2, wh=h // 2)
        )
    tbl = pa.Table.from_pylist(rows)
    ds = rd.from_arrow(tbl).map_batches(DecodeWindows, batch_format="pyarrow", concurrency=1)
    out = pa.concat_tables(
        [pa.Table.from_batches(b.to_batches()) for b in __import__("ray").get(ds.to_arrow_refs())]
    )
    assert out.num_rows == 8 and "bytes" not in out.column_names
    views = batch_pixel_views(out)
    ids = out.column("image_id").to_pylist()
    gts = out.column("gt").to_pylist()
    for i, iid in enumerate(ids):
        k = int(iid.split("-")[1])
        w, h = 64 + (k % 3) * 16, 48 + (k % 2) * 16
        x0, y0, cw, ch = w // 4, h // 4, w // 2, h // 2
        expect = tile_pixels(k, w, h)[y0 : y0 + ch, x0 : x0 + cw]
        assert np.array_equal(views[i], expect), iid
        assert int(out.column("w")[i].as_py()) == cw
        assert int(out.column("h")[i].as_py()) == ch
        # gt translated to the window origin
        assert gts[i][2] == 1000.0 * k + 10.0 * x0
        assert gts[i][5] == 500000.0 - 10.0 * y0
