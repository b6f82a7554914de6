"""One-pass distributed statistics: embedding_cov partials, the
geodesic polygon metrics (Chamberlain-Duquette area + haversine
perimeter) and the per-tile lag-1 correlation — invariant checks
independent of the DuckDB twins."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def ray_mod(ray_session):
    import ray

    return ray


SF = "/root/testdata/sf0.001"


def test_embedding_cov_matches_direct(ray_mod):
    """The distributed blob-partial plan must equal the direct
    quantized dense computation on the same vectors."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.pipelines.queries.embed import q_embedding_cov

    out = q_embedding_cov(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    x = (
        emb.column("embedding")
        .combine_chunks()
        .flatten()
        .to_numpy(zero_copy_only=False)
        .reshape(len(emb), -1)
        .astype(np.float64)
    )
    dim = x.shape[1]
    ia, ib = np.triu_indices(dim)
    direct = np.floor(x[:, ia] * x[:, ib] * 1e6 + 0.5).astype(np.int64).sum(axis=0)
    got = out.sort_values(["dim_a", "dim_b"])
    assert len(got) == dim * (dim + 1) // 2
    assert np.array_equal(got["sxy"].to_numpy(), direct)
    # diagonal of a Gram matrix is non-negative
    diag = got[got["dim_a"] == got["dim_b"]]["sxy"].to_numpy()
    assert (diag >= 0).all()


def test_embedding_cov_block_invariant(ray_mod):
    """Integer micro-unit partials make the total independent of how
    rows are split into blocks."""
    import ray.data as rd

    import gdal_boots_ray.pipelines.queries.embed as q

    base = q.q_embedding_cov(SF).to_pandas().sort_values(["dim_a", "dim_b"])

    orig = q._read

    def tiny_read(path, columns=None, **kw):
        return orig(path, columns=columns, floor=32, min_block_bytes=1 << 12)

    q._read, saved = tiny_read, q._read
    try:
        split = q.q_embedding_cov(SF).to_pandas().sort_values(["dim_a", "dim_b"])
    finally:
        q._read = saved
    assert np.array_equal(base["sxy"].to_numpy(), split["sxy"].to_numpy())


def test_embedding_cov_empty_input(ray_mod):
    """No embedding rows: zero result rows, as the SQL twin's GROUP BY
    gives, instead of an IndexError."""
    import pyarrow.parquet as pq
    import ray.data as rd

    import gdal_boots_ray.pipelines.queries.embed as q

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    q._read, saved = (lambda path, columns=None, **kw: rd.from_arrow(emb.slice(0, 0))), q._read
    try:
        out = q.q_embedding_cov(SF)
    finally:
        q._read = saved
    assert out.num_rows == 0
    assert out.column_names == ["dim_a", "dim_b", "sxy"]


def test_poly_geodesic_against_planar(ray_mod):
    """At ~3 km diamond scale the geodesic area must equal the planar
    (projected-metre) area corrected by the spherical-mercator areal
    inflation cos^2(lat), to well under 1%; same for perimeter with
    cos(lat).  Catches wrong-hemisphere, degree/radian and
    double-counting bugs the twin could share."""
    from gdal_boots_ray.pipelines.queries.geo import q_poly_geodesic, q_poly_metrics

    geo = q_poly_geodesic(SF).to_pandas().set_index("poly_id")
    pla = q_poly_metrics(SF).to_pandas().set_index("poly_id")
    R = 6378137.0
    for pid in geo.index:
        # diamond center latitude from the fixture params
        from gdal_boots_ray.sources.fixtures import nation_polygon_params

        cx, cy, rx, ry = nation_polygon_params(int(pid))
        lat = 2 * np.arctan(np.exp(cy / R)) - np.pi / 2
        k2 = np.cos(lat) ** 2
        planar_km2 = pla.loc[pid, "area"] * k2 / 1e6
        assert abs(geo.loc[pid, "area_km2"] / planar_km2 - 1) < 5e-3, pid
        planar_km = pla.loc[pid, "perimeter"] * np.cos(lat) / 1e3
        assert abs(geo.loc[pid, "perim_km"] / planar_km - 1) < 5e-3, pid


def test_poly_geodesic_sphere_convergence(ray_mod):
    """The Chamberlain-Duquette sum is the short-edge discretization of
    the spherical Green's-theorem integral: densifying the octant
    boundary must converge to the exact 4*pi*R^2/8 (at 1000 segments
    per edge, to ~1e-6 relative).  Pins the formula the query and its
    twin share against an independent closed form."""
    R = 6371000.0

    def cd_area(lam, phi):
        lam2 = np.roll(lam, -1)
        phi2 = np.roll(phi, -1)
        return abs(np.sum((lam2 - lam) * (2.0 + np.sin(phi) + np.sin(phi2)))) * R * R / 2.0

    n = 1000
    lam = np.concatenate(
        [np.linspace(0, np.pi / 2, n, endpoint=False), np.full(n, np.pi / 2), np.zeros(n)]
    )
    phi = np.concatenate(
        [
            np.zeros(n),
            np.linspace(0, np.pi / 2, n, endpoint=False),
            np.linspace(np.pi / 2, 0, n, endpoint=False),
        ]
    )
    assert abs(cd_area(lam, phi) / (np.pi * R * R / 2) - 1) < 1e-5


def test_tile_temporal_interp_scalar_replay(ray_mod):
    """Independent per-pixel scalar replay of the vectorized temporal
    gap-fill for the first tile: same epochs, same mask rule, nearest
    valid neighbors found by linear scan."""
    from gdal_boots_ray.pipelines.queries.raster import q_tile_temporal_interp

    out = q_tile_temporal_interp(SF).to_pandas().set_index("image_id")
    row = out.loc["img-00000000"]
    # tile 0: w = 32, h = 32 (TILE_SQL_CTE with k = 0)
    w, h, k = 32, 32, 0
    n_interp = 0
    s = 0
    for y in range(h):
        for x in range(w):
            a = (x * 31 + y * 17 + k) % 256
            vals = [(a + 37 * t) % 256 for t in range(5)]
            ok = [(7 * a + 13 * t) % 10 >= 3 for t in range(5)]
            for t in range(5):
                if ok[t]:
                    continue
                n_interp += 1
                prevs = [u for u in range(t) if ok[u]]
                nxts = [u for u in range(t + 1, 5) if ok[u]]
                if not prevs:
                    s += vals[nxts[0]] * 1000
                elif not nxts:
                    s += vals[prevs[-1]] * 1000
                else:
                    tp, tn = prevs[-1], nxts[0]
                    s += int(
                        np.floor(
                            vals[tp] * 1000.0
                            + (vals[tn] - vals[tp]) * 1000.0 * (t - tp) / (tn - tp)
                            + 0.5
                        )
                    )
    assert int(row["n_px"]) == w * h
    assert int(row["n_interp"]) == n_interp
    assert int(row["sum_interp"]) == s


def test_lag1_corr_constant_tile_is_null():
    """A zero variance gives None (the twin's NULL), not a division error."""
    from gdal_boots_ray.pipelines.queries.raster import _lag1_corr

    assert _lag1_corr(np.full((4, 6), 7, np.uint8)) == (20, None)
    # only the west column varies: the east-shifted band is constant
    band = np.full((5, 3), 9, np.uint8)
    band[:, 0] = np.arange(5)
    assert _lag1_corr(band) == (10, None)


def test_lag1_corr_random_tile_matches_corrcoef():
    from gdal_boots_ray.pipelines.queries.raster import _lag1_corr

    band = np.random.default_rng(3).integers(0, 256, (24, 17)).astype(np.uint8)
    n, r = _lag1_corr(band)
    assert n == 24 * 16
    want = np.corrcoef(band[:, :-1].ravel().astype(np.float64), band[:, 1:].ravel().astype(np.float64))[0, 1]
    assert r == pytest.approx(want, rel=1e-12)
