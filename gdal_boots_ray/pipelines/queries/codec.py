"""Codec queries: decode -> re-encode -> decode fidelity gates for each
codec, and the COG window and overview reads."""

from __future__ import annotations

from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._common import TILE_SQL_CTE, _pixel_grid, _tiles_dataset


ORACLE_SQL: Dict[str, str] = {}


def _stats_table(ids: list, band0s: list) -> pa.Table:
    """Per-image (n_px, sum_v, min_v, max_v) of each image's band 0."""
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "n_px": pa.array([b.size for b in band0s], pa.int64()),
            "sum_v": pa.array([int(b.sum(dtype=np.int64)) for b in band0s], pa.int64()),
            "min_v": pa.array([int(b.min()) for b in band0s], pa.int64()),
            "max_v": pa.array([int(b.max()) for b in band0s], pa.int64()),
        }
    )


def _band0(img: np.ndarray) -> np.ndarray:
    return img if img.ndim == 2 else img[0]


def _decoded_stats(ds) -> pa.Table:
    """``_stats_table`` of every decoded image of ``ds``."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    def stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        return _stats_table(batch.column("image_id").to_pylist(), [_band0(v) for v in views])

    return ds.map_batches(stats, batch_format="pyarrow")


# the twin of every lossless stats gate: band-0 stats of the
# closed-form pixel field, independent of which codec carried it
_PIXEL_STATS_SQL = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """


def q_image_stats(sf_dir: str):
    """Per-image pixel stats off the decode path (validates codec +
    zero-copy view end-to-end; SQL twin enumerates the pixel field)."""
    return _decoded_stats(_tiles_dataset(sf_dir, decode=True))


ORACLE_SQL["image_stats"] = _PIXEL_STATS_SQL


def q_image_stats_u16(sf_dir: str):
    """Multi-dtype decode path: uint16 payloads (16-bit PNG + RAW1
    dtype streams) decode to px_dtype-tagged pixel buffers; stats run
    on the dtype-aware zero-copy views.  SQL twin enumerates the
    %60000 field."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_u16_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    ds = ds.map_batches(
        lambda b: synth_images_u16_batch(b.column("p_partkey").to_numpy()),
        batch_format="pyarrow",
        batch_size=256,
    )
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), batch_size=128)

    def stats(batch: pa.Table) -> pa.Table:
        b0s = [_band0(v) for v in batch_pixel_views(batch)]
        for b0 in b0s:
            assert b0.dtype == np.uint16, f"expected uint16 view, got {b0.dtype}"
        return _stats_table(batch.column("image_id").to_pylist(), b0s)

    return ds.map_batches(stats, batch_format="pyarrow")


ORACLE_SQL["image_stats_u16"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 60000 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """


def q_recode_stats(sf_dir: str):
    """Fidelity gate as a query: decode -> re-encode (png) -> decode
    again -> per-image stats; must equal the direct image_stats oracle
    (lossless round trip, BASELINE.json input_hint)."""
    from gdal_boots_ray.stages.decode import DecodeImages, EncodeImages

    ds = _tiles_dataset(sf_dir, decode=True)
    ds = ds.map_batches(EncodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)
    return _decoded_stats(ds)


ORACLE_SQL["recode_stats"] = _PIXEL_STATS_SQL


def _recode_stats(sf_dir: str, encode_kwargs: dict, stack3: bool = False):
    """Shared body of every codec fidelity gate: decode each tile,
    re-encode through the pure-python TIFF container with
    ``encode_kwargs``, decode again, and emit band-0 stats that equal
    the closed-form pixel-field oracle iff the codec round trip is
    bit-exact.  ``stack3`` replicates mono tiles to the 3-band layout
    codecs like WEBP require (band-0 stats keep the same twin).
    Embarrassingly parallel actor-pool map_batches; the whole corpus
    streams through it."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def roundtrip_stats(batch: pa.Table) -> pa.Table:
        b0s = []
        for img in batch_pixel_views(batch):
            img = img if img.ndim == 3 else img[None]
            if stack3 and img.shape[0] < 3:
                img = np.repeat(img[:1], 3, axis=0)
            blob = gtiff_encode(np.ascontiguousarray(img[:3] if stack3 else img),
                                **encode_kwargs)
            b0s.append(_band0(gtiff_decode(blob)[0]))
        return _stats_table(batch.column("image_id").to_pylist(), b0s)

    return ds.map_batches(roundtrip_stats, batch_format="pyarrow", num_cpus=1)


def q_recode_stats_tiff_lzw(sf_dir: str):
    """GeoTIFF LZW fidelity gate: LZW + the horizontal-differencing
    predictor (kernels/gtiff.py — reference ``GTiff.Compress.lzw``,
    reference options.py:66-80, the single most common real-world
    GeoTIFF compression) through the shared ``_recode_stats`` body."""
    return _recode_stats(sf_dir, {"compress": "lzw", "predictor": 2})


ORACLE_SQL["recode_stats_tiff_lzw"] = _PIXEL_STATS_SQL


def q_recode_stats_zstd(sf_dir: str):
    """GeoTIFF ZSTD fidelity gate: the FROM-SCRATCH RFC 8878
    Zstandard compressor (kernels/zstd.py: hash-table LZ, Huffman
    literals, FSE-coded sequences; Compression=50000, GDAL's
    registered tag — reference ``GTiff.Compress.zstd``, previously an
    external-codec seam) + the predictor, through the shared
    ``_recode_stats`` body."""
    return _recode_stats(sf_dir, {"compress": "zstd", "predictor": 2})


ORACLE_SQL["recode_stats_zstd"] = _PIXEL_STATS_SQL


def q_recode_stats_lerc(sf_dir: str):
    """GeoTIFF LERC_ZSTD fidelity gate: the FROM-SCRATCH LERC
    microblock codec (kernels/lerc.py, Compression=34887 +
    LercParameters, lossless for integer data) wrapped in the RFC
    8878 zstd pass — the reference's ``GTiff.Compress.lerc_zstd``
    member, previously an external-codec seam — through the shared
    ``_recode_stats`` body (gates the bit-stuffing AND the zstd
    round trip together)."""
    return _recode_stats(sf_dir, {"compress": "lerc_zstd"})


ORACLE_SQL["recode_stats_lerc"] = _PIXEL_STATS_SQL


def q_recode_stats_webp(sf_dir: str):
    """GeoTIFF WEBP fidelity gate: the FROM-SCRATCH VP8L lossless
    codec (kernels/webp.py: RIFF/VP8L container, canonical prefix
    codes, LZ77 runs + color cache; Compression=50001 — reference
    ``GTiff.Compress.webp``, previously an external-codec seam)
    through the shared ``_recode_stats`` body with the 3-band stack
    WEBP-in-TIFF requires."""
    return _recode_stats(sf_dir, {"compress": "webp"}, stack3=True)


ORACLE_SQL["recode_stats_webp"] = _PIXEL_STATS_SQL


def q_window_stats_cog(sf_dir: str):
    """Cloud-optimized-GeoTIFF windowed-read gate: re-encode each
    image through the TIFF 6.0 *tiled* layout (kernels/gtiff.py —
    TileWidth/TileLength/TileOffsets/TileByteCounts, the reference's
    ``GTiff(tiled=True, blockxsize, blockysize)`` creation options,
    reference options.py:80-82), then decode ONLY the centre-quarter
    window via ``gtiff_decode_window`` — the O(touched tiles) access
    pattern a 100 TB scan relies on to read sub-windows without
    paying whole-raster decode.  Window stats equal the closed-form
    pixel field restricted to [w//4, w//4+w//2) x [h//4, h//4+h//2)
    iff tile chunking, edge-tile padding and window intersection are
    all pixel-exact.  Embarrassingly parallel map_batches; nothing
    crosses a shuffle."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode_window, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def window_stats(batch: pa.Table) -> pa.Table:
        b0s = []
        for img in batch_pixel_views(batch):
            img = img if img.ndim == 3 else img[None]
            blob = gtiff_encode(
                np.ascontiguousarray(img), compress="deflate",
                tiled=True, blockxsize=16, blockysize=16,
            )
            _, h, w = img.shape
            b0s.append(_band0(gtiff_decode_window(blob, w // 4, h // 4, w // 2, h // 2)[0]))
        return _stats_table(batch.column("image_id").to_pylist(), b0s)

    return ds.map_batches(window_stats, batch_format="pyarrow", num_cpus=1)


ORACLE_SQL["window_stats_cog"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(
                     CAST(tiles.w // 4 AS INT),
                     CAST(tiles.w // 4 + tiles.w // 2 - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(
                     CAST(tiles.h // 4 AS INT),
                     CAST(tiles.h // 4 + tiles.h // 2 - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """


# the twin of both overview pyramids: per (image, level) the dims and
# the sum of the floor-averaged lv x lv blocks of the pixel field
_POOLED_SQL = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        ),
        lv AS (SELECT unnest([2, 4]) AS lv),
        pooled AS (
            SELECT image_id, lv, x // lv AS bx, y // lv AS by,
                   CAST(sum(v) AS BIGINT) // (lv * lv) AS pv
            FROM px, lv
            WHERE x < (w // lv) * lv AND y < (h // lv) * lv
            GROUP BY 1, 2, 3, 4
        )
        SELECT image_id, CAST(lv AS BIGINT) AS level,
               CAST(max(bx) + 1 AS BIGINT) AS ovr_w,
               CAST(max(by) + 1 AS BIGINT) AS ovr_h,
               CAST(sum(pv) AS BIGINT) AS sum_pooled
        FROM pooled GROUP BY 1, 2
    """


def q_cog_pyramid(sf_dir: str, levels=(2, 4)):
    """In-file overview pyramid gate (the gdaladdo / BuildOverviews
    output structure): encode each image as a tiled GeoTIFF whose IFD
    chain carries AVERAGE-resampled reduced-resolution pages
    (kernels/gtiff.py ``overviews=`` + ``gtiff_decode_overview``),
    then decode every overview PAGE back out of the container and
    report per (image, level) dims + BIGINT sum of pooled values.
    Matches the closed-form pooling twin iff the multi-IFD chain,
    per-page chunk layout and floor-average pooling are all exact —
    unlike ``tile_overviews`` this round-trips the bytes, so it gates
    the container format, not just the pooling math.  Embarrassingly
    parallel; nothing crosses a shuffle."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode_overview, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    lvs = tuple(int(lv) for lv in levels)
    ds = _tiles_dataset(sf_dir, decode=True)

    def pyramid_stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_lv, out_w, out_h, out_sum = [], [], [], [], []
        for i in range(len(ids)):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            blob = gtiff_encode(
                np.ascontiguousarray(img), compress="deflate",
                tiled=True, blockxsize=16, blockysize=16, overviews=lvs,
            )
            for oi, lv in enumerate(lvs):
                ov, _, _ = gtiff_decode_overview(blob, oi)
                b0 = ov if ov.ndim == 2 else ov[0]
                out_id.append(ids[i])
                out_lv.append(lv)
                out_h.append(b0.shape[0])
                out_w.append(b0.shape[1])
                out_sum.append(int(b0.sum(dtype=np.int64)))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lv, pa.int64()),
                "ovr_w": pa.array(out_w, pa.int64()),
                "ovr_h": pa.array(out_h, pa.int64()),
                "sum_pooled": pa.array(out_sum, pa.int64()),
            }
        )

    return ds.map_batches(pyramid_stats, batch_format="pyarrow", num_cpus=1)


ORACLE_SQL["cog_pyramid"] = _POOLED_SQL


def q_tile_overviews(sf_dir: str, levels=(2, 4)):
    """Overview pyramid (the gdaladdo / BuildOverviews family the
    reference's GDAL backend provides): per image, AVERAGE-resampled
    overview levels 2x and 4x, each computed from the full-resolution
    band with integer floor-average pooling (sum of the lv x lv block
    // lv^2 — the engine's AVERAGE convention; GDAL's own integer
    AVERAGE rounds to nearest, differing by 1 LSB on .5 boundaries).
    Embarrassingly parallel decode->pool inside map_batches; the twin
    replays pooling as a GROUP BY x//lv, y//lv over the closed-form
    pixel field.  Per (image, level): overview dims + BIGINT sum of
    pooled values (NOT derivable from the full-res sum — floor
    division makes it a real resampling check)."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def ovr(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_lv, out_w, out_h, out_sum = [], [], [], [], []
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            h, w = b0.shape
            for lv in levels:
                h2, w2 = h // lv, w // lv
                blk = b0[: h2 * lv, : w2 * lv].reshape(h2, lv, w2, lv).sum(axis=(1, 3))
                pooled = blk // (lv * lv)
                out_id.append(ids[i])
                out_lv.append(lv)
                out_w.append(w2)
                out_h.append(h2)
                out_sum.append(int(pooled.sum()))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lv, pa.int64()),
                "ovr_w": pa.array(out_w, pa.int64()),
                "ovr_h": pa.array(out_h, pa.int64()),
                "sum_pooled": pa.array(out_sum, pa.int64()),
            }
        )

    return ds.map_batches(ovr, batch_format="pyarrow")


ORACLE_SQL["tile_overviews"] = _POOLED_SQL


def _key_filtered_tiles(sf_dir: str, n_tiles: int):
    """Decoded tiles of the part keys below ``n_tiles``, for the gates
    whose per-tile codec is too slow for the whole corpus.  Unlike
    ``_first_tiles`` the filter is pushed into the parquet read, so the
    other tiles are not even synthesized."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"], filter=pc.field("p_partkey") < n_tiles
    )

    def synth(batch: pa.Table) -> pa.Table:
        return synth_images_batch(batch.column("p_partkey").to_numpy())

    ds = ds.map_batches(synth, batch_format="pyarrow", batch_size=64)
    return ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)


def q_recode_stats_jp2(sf_dir: str, n_tiles: int = 24):
    """Lossless JPEG 2000 fidelity gate: decode -> re-encode through
    the from-scratch JP2 codec (kernels/jp2: 5/3 DWT + EBCOT + MQ)
    -> decode -> per-image stats; equals the closed-form pixel-field
    oracle iff the wavelet round trip is bit-exact.  Restricted to
    ``n_tiles`` tiles because EBCOT bit-plane coding is a sequential
    per-block algorithm (~0.1 s/tile in pure Python) — the Ray-side
    plumbing (actor-pool encode, zero-copy views) is the same as the
    full-corpus recode_stats path."""
    from gdal_boots_ray.kernels.jp2.codestream import decode_jp2, encode_jp2
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _key_filtered_tiles(sf_dir, n_tiles)

    def jp2_roundtrip_stats(batch: pa.Table) -> pa.Table:
        b0s = []
        for img in batch_pixel_views(batch):
            img = img if img.ndim == 3 else img[None]
            b0s.append(decode_jp2(encode_jp2(np.ascontiguousarray(img)))[0])
        return _stats_table(batch.column("image_id").to_pylist(), b0s)

    return ds.map_batches(jp2_roundtrip_stats, batch_format="pyarrow", batch_size=8, num_cpus=1)


ORACLE_SQL["recode_stats_jp2"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
            WHERE tiles.k < 24
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """


def q_recode_stats_jp2_lossy(sf_dir: str, n_tiles: int = 24, quality: float = 50, min_db: float = 40.0):
    """Lossy JPEG 2000 rate control under the PSNR gate: decode ->
    JP2 encode at quality=50 (quantized-subband path, the reference's
    JP2OpenJPEG(quality=50) readme example, options.py:124-130) ->
    decode -> per-image PSNR vs the original must clear the 40 dB
    input_hint bound AND the lossy stream must be strictly smaller
    than the lossless one (rate control actually engaged).  The
    oracle emits one all-true row per image."""
    from gdal_boots_ray.kernels.jp2.codestream import decode_jp2, encode_jp2
    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _key_filtered_tiles(sf_dir, n_tiles)

    def lossy_gate(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        ok_psnr, ok_rate = [], []
        for i in range(len(ids)):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            img = np.ascontiguousarray(img)
            lossy = encode_jp2(img, quality=quality)
            back = decode_jp2(lossy)
            db = psnr(img.reshape(back.shape), back)
            ok_psnr.append(bool(db >= min_db))
            ok_rate.append(len(lossy) < len(encode_jp2(img)))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "rate_ok": pa.array(ok_rate, pa.bool_()),
            }
        )

    return ds.map_batches(lossy_gate, batch_format="pyarrow", batch_size=8, num_cpus=1)


ORACLE_SQL["recode_stats_jp2_lossy"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS rate_ok
        FROM tiles WHERE k < 24
    """


def q_recode_stats_jpeg(sf_dir: str, n_tiles: int = 200, quality: int = 95, min_db: float = 40.0):
    """Baseline JPEG (ITU-T T.81, kernels/jpeg.py) through the full
    GeoTIFF container: decode -> GTiff(compress=jpeg) encode
    (Compression=7 single-strip JFIF, the reference's
    GTiff.Compress.jpeg enum value, reference options.py:66-80) ->
    gtiff_decode -> per-image PSNR vs the original must clear the
    40 dB input_hint bound AND the quality-95 stream must be
    strictly smaller than the quality-100 stream (the quantizer
    actually engaged).  Geo metadata (gt/epsg) must survive the
    round trip byte-exactly.  The oracle emits one all-true row per
    image.  Unlike JP2's sequential EBCOT, the JPEG entropy coder is
    ~1 ms/tile, so the gate covers ``n_tiles=200`` tiles."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode, gtiff_encode
    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _key_filtered_tiles(sf_dir, n_tiles)

    def jpeg_gate(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        ok_psnr, ok_rate, ok_geo = [], [], []
        gt = [10.0, 0.0, 600000.0, 0.0, -10.0, 5700000.0]
        for i in range(len(ids)):
            img = np.ascontiguousarray(views[i] if views[i].ndim == 3 else views[i][None])
            lossy = gtiff_encode(img, gt=gt, epsg=32635, compress="jpeg", jpeg_quality=quality)
            back, gt2, epsg2 = gtiff_decode(lossy)
            back = back if back.ndim == 3 else back[None]
            db = psnr(img, back)
            ok_psnr.append(bool(db >= min_db))
            ok_rate.append(
                len(lossy)
                < len(gtiff_encode(img, gt=gt, epsg=32635, compress="jpeg", jpeg_quality=100))
            )
            ok_geo.append(bool(np.array_equal(gt2, np.array(gt)) and epsg2 == 32635))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "rate_ok": pa.array(ok_rate, pa.bool_()),
                "geo_ok": pa.array(ok_geo, pa.bool_()),
            }
        )

    return ds.map_batches(jpeg_gate, batch_format="pyarrow", batch_size=16, num_cpus=1)


ORACLE_SQL["recode_stats_jpeg"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS rate_ok,
               CAST(true AS BOOLEAN) AS geo_ok
        FROM tiles WHERE k < 200
    """


def q_psnr_fidelity(sf_dir: str, quantize_bits: int = 5, min_db: float = 40.0):
    """The BASELINE.json input_hint per-row invariant as a checked
    query: decode -> 5-bit lossy quantize -> PNG re-encode -> decode
    -> per-image PSNR vs the original must clear 40 dB, and the
    caption column must ride through the whole chain unchanged.  The
    oracle emits one all-true row per image, so any fidelity or
    caption regression breaks the hash."""
    from gdal_boots_ray.kernels.png import decode_image, encode_image, psnr
    from gdal_boots_ray.stages.decode import batch_pixel_views, lossy_quantize

    ds = _tiles_dataset(sf_dir, decode=True)

    def fidelity(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        captions = batch.column("caption").to_pylist()
        ok_psnr, ok_caption = [], []
        for i, iid in enumerate(ids):
            img = views[i]
            q = lossy_quantize(img, quantize_bits)
            back = decode_image(encode_image(q, "png"), "png")
            db = psnr(img.reshape(back.shape), back)
            ok_psnr.append(bool(db >= min_db))
            ok_caption.append(captions[i] == f"tile {iid}")
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "caption_ok": pa.array(ok_caption, pa.bool_()),
            }
        )

    return ds.map_batches(fidelity, batch_format="pyarrow")


ORACLE_SQL["psnr_fidelity"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS caption_ok
        FROM tiles
    """
