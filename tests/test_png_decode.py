"""PNG decode: single-band decode (``band=``) equals the matching plane
of a full decode on every path, the Up/Average/Paeth fallback decodes
an independently filtered stream, and truncated or corrupt streams
raise ValueError with the cause."""

import struct
import zlib

import numpy as np
import pytest

from gdal_boots_ray.kernels.png import _BANDS_TO_COLOR, _MAGIC, _chunk, decode_image, png_decode, png_encode


def _plane(full, b):
    return full if full.ndim == 2 else full[b]


@pytest.mark.parametrize("bands", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("filter_type", ["none", "sub"])
@pytest.mark.parametrize("hw", [(1, 1), (1, 9), (7, 1), (23, 17)])
def test_band_decode_matches_full_decode(bands, dtype, filter_type, hw):
    rng = np.random.default_rng(bands * 100 + hw[0] * 10 + hw[1])
    img = rng.integers(0, np.iinfo(dtype).max, (bands, *hw), endpoint=True).astype(dtype)
    e = png_encode(img, filter_type=filter_type)
    full = png_decode(e)
    assert np.array_equal(full, img if bands > 1 else img[0])
    for b in range(bands):
        got = png_decode(e, band=b)
        assert got.dtype == dtype and got.shape == hw and got.flags.c_contiguous
        assert np.array_equal(got, _plane(full, b))
        assert np.array_equal(decode_image(e, "png", band=b), got)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)


def _filter_row(ft, cur, prior, bpp):
    """Forward PNG filter of one scanline (ints), the encoder side."""
    out = []
    for i, x in enumerate(cur):
        a = cur[i - bpp] if i >= bpp else 0
        b = prior[i]
        c = prior[i - bpp] if i >= bpp else 0
        pred = [0, a, b, (a + b) // 2, _paeth(a, b, c)][ft]
        out.append((x - pred) & 0xFF)
    return [ft] + out


def _hand_built(img, ftypes, n_idat=1):
    """PNG stream of (bands, h, w) uint8 or uint16 ``img`` with scanline
    filter ``ftypes[y]`` on row y and its zlib stream cut into
    ``n_idat`` IDAT chunks — not something png_encode can write."""
    bands, h, w = img.shape
    size = img.dtype.itemsize
    be = np.ascontiguousarray(np.transpose(img, (1, 2, 0))).astype(img.dtype.newbyteorder(">"))
    rows = be.reshape(h, -1).view(np.uint8).astype(int).tolist()
    prior = [0] * (w * bands * size)
    data = []
    for y in range(h):
        data += _filter_row(ftypes[y], rows[y], prior, bands * size)
        prior = rows[y]
    ihdr = struct.pack(">IIBBBBB", w, h, 8 * size, _BANDS_TO_COLOR[bands], 0, 0, 0)
    z = zlib.compress(bytes(data))
    cuts = np.linspace(0, len(z), n_idat + 1).astype(int)
    idat = b"".join(_chunk(b"IDAT", z[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
    return _MAGIC + _chunk(b"IHDR", ihdr) + idat + _chunk(b"IEND", b"")


@pytest.mark.parametrize("bands", [1, 3, 4])
@pytest.mark.parametrize("ftypes", ["up_avg_paeth", "none_sub_mixed"])
def test_hand_built_filters(bands, ftypes):
    rng = np.random.default_rng(bands)
    img = rng.integers(0, 256, (bands, 9, 6)).astype(np.uint8)
    pattern = [2, 3, 4, 0, 1] if ftypes == "up_avg_paeth" else [1, 0, 0, 1, 1]
    e = _hand_built(img, [pattern[y % 5] for y in range(9)])
    full = png_decode(e)
    assert np.array_equal(full, img if bands > 1 else img[0])
    for b in range(bands):
        assert np.array_equal(png_decode(e, band=b), img[b])


def test_band_out_of_range():
    e = png_encode(np.zeros((3, 4, 4), np.uint8))
    for b in (-1, 3):
        with pytest.raises(ValueError, match="band"):
            png_decode(e, band=b)
    with pytest.raises(ValueError, match="band"):
        decode_image(b"RAW1" + struct.pack("<BHII", 1, 1, 2, 2) + bytes(4), "raw", band=1)


def test_truncated_stream_raises_value_error():
    img = np.random.default_rng(0).integers(0, 256, (3, 16, 16)).astype(np.uint8)
    e = png_encode(img)
    for cut in [0, 7, 8, 20, 33, 40, len(e) // 2, len(e) - 12, len(e) - 1]:
        for band in (None, 0):
            with pytest.raises(ValueError, match="PNG"):
                png_decode(e[:cut], band=band)


def _with_idat(e, payload):
    """Stream ``e`` with its IDAT payload replaced (valid chunk CRC)."""
    return e[:33] + _chunk(b"IDAT", payload) + _chunk(b"IEND", b"")


@pytest.mark.parametrize("band", [None, 0])
def test_corrupt_stream_raises_value_error(band):
    img = np.random.default_rng(1).integers(0, 256, (3, 16, 16)).astype(np.uint8)
    e = png_encode(img)
    idat = e[41:-16]
    inflated = zlib.decompress(idat)
    cases = {
        "zlib stream": _with_idat(e, idat[:-9] + bytes(9)),
        "inflates to": _with_idat(e, zlib.compress(inflated[:-5])),
        "IHDR is 12 bytes": e[:8] + _chunk(b"IHDR", e[16:28]) + e[33:],
        "no IHDR": e[:8] + e[33:],
        "no IDAT": e[:33] + _chunk(b"IEND", b""),
        "filter type 7": _with_idat(e, zlib.compress(b"\x07" + inflated[1:])),
    }
    for cause, data in cases.items():
        with pytest.raises(ValueError, match=cause):
            png_decode(data, band=band)


FILTERS = {"none": [0], "sub": [1], "mixed": [1, 0, 0, 1, 1], "up": [2], "average": [3], "paeth": [4]}


@pytest.mark.parametrize("bands", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("filters", list(FILTERS))
@pytest.mark.parametrize("hw", [(1, 5), (6, 4)])
@pytest.mark.parametrize("n_idat", [1, 3])
def test_decode_into_destination(bands, dtype, filters, hw, n_idat):
    """``decode_image(..., band=b, out=dest)`` writes band ``b`` into
    ``dest``, a view into a bigger buffer, and returns it: the same
    pixels as the full decode's plane, from bytes, a memoryview or a
    uint8 array, into a buffer of the stream's dtype or a wider one,
    and nothing outside the view is touched."""
    rng = np.random.default_rng(bands * 10 + len(filters) + hw[0] + n_idat)
    img = rng.integers(0, np.iinfo(dtype).max, (bands, *hw), endpoint=True).astype(dtype)
    pattern = FILTERS[filters]
    e = _hand_built(img, [pattern[y % len(pattern)] for y in range(hw[0])], n_idat)
    full = png_decode(e)
    assert np.array_equal(full, img if bands > 1 else img[0])
    n = hw[0] * hw[1]
    for data in (e, memoryview(e), np.frombuffer(e, np.uint8)):
        for buf_dtype in {np.dtype(dtype), np.dtype(np.uint16)}:
            for b in range(bands):
                buf = np.full(n + 6, 77, buf_dtype)
                dest = buf[3 : 3 + n].reshape(hw)
                assert decode_image(data, "png", band=b, out=dest) is dest
                assert np.array_equal(dest, _plane(full, b))
                assert (buf[:3] == 77).all() and (buf[3 + n :] == 77).all()
    if bands == 1:
        dest = np.zeros(hw, dtype)
        assert png_decode(memoryview(e), out=dest) is dest and np.array_equal(dest, full)


def test_destination_of_the_wrong_shape_raises_value_error():
    e = png_encode(np.zeros((3, 4, 5), np.uint8))
    for shape in [(5, 4), (4, 4), (3, 4, 5), (20,)]:
        with pytest.raises(ValueError, match="out is"):
            decode_image(e, "png", band=0, out=np.zeros(shape, np.uint8))
    raw = b"RAW1" + struct.pack("<BHII", 1, 1, 2, 3) + bytes(6)
    assert decode_image(memoryview(raw), "raw", band=0, out=np.ones((2, 3), np.uint8)).sum() == 0
    with pytest.raises(ValueError, match="out is"):
        decode_image(raw, "raw", band=0, out=np.zeros((3, 2), np.uint8))


def test_truncated_or_corrupt_stream_with_destination_raises_value_error():
    img = np.random.default_rng(1).integers(0, 256, (3, 16, 16)).astype(np.uint8)
    e = png_encode(img)
    idat = e[41:-16]
    inflated = zlib.decompress(idat)
    cases = [
        ("zlib stream", _with_idat(e, idat[:-9] + bytes(9))),
        ("inflates to", _with_idat(e, zlib.compress(inflated[:-5]))),
        ("no IDAT", e[:33] + _chunk(b"IEND", b"")),
        ("filter type 7", _with_idat(e, zlib.compress(b"\x07" + inflated[1:]))),
    ]
    cases += [("truncated PNG|not a PNG stream", e[:cut]) for cut in [0, 7, 20, 40, len(e) // 2, len(e) - 1]]
    for cause, data in cases:
        for view in (data, memoryview(data)):
            with pytest.raises(ValueError, match=cause):
                decode_image(view, "png", band=0, out=np.zeros((16, 16), np.uint8))


def test_bad_raw_stream_raises_value_error():
    good = b"RAW1" + struct.pack("<BHII", 2, 1, 2, 3) + bytes(12)
    assert decode_image(np.frombuffer(good, np.uint8), "raw").dtype == np.uint16
    cases = [
        ("not a RAW1 stream", b"RAW2" + good[4:]),
        ("truncated RAW1", good[:10]),
        ("unknown dtype code 42", good[:4] + bytes([42]) + good[5:]),
        ("buffer is smaller", good[:-1]),
    ]
    for cause, data in cases:
        with pytest.raises(ValueError, match=cause):
            decode_image(data, "raw")
