"""The EPSG registry is one table of proj4 lines, checked without Ray.

``REFERENCE`` holds the former hand-written ``crs_from_epsg`` branches
and side tables: for each code, the consts class, kernels and
constructor arguments it used to build directly.  Every code they
served must give exactly the same forward and inverse results through
its proj4 line, with ``.key`` still the int code.  The other tests pin
the reverse lookup, ``+proj=webmerc`` and the ellipsoid/datum checks."""

import numpy as np
import pytest

from gdal_boots_ray.kernels import crs as K
from gdal_boots_ray.kernels.crs import crs_from_epsg, crs_from_proj4, epsg_from_crs

WGS84 = (6378137.0, 1.0 / 298.257223563)
GRS80 = (6378137.0, 1.0 / 298.257222101)
EVRSTSS = (6377298.556, 1.0 / 300.8017)


def _dms(d, m, s):
    return d + m / 60.0 + s / 3600.0


LCC = (K._LccConsts, K._lcc_forward, K._lcc_inverse)
PS = (K._PsConsts, K._ps_forward, K._ps_inverse)
OMERC = (K._OmercConsts, K._omerc_forward, K._omerc_inverse)
EQC = (K._EqcConsts, K._eqc_forward, K._eqc_inverse)

# code: (consts class, forward, inverse, constructor arguments)
REFERENCE = {
    3395: (K._MercConsts, K._merc_forward, K._merc_inverse, (*WGS84, 0.0, 0.0, 0.0, 0.0)),
    4087: (*EQC, (*WGS84, 0.0, 0.0, 0.0, 0.0)),
    32662: (*EQC, (WGS84[0], 0.0, 0.0, 0.0, 0.0, 0.0)),
    2154: (*LCC, (*GRS80, 46.5, 3.0, 49.0, 44.0, 700000.0, 6600000.0)),
    3034: (*LCC, (*GRS80, 52.0, 10.0, 35.0, 65.0, 4000000.0, 2800000.0)),
    3978: (*LCC, (*GRS80, 49.0, -95.0, 49.0, 77.0, 0.0, 0.0)),
    3035: (K._LaeaConsts, K._laea_forward, K._laea_inverse, (*GRS80, 52.0, 10.0, 4321000.0, 3210000.0)),
    6933: (K._CeaConsts, K._cea_forward, K._cea_inverse, (*WGS84, 30.0, 0.0, 0.0, 0.0)),
    3413: (*PS, (*WGS84, 70.0, -45.0, 0.0, 0.0, True)),
    3976: (*PS, (*WGS84, -70.0, 0.0, 0.0, 0.0, False)),
    3031: (*PS, (*WGS84, -71.0, 0.0, 0.0, 0.0, False)),
    3375: (*OMERC, (*GRS80, 4.0, 102.25, _dms(323, 1, 32.8458), _dms(323, 7, 48.3685), 0.99984, 804671.0, 0.0)),
    3376: (*OMERC, (*GRS80, 4.0, 115.0, _dms(53, 18, 56.9537), _dms(53, 7, 48.3685), 0.99984, 0.0, 0.0)),
    29873: (
        *OMERC,
        (*EVRSTSS, 4.0, 115.0, _dms(53, 18, 56.9537), _dms(53, 7, 48.3685), 0.99984, 590476.87, 442857.65),
    ),
}
for _zone in range(1, 61):
    for _code, _fn in ((32600 + _zone, 0.0), (32700 + _zone, 10000000.0)):
        REFERENCE[_code] = (K._TMConsts, K._tm_forward, K._tm_inverse, (*WGS84, 0.9996, _zone * 6 - 183, 500000.0, _fn))

_LON, _LAT = (a.ravel() for a in np.meshgrid(np.linspace(-180.0, 180.0, 49), np.linspace(-90.0, 90.0, 25)))
LON = np.concatenate([_LON, [179.999999, -179.999999, 0.0, 0.0, 12.0]])
LAT = np.concatenate([_LAT, [0.0, 0.0, 89.9999999, -89.9999999, 52.0]])


def _same(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


def _xy(lon, lat):
    """The reference forward output, NaN replaced, for the inverse."""
    return np.nan_to_num(lon), np.nan_to_num(lat)


@pytest.mark.parametrize("code", sorted(REFERENCE))
def test_registry_code_matches_former_branch(code):
    cls, fwd, inv, args = REFERENCE[code]
    c = cls(*args)
    crs = crs_from_epsg(code)
    assert crs.key == code and type(crs.key) is int and crs.kind == "projected"
    with np.errstate(all="ignore"):
        want = fwd(c, LON, LAT)
        _same(crs.from_lonlat(LON, LAT), want)
        x, y = _xy(*want)
        _same(crs.to_lonlat(x, y), inv(c, x, y))


def test_closed_form_codes_match_former_branch():
    wgs = crs_from_epsg(4326)
    assert wgs.key == 4326 and type(wgs.key) is int and wgs.kind == "geographic"
    _same(wgs.from_lonlat(LON, LAT), (LON, LAT))
    web = crs_from_epsg(3857)
    assert web.key == 3857 and type(web.key) is int
    with np.errstate(all="ignore"):
        want = K.webmercator_forward(LON, LAT)
        _same(web.from_lonlat(LON, LAT), want)
        x, y = _xy(*want)
        _same(web.to_lonlat(x, y), K.webmercator_inverse(x, y))


# The proj4 line of each code the former side tables served, with the
# cosmetic +units/+no_defs that PROJ appends.
SIDE_TABLE_PROJ4 = {
    2154: "+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 +x_0=700000 +y_0=6600000 +ellps=GRS80",
    3034: "+proj=lcc +lat_0=52 +lon_0=10 +lat_1=35 +lat_2=65 +x_0=4000000 +y_0=2800000 +ellps=GRS80",
    3978: "+proj=lcc +lat_0=49 +lon_0=-95 +lat_1=49 +lat_2=77 +x_0=0 +y_0=0 +ellps=GRS80",
    3035: "+proj=laea +lat_0=52 +lon_0=10 +x_0=4321000 +y_0=3210000 +ellps=GRS80",
    6933: "+proj=cea +lat_ts=30 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",
    3413: "+proj=stere +lat_0=90 +lat_ts=70 +lon_0=-45 +x_0=0 +y_0=0 +ellps=WGS84",
    3976: "+proj=stere +lat_0=-90 +lat_ts=-70 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",
    3031: "+proj=stere +lat_0=-90 +lat_ts=-71 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",
    3375: "+proj=omerc +lat_0=4 +lonc=102.25 +alpha=323.02579049999997 +gamma=323.13010236111114 "
    "+k=0.99984 +x_0=804671 +y_0=0 +ellps=GRS80",
    3376: "+proj=omerc +lat_0=4 +lonc=115 +alpha=53.31582047222222 +gamma=53.13010236111111 "
    "+k=0.99984 +x_0=0 +y_0=0 +ellps=GRS80",
    29873: "+proj=omerc +lat_0=4 +lonc=115 +alpha=53.31582047222222 +gamma=53.13010236111111 "
    "+k=0.99984 +x_0=590476.87 +y_0=442857.65 +ellps=evrstSS",
    3395: "+proj=merc +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",
    4087: "+proj=eqc +lat_ts=0 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",
    32662: "+proj=eqc +lat_ts=0 +lon_0=0 +x_0=0 +y_0=0 +R=6378137",
}


@pytest.mark.parametrize("code", sorted(SIDE_TABLE_PROJ4))
def test_reverse_lookup_of_side_table_codes(code):
    assert epsg_from_crs(SIDE_TABLE_PROJ4[code] + " +units=m +no_defs") == code


def test_reverse_lookup_of_every_registry_line():
    for code, p4 in K._EPSG_PROJ4.items():
        # 4269 (NAD83) and 4258 (ETRS89) share one definition; 4258 wins
        assert epsg_from_crs(p4) == (4258 if code == 4269 else code), code


def test_webmerc_is_the_spherical_closed_form():
    crs = crs_from_proj4("+proj=webmerc +ellps=WGS84")
    with np.errstate(all="ignore"):
        want = K.webmercator_forward(LON, LAT)
        _same(crs.from_lonlat(LON, LAT), want)
        x, y = _xy(*want)
        _same(crs.to_lonlat(x, y), K.webmercator_inverse(x, y))
    assert epsg_from_crs(crs) == 3857


@pytest.mark.parametrize(
    "p4, match",
    [
        ("+proj=utm +zone=33 +ellps=clrk66", r"\+ellps=clrk66"),
        ("+proj=utm +zone=33 +datum=NAD27", r"\+datum=NAD27"),
        ("+proj=utm +zone=33 +ellps=WGS84 +towgs84=-87,-98,-121", r"\+towgs84"),
        ("+proj=longlat +ellps=intl +towgs84=-87,-98,-121", r"\+towgs84"),
    ],
)
def test_unknown_ellipsoid_or_datum_shift_raises(p4, match):
    with pytest.raises(ValueError, match=match):
        crs_from_proj4(p4)


def test_known_ellipsoids_and_wgs84_datum_accepted():
    """A zero +towgs84 (PROJ writes one for WGS84-coincident datums) is no shift."""
    for ellps in ("GRS80", "WGS84", "airy", "aust_SA", "bessel", "sphere", "evrstSS"):
        crs_from_proj4(f"+proj=tmerc +lon_0=15 +ellps={ellps}")
    lon, lat = np.linspace(-180.0, 180.0, 49), np.full(49, 45.0)
    want = crs_from_proj4("+proj=utm +zone=33 +ellps=WGS84").from_lonlat(lon, lat)
    for same in ("+proj=utm +zone=33 +datum=WGS84", "+proj=utm +zone=33 +ellps=WGS84 +towgs84=0,0,0,0,0,0,0"):
        _same(crs_from_proj4(same).from_lonlat(lon, lat), want)
