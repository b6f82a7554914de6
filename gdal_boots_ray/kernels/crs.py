"""Pure-NumPy CRS transforms.

Replaces the reference's OSR ``CoordinateTransformation``
(reference geometry.py:122-157, gdal.py:301-342) with closed-form /
series implementations from public literature:

- EPSG:4326 geographic lon/lat (degrees, traditional GIS axis order —
  the reference forces OAMS_TRADITIONAL_GIS_ORDER everywhere).
- EPSG:3857 WGS84 Web / spherical Mercator (closed form).
- EPSG:326xx / 327xx UTM zones via the transverse Mercator projection
  with Karney's 6th-order Krüger series ("Transverse Mercator with an
  accuracy of a few nanometers", C.F.F. Karney 2011) — sub-millimeter
  accurate inside a zone, good for the reference's cm-level goldens
  (tests/test_geometry.py:80-112, tests/test_raster.py:372-423).
- proj4 ``+proj=aea`` Albers equal-area conic (Snyder, "Map
  Projections — A Working Manual", USGS PP 1395, eqs. 14-19..14-21),
  with the ellipsoids needed by the reference tests (aust_SA).
- Lambert conformal conic 2SP (EPSG 2154/3034/3978, +proj=lcc),
  Lambert azimuthal equal-area (EPSG 3035, +proj=laea), polar
  stereographic variant B (EPSG 3413/3976/3031, +proj=stere).
- Ellipsoidal Mercator (EPSG 3395, +proj=merc; Snyder 7-7..7-10),
  equidistant cylindrical (EPSG 4087 ellipsoidal / 32662 spherical,
  +proj=eqc; Snyder 3-21/3-26 meridian arc + Newton polish), and
  sinusoidal (+proj=sinu, Snyder 30-8..30-11) including the MODIS
  authalic sphere ``+R=6371007.181``.
- Lambert cylindrical equal-area (EPSG 6933 EASE-Grid 2.0 Global,
  +proj=cea; Snyder 10-1/10-2, EPSG method 9835) — golden: the
  published EASE-Grid 2.0 x extent ±17,367,530.45 m at lon ±180.
- Geostationary satellite view (+proj=geos, both sweep axes: GOES-R
  ABI fixed grid sweep=x, MSG SEVIRI sweep=y) — the CGMS LRIT/HRIT
  normalized geostationary projection; scan-angle coordinates scaled
  by satellite height, ray/ellipsoid intersection inverse, NaN
  outside the visible disk.  Verified against an independent ECEF
  ray-trace in tests.
- General ``+proj=tmerc`` (national grids: OSGB, Gauss-Krüger, NZTM)
  — the same Krüger series with arbitrary lat_0/lon_0/k/x_0/y_0;
  nonzero lat_0 folds the projected meridian arc into the false
  northing (PROJ: y = k0*(M - M0) + y_0).  Golden: the Ordnance
  Survey worked example (651409.903 E, 313177.270 N) to < 1 mm.
  EPSG codes needing a datum shift (e.g. 27700's OSGB36 Helmert)
  stay rejected — proj4 form only, matching no-``+towgs84``
  semantics.
- One EPSG registry: every code but the computed UTM zones is its
  published proj4 line in ``_EPSG_PROJ4`` (WGS84-coincident datums:
  NAD83/ETRS89/GDA94/NZGD2000...), and ``crs_from_proj4`` builds
  every CRS — the pass-through families from one ``_FAMILIES`` table,
  the rest from one small builder each.  ``epsg_from_crs`` scans the
  same table, so each code's proj4 form maps back to its code.
- Stereographic, ALL aspects: polar variant B (lat_ts) and variant A
  (UPS, k0 at the pole — EPSG 5041/5042, Guidance 7-2 worked example
  to ~2 mm), oblique/equatorial ``+proj=stere`` (Snyder 21-27..21-40
  conformal-latitude form), and the double/Gauss-sphere
  ``+proj=sterea`` (EPSG method 9809; RD New worked example to
  <1 mm).  LAEA polar aspects (EASE-Grid 2.0 North/South, EPSG
  6931/6932) use Snyder 24-3/24-4 — the oblique D constant
  degenerates at the pole.
- American Polyconic (``+proj=poly``, EPSG method 9818; SIRGAS 2000 /
  Brazil Polyconic 5880) — closed Snyder forward over the shared
  meridian-arc series, Newton inverse; pinned by arc-true central
  meridian / circular-arc parallel invariants.
- Bonne (``+proj=bonne``, EPSG method 9827; legacy French/Portuguese
  survey grids) — equal-area pseudoconic pinned by numeric areal
  scale == 1, true-scale standard parallel and arc-true central
  meridian.
- Equidistant Conic (``+proj=eqdc``, Snyder 16-4..16-6) — the simple
  conic of regional atlases; pinned by its defining invariants
  (scale exactly 1 on both standard parallels, meridians at true
  arc length).
- Cassini-Soldner (``+proj=cass``, EPSG method 9806; the legacy
  cadastral grids — Trinidad 1903, Kertau) — Guidance 7-2 A/T/C
  series over the shared meridian arc, footpoint inverse; Trinidad
  worked example reproduced to <0.001 link.
- World compromise/pseudocylindrical wave: Mollweide
  (``+proj=moll``, ESRI:54009 — equal-area, pinned by numeric areal
  scale == 1 and the 2:1 elliptical outline), Robinson
  (``+proj=robin``, ESRI:54030 — Robinson's published 5-degree table
  IS the definition; node-exact, natural-cubic between nodes),
  Miller (``+proj=mill``, ESRI:54003 — Snyder 11-1..11-5), Eckert IV
  (``+proj=eck4``, ESRI:54012 — equal-area, Snyder ch. 32).
- Spherical azimuthal family (Snyder ch. 20/22/25): orthographic
  (``+proj=ortho``; far hemisphere -> NaN), gnomonic (``+proj=gnom``;
  great circles project to straight lines — the pinned invariant),
  azimuthal equidistant (``+proj=aeqd`` — rho IS the great-circle
  distance from the center; ellipsoidal POLAR aspects use the
  meridian-arc series exactly, oblique ellipsoidal raises toward the
  +R spherical form).
- Krovak (``+proj=krovak``, EPSG method 9819; S-JTSK, proj4 only) —
  Gauss sphere + oblique-pole rotation + pseudo-standard-parallel
  conic, PROJ axis signs; Guidance 7-2 southing to <2 cm, conformal
  with design scale 0.9999 across the domain.

All transforms are vectorized over ``(n,)`` float64 coordinate arrays.
"""

from __future__ import annotations

import copy
import math
import re
from functools import partial
from typing import Optional, Tuple

import numpy as np

# WGS84
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563

_ELLIPSOIDS = {
    # name: (a, 1/f)
    "WGS84": (6378137.0, 298.257223563),
    "GRS80": (6378137.0, 298.257222101),
    "aust_SA": (6378160.0, 298.25),
    "airy": (6377563.396, 299.3249646),
    "mod_airy": (6377340.189, 299.3249646),  # Airy Modified 1849 (Irish grid)
    "intl": (6378388.0, 297.0),  # International 1924 (Hayford)
    "bessel": (6377397.155, 299.1528128),
    "evrstSS": (6377298.556, 300.8017),  # Everest 1830 (1967: Sabah & Sarawak)
    "sphere": (6370997.0, 0.0),
}


# ---------------------------------------------------------------------------
# Transverse Mercator (Karney / Krüger series, 6th order in n)
# ---------------------------------------------------------------------------


class _TMConsts:
    __slots__ = ("a", "f", "e", "e2", "n", "A", "alpha", "beta", "k0", "lon0", "fe", "fn")

    def __init__(self, a: float, f: float, k0: float, lon0_deg: float, fe: float, fn: float):
        self.a, self.f, self.k0 = a, f, k0
        self.lon0 = math.radians(lon0_deg)
        self.fe, self.fn = fe, fn
        n = f / (2.0 - f)
        self.n = n
        self.e2 = f * (2.0 - f)
        self.e = math.sqrt(self.e2)
        n2, n3, n4, n5, n6 = n * n, n**3, n**4, n**5, n**6
        self.A = a / (1 + n) * (1 + n2 / 4 + n4 / 64 + n6 / 256)
        self.alpha = np.array(
            [
                n / 2 - 2 * n2 / 3 + 5 * n3 / 16 + 41 * n4 / 180 - 127 * n5 / 288 + 7891 * n6 / 37800,
                13 * n2 / 48 - 3 * n3 / 5 + 557 * n4 / 1440 + 281 * n5 / 630 - 1983433 * n6 / 1935360,
                61 * n3 / 240 - 103 * n4 / 140 + 15061 * n5 / 26880 + 167603 * n6 / 181440,
                49561 * n4 / 161280 - 179 * n5 / 168 + 6601661 * n6 / 7257600,
                34729 * n5 / 80640 - 3418889 * n6 / 1995840,
                212378941 * n6 / 319334400,
            ]
        )
        self.beta = np.array(
            [
                n / 2 - 2 * n2 / 3 + 37 * n3 / 96 - n4 / 360 - 81 * n5 / 512 + 96199 * n6 / 604800,
                n2 / 48 + n3 / 15 - 437 * n4 / 1440 + 46 * n5 / 105 - 1118711 * n6 / 3870720,
                17 * n3 / 480 - 37 * n4 / 840 - 209 * n5 / 4480 + 5569 * n6 / 90720,
                4397 * n4 / 161280 - 11 * n5 / 504 - 830251 * n6 / 7257600,
                4583 * n5 / 161280 - 108847 * n6 / 3991680,
                20648693 * n6 / 638668800,
            ]
        )


def _tm_forward(c: _TMConsts, lon_deg: np.ndarray, lat_deg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    dlon = lon - c.lon0
    es = c.e
    sphi = np.sin(lat)
    t = np.sinh(np.arctanh(sphi) - es * np.arctanh(es * sphi))
    xip = np.arctan2(t, np.cos(dlon))
    etap = np.arcsinh(np.sin(dlon) / np.sqrt(t * t + np.cos(dlon) ** 2))
    j = np.arange(1, 7)[:, None]
    sin_t = np.sin(2 * j * xip[None, :])
    cos_t = np.cos(2 * j * xip[None, :])
    sinh_t = np.sinh(2 * j * etap[None, :])
    cosh_t = np.cosh(2 * j * etap[None, :])
    xi = xip + (c.alpha[:, None] * sin_t * cosh_t).sum(axis=0)
    eta = etap + (c.alpha[:, None] * cos_t * sinh_t).sum(axis=0)
    return c.fe + c.k0 * c.A * eta, c.fn + c.k0 * c.A * xi


def _tm_inverse(c: _TMConsts, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xi = (y - c.fn) / (c.k0 * c.A)
    eta = (x - c.fe) / (c.k0 * c.A)
    j = np.arange(1, 7)[:, None]
    xip = xi - (c.beta[:, None] * np.sin(2 * j * xi[None, :]) * np.cosh(2 * j * eta[None, :])).sum(axis=0)
    etap = eta - (c.beta[:, None] * np.cos(2 * j * xi[None, :]) * np.sinh(2 * j * eta[None, :])).sum(axis=0)
    taup = np.sin(xip) / np.sqrt(np.sinh(etap) ** 2 + np.cos(xip) ** 2)
    dlon = np.arctan2(np.sinh(etap), np.cos(xip))
    # invert tau' -> tau (Karney eq. 19-21) by Newton iteration
    es = c.e
    tau = taup.copy()
    for _ in range(6):
        sigma = np.sinh(es * np.arctanh(es * tau / np.sqrt(1 + tau * tau)))
        f_tau = tau * np.sqrt(1 + sigma * sigma) - sigma * np.sqrt(1 + tau * tau) - taup
        d_tau = (np.sqrt((1 + sigma * sigma) * (1 + tau * tau)) - sigma * tau) * (1 - c.e2) * np.sqrt(
            1 + tau * tau
        ) / (1 + (1 - c.e2) * tau * tau)
        tau = tau - f_tau / d_tau
    lat = np.arctan(tau)
    lon_out = np.degrees(c.lon0 + dlon)
    lon_out = (lon_out + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(lat)


# ---------------------------------------------------------------------------
# Web Mercator (EPSG:3857)
# ---------------------------------------------------------------------------

_R_MERC = WGS84_A


def webmercator_forward(lon_deg, lat_deg):
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    x = _R_MERC * np.radians(lon)
    y = _R_MERC * np.log(np.tan(np.pi / 4 + np.radians(lat) / 2))
    return x, y


def webmercator_inverse(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lon = np.degrees(x / _R_MERC)
    lat = np.degrees(2 * np.arctan(np.exp(y / _R_MERC)) - np.pi / 2)
    return lon, lat


# ---------------------------------------------------------------------------
# Albers equal-area conic (Snyder 14-19..14-21), ellipsoidal
# ---------------------------------------------------------------------------


class _AeaConsts:
    __slots__ = ("a", "e", "e2", "lon0", "n", "C", "rho0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, lat1, lat2, x0, y0):
        self.a = a
        e2 = f * (2 - f)
        self.e2 = e2
        self.e = math.sqrt(e2)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi0, phi1, phi2 = (math.radians(v) for v in (lat0, lat1, lat2))

        def _m(phi):
            return math.cos(phi) / math.sqrt(1 - e2 * math.sin(phi) ** 2)

        def _q(phi):
            s = math.sin(phi)
            if e2 == 0:
                return 2 * s
            return (1 - e2) * (s / (1 - e2 * s * s) - (1 / (2 * self.e)) * math.log((1 - self.e * s) / (1 + self.e * s)))

        m1, m2 = _m(phi1), _m(phi2)
        q0, q1, q2 = _q(phi0), _q(phi1), _q(phi2)
        if abs(phi1 - phi2) < 1e-12:
            self.n = math.sin(phi1)
        else:
            self.n = (m1 * m1 - m2 * m2) / (q2 - q1)
        self.C = m1 * m1 + self.n * q1
        self.rho0 = a * math.sqrt(self.C - self.n * q0) / self.n

    def q_arr(self, phi):
        s = np.sin(phi)
        if self.e2 == 0:
            return 2 * s
        return (1 - self.e2) * (
            s / (1 - self.e2 * s * s) - (1 / (2 * self.e)) * np.log((1 - self.e * s) / (1 + self.e * s))
        )


def _aea_forward(c: _AeaConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    q = c.q_arr(lat)
    rho = c.a * np.sqrt(c.C - c.n * q) / c.n
    theta = c.n * (lon - c.lon0)
    x = c.x0 + rho * np.sin(theta)
    y = c.y0 + c.rho0 - rho * np.cos(theta)
    return x, y


def _aea_inverse(c: _AeaConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.sqrt(x * x + (c.rho0 - y) ** 2)
    if c.n < 0:
        rho = -rho
        theta = np.arctan2(-x, -(c.rho0 - y))
    else:
        theta = np.arctan2(x, c.rho0 - y)
    q = (c.C - (rho * c.n / c.a) ** 2) / c.n
    lon = c.lon0 + theta / c.n
    # Newton iterate Snyder 3-16 for phi from q
    phi = np.arcsin(np.clip(q / 2, -1, 1))
    if c.e2 > 0:
        for _ in range(8):
            s = np.sin(phi)
            one = 1 - c.e2 * s * s
            phi = phi + (one**2 / (2 * np.cos(phi))) * (
                q / (1 - c.e2) - s / one + (1 / (2 * c.e)) * np.log((1 - c.e * s) / (1 + c.e * s))
            )
    return np.degrees(lon), np.degrees(phi)


# ---------------------------------------------------------------------------
# Lambert conformal conic, 2SP (Snyder 15-1..15-11), ellipsoidal
# ---------------------------------------------------------------------------


class _LccConsts:
    __slots__ = ("a", "e", "n", "F", "rho0", "lon0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, lat1, lat2, x0, y0):
        self.a = a
        e2 = f * (2 - f)
        self.e = math.sqrt(e2)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi0, phi1, phi2 = (math.radians(v) for v in (lat0, lat1, lat2))

        def _m(phi):
            return math.cos(phi) / math.sqrt(1 - e2 * math.sin(phi) ** 2)

        def _t(phi):
            s = math.sin(phi)
            es = self.e * s
            return math.tan(math.pi / 4 - phi / 2) / ((1 - es) / (1 + es)) ** (self.e / 2)

        m1, m2 = _m(phi1), _m(phi2)
        t0, t1, t2 = _t(phi0), _t(phi1), _t(phi2)
        if abs(phi1 - phi2) < 1e-12:
            self.n = math.sin(phi1)
        else:
            self.n = (math.log(m1) - math.log(m2)) / (math.log(t1) - math.log(t2))
        self.F = m1 / (self.n * t1**self.n)
        self.rho0 = a * self.F * t0**self.n

    def t_arr(self, phi):
        s = np.sin(phi)
        es = self.e * s
        return np.tan(np.pi / 4 - phi / 2) / ((1 - es) / (1 + es)) ** (self.e / 2)


def _lcc_forward(c: _LccConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    rho = c.a * c.F * c.t_arr(lat) ** c.n
    theta = c.n * (lon - c.lon0)
    return c.x0 + rho * np.sin(theta), c.y0 + c.rho0 - rho * np.cos(theta)


def _lcc_inverse(c: _LccConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    dy = c.rho0 - y
    rho = np.sign(c.n) * np.sqrt(x * x + dy * dy)
    theta = np.arctan2(np.sign(c.n) * x, np.sign(c.n) * dy)
    t = (rho / (c.a * c.F)) ** (1.0 / c.n)
    lon = c.lon0 + theta / c.n
    # Snyder 7-9 fixed point for phi from t
    phi = np.pi / 2 - 2 * np.arctan(t)
    for _ in range(8):
        es = c.e * np.sin(phi)
        phi = np.pi / 2 - 2 * np.arctan(t * ((1 - es) / (1 + es)) ** (c.e / 2))
    return np.degrees(lon), np.degrees(phi)


# ---------------------------------------------------------------------------
# Polar stereographic, variant B (Snyder 21-33..21-35 / 15-11), ellipsoidal
# ---------------------------------------------------------------------------


class _PsConsts:
    __slots__ = ("a", "e", "north", "rho_f", "lon0", "x0", "y0")

    def __init__(self, a, f, lat_ts, lon0, x0, y0, north: bool, k0: float = 1.0):
        self.a = a
        e2 = f * (2 - f)
        self.e = math.sqrt(e2)
        self.north = north
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi_c = math.radians(abs(lat_ts))
        if phi_c >= math.radians(89.999999):
            # variant A (k0 at the pole — UPS): Snyder 21-33,
            # rho = 2 a k0 t / sqrt((1+e)^(1+e) (1-e)^(1-e)); the
            # variant-B m_c/t_c form is 0/0 at lat_ts = 90
            self.rho_f = (2.0 * a * k0) / math.sqrt(
                (1 + self.e) ** (1 + self.e) * (1 - self.e) ** (1 - self.e)
            )
        else:
            s = math.sin(phi_c)
            es = self.e * s
            t_c = math.tan(math.pi / 4 - phi_c / 2) / ((1 - es) / (1 + es)) ** (self.e / 2)
            m_c = math.cos(phi_c) / math.sqrt(1 - e2 * s * s)
            # rho = a * m_c / t_c * t(phi): scale true at lat_ts
            self.rho_f = a * m_c / t_c * k0

    def t_arr(self, phi):
        s = np.sin(phi)
        es = self.e * s
        return np.tan(np.pi / 4 - phi / 2) / ((1 - es) / (1 + es)) ** (self.e / 2)


def _ps_forward(c: _PsConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    if not c.north:
        lon, lat = -lon, -lat  # south pole = mirrored north form
    rho = c.rho_f * c.t_arr(lat)
    dl = lon - (c.lon0 if c.north else -c.lon0)
    x = rho * np.sin(dl)
    y = -rho * np.cos(dl)
    if not c.north:
        x, y = -x, -y
    return c.x0 + x, c.y0 + y


def _ps_inverse(c: _PsConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    if not c.north:
        x, y = -x, -y
    rho = np.sqrt(x * x + y * y)
    t = rho / c.rho_f
    dl = np.arctan2(x, -y)
    lon = dl + (c.lon0 if c.north else -c.lon0)
    phi = np.pi / 2 - 2 * np.arctan(t)
    for _ in range(8):
        es = c.e * np.sin(phi)
        phi = np.pi / 2 - 2 * np.arctan(t * ((1 - es) / (1 + es)) ** (c.e / 2))
    if not c.north:
        lon, phi = -lon, -phi
    return np.degrees(lon), np.degrees(phi)


# ---------------------------------------------------------------------------
# Oblique / equatorial stereographic (Snyder 21-27..21-40, conformal-
# latitude form — PROJ's non-polar ``+proj=stere``)
# ---------------------------------------------------------------------------


class _ObStereConsts:
    __slots__ = ("a", "e", "e2", "k0", "lon0", "x0", "y0", "schi1", "cchi1", "akm1")

    def __init__(self, a, f, lat0, lon0, k0, x0, y0):
        self.a = a
        e2 = f * (2 - f)
        self.e2 = e2
        self.e = math.sqrt(e2)
        self.k0 = k0
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi1 = math.radians(lat0)
        s = math.sin(phi1)
        chi1 = float(_conformal_lat(self.e, np.float64(phi1)))
        self.schi1 = math.sin(chi1)
        self.cchi1 = math.cos(chi1)
        m1 = math.cos(phi1) / math.sqrt(1 - e2 * s * s)
        # Snyder 21-27 numerator constant 2 a k0 m1 (cosX1 divisor kept
        # separate for the inverse's 2 a k0 m1 appearance in 21-38);
        # m1 is exactly 1.0 at lat0=0, so this covers the equatorial
        # aspect with no special case
        self.akm1 = 2.0 * a * k0 * m1


def _conformal_lat(e: float, phi) -> np.ndarray:
    es = e * np.sin(phi)
    return 2 * np.arctan(
        np.tan(np.pi / 4 + phi / 2) * ((1 - es) / (1 + es)) ** (e / 2)
    ) - np.pi / 2


def _inv_conformal_lat(e: float, chi) -> np.ndarray:
    """Inverse conformal latitude by fixed point (Snyder 3-4)."""
    t = np.tan(np.pi / 4 + chi / 2)
    phi = np.asarray(chi, dtype=np.float64).copy()
    for _ in range(10):
        es = e * np.sin(phi)
        phi = 2 * np.arctan(t * ((1 + es) / (1 - es)) ** (e / 2)) - np.pi / 2
    return phi


def _obstere_forward(c: _ObStereConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    chi = _conformal_lat(c.e, lat)
    schi, cchi = np.sin(chi), np.cos(chi)
    dl = lon - c.lon0
    A = c.akm1 / (c.cchi1 * (1 + c.schi1 * schi + c.cchi1 * cchi * np.cos(dl)))
    x = c.x0 + A * cchi * np.sin(dl)
    y = c.y0 + A * (c.cchi1 * schi - c.schi1 * cchi * np.cos(dl))
    return x, y


def _obstere_inverse(c: _ObStereConsts, x, y):
    xp = np.asarray(x, dtype=np.float64) - c.x0
    yp = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.sqrt(xp * xp + yp * yp)
    # Snyder 21-38: ce = 2 atan(rho cosX1 / (2 a k0 m1))
    ce = 2 * np.arctan2(rho * c.cchi1, c.akm1)
    sce, cce = np.sin(ce), np.cos(ce)
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = np.arcsin(np.clip(cce * c.schi1 + yp * sce * c.cchi1 / rho, -1, 1))
        dl = np.arctan2(xp * sce, rho * c.cchi1 * cce - yp * c.schi1 * sce)
    chi = np.where(rho == 0, math.asin(c.schi1), chi)
    dl = np.where(rho == 0, 0.0, dl)
    return np.degrees(c.lon0 + dl), np.degrees(_inv_conformal_lat(c.e, chi))


# ---------------------------------------------------------------------------
# Double (Gauss-conformal-sphere) stereographic — EPSG method 9809 /
# PROJ ``+proj=sterea`` (RD New and the other Rijksdriehoek-style
# grids).  Formulas: EPSG Guidance Note 7-2, "Oblique and Equatorial
# Stereographic".
# ---------------------------------------------------------------------------


class _PolyConsts:
    """American Polyconic (Snyder 18-12..18-15, EPSG method 9818 —
    SIRGAS 2000 / Brazil Polyconic).  Forward is the closed Snyder
    form over the shared meridian-arc series; the inverse is a
    vectorized 2x2 Newton on the forward (finite-difference Jacobian,
    ~6 iterations to sub-micron) — simpler to audit than Snyder's
    18-18 scalar iteration and exact by the roundtrip property."""

    __slots__ = ("a", "e2", "arc", "M0", "Mp", "lam0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, x0, y0):
        self.a = a
        self.e2 = f * (2 - f)
        self.arc = _MeridArc(a, f)
        self.M0 = float(self.arc.m(np.array([math.radians(lat0)]))[0])
        self.Mp = float(self.arc.m(np.array([np.pi / 2]))[0])  # pole arc
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _poly_forward_rad(c: _PolyConsts, lam, phi):
    sp = np.sin(phi)
    cp = np.cos(phi)
    N = c.a / np.sqrt(1 - c.e2 * sp * sp)
    M = c.arc.m(phi)
    dl = lam - c.lam0
    with np.errstate(invalid="ignore", divide="ignore"):
        E = dl * sp
        cot = cp / sp
        x = N * cot * np.sin(E)
        y = M - c.M0 + N * cot * (1 - np.cos(E))
    eq = np.abs(phi) < 1e-12
    x = np.where(eq, c.a * dl, x)
    y = np.where(eq, -c.M0, y)
    return x, y


def _poly_forward(c: _PolyConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x, y = _poly_forward_rad(c, lam, phi)
    return c.x0 + x, c.y0 + y


def _poly_inverse(c: _PolyConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    # footpoint start: phi from the meridian arc, lam from the parallel
    phi = c.arc.phi(np.clip(c.M0 + yt, -c.Mp * 0.9999, c.Mp * 0.9999))
    lam = c.lam0 + xt / (c.a * np.maximum(np.cos(phi), 1e-9))
    h = 1e-8
    for _ in range(8):
        fx, fy = _poly_forward_rad(c, lam, phi)
        rx, ry = fx - xt, fy - yt
        if max(float(np.abs(rx).max(initial=0)), float(np.abs(ry).max(initial=0))) < 1e-9:
            break
        ax, ay = _poly_forward_rad(c, lam + h, phi)
        bx, by = _poly_forward_rad(c, lam, phi + h)
        j11, j21 = (ax - fx) / h, (ay - fy) / h   # d/dlam
        j12, j22 = (bx - fx) / h, (by - fy) / h   # d/dphi
        det = j11 * j22 - j12 * j21
        det = np.where(np.abs(det) < 1e-30, 1e-30, det)
        lam = lam - (rx * j22 - ry * j12) / det
        phi = phi - (j11 * ry - j21 * rx) / det
    return np.degrees(lam), np.degrees(phi)


class _BonneConsts:
    """Bonne (``+proj=bonne``, EPSG method 9827 — the legacy French /
    Portuguese / Swiss survey grids).  Equal-area pseudoconic:
    parallels are concentric circular arcs at true scale, the central
    meridian is at true length; the tests pin exactly those defining
    invariants (numeric areal scale == 1 everywhere, arc-true central
    meridian) plus roundtrips."""

    __slots__ = ("a", "e2", "arc", "c1", "M1", "lam0", "x0", "y0")

    def __init__(self, a, f, lat1, lon0, x0, y0):
        if abs(lat1) < 1e-9:
            raise ValueError("bonne: lat_1 = 0 degenerates (use sinusoidal)")
        self.a = a
        self.e2 = f * (2 - f)
        self.arc = _MeridArc(a, f)
        p1 = math.radians(lat1)
        m1 = math.cos(p1) / math.sqrt(1 - self.e2 * math.sin(p1) ** 2)
        self.c1 = a * m1 / math.sin(p1)  # rho at the standard parallel + M1
        self.M1 = float(self.arc.m(np.array([p1]))[0])
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _bonne_forward(c: _BonneConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    sp = np.sin(phi)
    m = np.cos(phi) / np.sqrt(1 - c.e2 * sp * sp)
    M = c.arc.m(phi)
    rho = c.c1 + c.M1 - M
    with np.errstate(invalid="ignore", divide="ignore"):
        T = c.a * m * (lam - c.lam0) / rho
    T = np.where(np.abs(rho) < 1e-9, 0.0, T)
    return c.x0 + rho * np.sin(T), c.y0 + c.c1 - rho * np.cos(T)


def _bonne_inverse(c: _BonneConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = c.c1 - (np.asarray(y, dtype=np.float64) - c.y0)
    sgn = 1.0 if c.c1 >= 0 else -1.0
    rho = sgn * np.sqrt(xt * xt + yt * yt)
    M = c.c1 + c.M1 - rho
    phi = c.arc.phi(M)
    sp = np.sin(phi)
    m = np.cos(phi) / np.sqrt(1 - c.e2 * sp * sp)
    T = np.arctan2(sgn * xt, sgn * yt)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = c.lam0 + rho * T / (c.a * m)
    lam = np.where(np.abs(m) < 1e-12, c.lam0, lam)  # pole column
    return np.degrees(lam), np.degrees(phi)


class _EqdcConsts:
    """Equidistant Conic (``+proj=eqdc``, Snyder 16-4..16-6
    ellipsoidal) — the simple conic of regional atlases and several
    Asian/South-American national grids.  True scale on both
    standard parallels AND true length along every meridian
    (rho = a*G - M), the pair of invariants the tests pin."""

    __slots__ = ("a", "arc", "n", "G", "rho0", "lam0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, lat1, lat2, x0, y0):
        self.a = a
        e2 = f * (2 - f)
        self.arc = _MeridArc(a, f)
        p1, p2 = math.radians(lat1), math.radians(lat2)

        def _m(phi):
            return math.cos(phi) / math.sqrt(1 - e2 * math.sin(phi) ** 2)

        m1, m2 = _m(p1), _m(p2)
        M1 = float(self.arc.m(np.array([p1]))[0])
        M2 = float(self.arc.m(np.array([p2]))[0])
        if abs(lat1 - lat2) < 1e-10:
            self.n = math.sin(p1)  # single-parallel limit
        else:
            self.n = a * (m1 - m2) / (M2 - M1)
        if self.n == 0:
            raise ValueError("eqdc: standard parallels must not straddle "
                             "the equator symmetrically (n = 0)")
        self.G = m1 / self.n + M1 / a
        M0 = float(self.arc.m(np.array([math.radians(lat0)]))[0])
        self.rho0 = a * self.G - M0
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _eqdc_forward(c: _EqdcConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    rho = c.a * c.G - c.arc.m(phi)
    theta = c.n * (lam - c.lam0)
    return c.x0 + rho * np.sin(theta), c.y0 + c.rho0 - rho * np.cos(theta)


def _eqdc_inverse(c: _EqdcConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = c.rho0 - (np.asarray(y, dtype=np.float64) - c.y0)
    sgn = 1.0 if c.n >= 0 else -1.0
    rho = sgn * np.sqrt(xt * xt + yt * yt)
    theta = np.arctan2(sgn * xt, sgn * yt)
    lam = c.lam0 + theta / c.n
    phi = c.arc.phi(c.a * c.G - rho)
    return np.degrees(lam), np.degrees(phi)


class _CassConsts:
    """Cassini-Soldner (EPSG method 9806 — the legacy national /
    cadastral grids: Trinidad 1903, Kertau cadastral, many German
    and Danish survey grids).  Equidistant along the central
    meridian and along the perpendiculars to it; formulas are the
    EPSG Guidance Note 7-2 series over the shared meridian-arc
    helper (forward A/T/C expansion, inverse via the footpoint
    latitude)."""

    __slots__ = ("a", "e2", "arc", "M0", "lam0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, x0, y0):
        self.a = a
        self.e2 = f * (2 - f)
        self.arc = _MeridArc(a, f)
        self.M0 = float(self.arc.m(np.array([math.radians(lat0)]))[0])
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _cass_forward(c: _CassConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    sp, cp = np.sin(phi), np.cos(phi)
    nu = c.a / np.sqrt(1 - c.e2 * sp * sp)
    T = np.tan(phi) ** 2
    A = (lam - c.lam0) * cp
    C = c.e2 * cp * cp / (1 - c.e2)
    A2 = A * A
    x = nu * (A - T * A * A2 / 6 - (8 - T + 8 * C) * T * A * A2 * A2 / 120)
    M = c.arc.m(phi)
    y = M - c.M0 + nu * np.tan(phi) * (A2 / 2 + (5 - T + 6 * C) * A2 * A2 / 24)
    return c.x0 + x, c.y0 + y


def _cass_inverse(c: _CassConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    phi1 = c.arc.phi(c.M0 + yt)  # footpoint latitude
    sp, cp = np.sin(phi1), np.cos(phi1)
    one = 1 - c.e2 * sp * sp
    nu1 = c.a / np.sqrt(one)
    rho1 = c.a * (1 - c.e2) / one ** 1.5
    T1 = np.tan(phi1) ** 2
    D = xt / nu1
    D2 = D * D
    phi = phi1 - (nu1 * np.tan(phi1) / rho1) * (D2 / 2 - (1 + 3 * T1) * D2 * D2 / 24)
    lam = c.lam0 + (D - T1 * D * D2 / 3 + (1 + 3 * T1) * T1 * D * D2 * D2 / 15) / cp
    return np.degrees(lam), np.degrees(phi)


class _KrovakConsts:
    """Krovak oblique conformal conic (EPSG method 9819 — S-JTSK).

    Published chain (EPSG Guidance Note 7-2): Gauss sphere at the
    projection centre, rotation to the oblique pole (azimuth alpha_c),
    conformal conic with pseudo-standard parallel 78.5 deg.  Axis
    convention follows PROJ ``+proj=krovak``: x = -westing,
    y = -southing (both coordinates negative over Czechia/Slovakia);
    the S-JTSK datum itself is shifted, so only the proj4 form is
    accepted (native-datum coordinates are the contract)."""

    __slots__ = ("e", "B", "t0", "n", "r0", "sa", "ca", "lam0", "x0", "y0", "tanTp")

    def __init__(self, a, f, lat0, lon0, alpha, k0, x0, y0, phi_p_deg=78.5):
        e2 = f * (2 - f)
        self.e = math.sqrt(e2)
        phic = math.radians(lat0)
        sc = math.sin(phic)
        A_ = a * math.sqrt(1 - e2) / (1 - e2 * sc * sc)
        self.B = math.sqrt(1 + e2 * math.cos(phic) ** 4 / (1 - e2))
        g0 = math.asin(sc / self.B)
        self.t0 = (
            math.tan(math.pi / 4 + g0 / 2)
            * ((1 + self.e * sc) / (1 - self.e * sc)) ** (self.e * self.B / 2)
            / math.tan(math.pi / 4 + phic / 2) ** self.B
        )
        phi_p = math.radians(phi_p_deg)
        self.n = math.sin(phi_p)
        self.r0 = k0 * A_ / math.tan(phi_p)
        self.tanTp = math.tan(math.pi / 4 + phi_p / 2)
        al = math.radians(alpha)
        self.sa, self.ca = math.sin(al), math.cos(al)
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _krovak_forward(c: _KrovakConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    es = c.e * np.sin(phi)
    U = 2 * (
        np.arctan(
            c.t0 * np.tan(phi / 2 + np.pi / 4) ** c.B / ((1 + es) / (1 - es)) ** (c.e * c.B / 2)
        )
        - np.pi / 4
    )
    V = c.B * (c.lam0 - lam)
    T = np.arcsin(np.clip(c.ca * np.sin(U) + c.sa * np.cos(U) * np.cos(V), -1, 1))
    D = np.arcsin(np.clip(np.cos(U) * np.sin(V) / np.cos(T), -1, 1))
    theta = c.n * D
    r = c.r0 * c.tanTp**c.n / np.tan(T / 2 + np.pi / 4) ** c.n
    southing = r * np.cos(theta)
    westing = r * np.sin(theta)
    return c.x0 - westing, c.y0 - southing


def _krovak_inverse(c: _KrovakConsts, x, y):
    westing = c.x0 - np.asarray(x, dtype=np.float64)
    southing = c.y0 - np.asarray(y, dtype=np.float64)
    r = np.sqrt(westing * westing + southing * southing)
    theta = np.arctan2(westing, southing)
    D = theta / c.n
    T = 2 * (np.arctan((c.r0 / r) ** (1.0 / c.n) * c.tanTp) - np.pi / 4)
    U = np.arcsin(np.clip(c.ca * np.sin(T) - c.sa * np.cos(T) * np.cos(D), -1, 1))
    V = np.arcsin(np.clip(np.cos(T) * np.sin(D) / np.cos(U), -1, 1))
    lam = c.lam0 - V / c.B
    tU = np.tan(U / 2 + np.pi / 4) ** (1.0 / c.B) * c.t0 ** (-1.0 / c.B)
    phi = 2 * (np.arctan(tU) - np.pi / 4)
    for _ in range(8):
        es = c.e * np.sin(phi)
        phi = 2 * (np.arctan(tU * ((1 + es) / (1 - es)) ** (c.e / 2)) - np.pi / 4)
    return np.degrees(lam), np.degrees(phi)


class _StereaConsts:
    __slots__ = ("e", "e2", "n", "c", "R", "k0", "chi0", "lam0", "x0", "y0")

    def __init__(self, a, f, lat0, lon0, k0, x0, y0):
        if abs(lat0) >= 89.999999:
            raise ValueError(
                "sterea (double stereographic) is oblique/equatorial only — "
                "use polar +proj=stere (variant A/B) for lat_0 = +/-90"
            )
        e2 = f * (2 - f)
        self.e2 = e2
        self.e = math.sqrt(e2)
        self.k0 = k0
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi0 = math.radians(lat0)
        s0 = math.sin(phi0)
        rho0 = a * (1 - e2) / (1 - e2 * s0 * s0) ** 1.5
        nu0 = a / math.sqrt(1 - e2 * s0 * s0)
        self.R = math.sqrt(rho0 * nu0)
        self.n = math.sqrt(1 + (e2 * math.cos(phi0) ** 4) / (1 - e2))
        S1 = (1 + s0) / (1 - s0)
        S2 = (1 - self.e * s0) / (1 + self.e * s0)
        w1 = (S1 * S2**self.e) ** self.n
        sin_chi0 = (w1 - 1) / (w1 + 1)
        self.c = ((self.n + s0) * (1 - sin_chi0)) / ((self.n - s0) * (1 + sin_chi0))
        w2 = self.c * w1
        self.chi0 = math.asin((w2 - 1) / (w2 + 1))

    def chi_lam(self, lon, lat):
        # clip off exact poles: (1+s)/(1-s) is inf at s=1 and the
        # w-ratio would go NaN — the clipped value maps within
        # float-eps of the pole instead of propagating NaN silently
        s = np.clip(np.sin(lat), -1.0 + 1e-15, 1.0 - 1e-15)
        Sa = (1 + s) / (1 - s)
        Sb = (1 - self.e * s) / (1 + self.e * s)
        w = self.c * (Sa * Sb**self.e) ** self.n
        chi = np.arcsin((w - 1) / (w + 1))
        lam = self.n * (lon - self.lam0) + self.lam0
        return chi, lam


def _sterea_forward(c: _StereaConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    chi, lam = c.chi_lam(lon, lat)
    dl = lam - c.lam0
    B = 1 + np.sin(chi) * math.sin(c.chi0) + np.cos(chi) * math.cos(c.chi0) * np.cos(dl)
    x = c.x0 + 2 * c.R * c.k0 * np.cos(chi) * np.sin(dl) / B
    y = c.y0 + 2 * c.R * c.k0 * (
        np.sin(chi) * math.cos(c.chi0) - np.cos(chi) * math.sin(c.chi0) * np.cos(dl)
    ) / B
    return x, y


def _sterea_inverse(c: _StereaConsts, x, y):
    Ep = np.asarray(x, dtype=np.float64) - c.x0
    Np = np.asarray(y, dtype=np.float64) - c.y0
    g = 2 * c.R * c.k0 * math.tan(math.pi / 4 - c.chi0 / 2)
    h = 4 * c.R * c.k0 * math.tan(c.chi0) + g
    i = np.arctan2(Ep, h + Np)
    j = np.arctan2(Ep, g - Np) - i
    chi = c.chi0 + 2 * np.arctan((Np - Ep * np.tan(j / 2)) / (2 * c.R * c.k0))
    lam = j + 2 * i + c.lam0
    lon = (lam - c.lam0) / c.n + c.lam0
    # chi -> phi (EPSG isometric-latitude Newton iteration)
    psi = 0.5 * np.log((1 + np.sin(chi)) / (c.c * (1 - np.sin(chi)))) / c.n
    phi = 2 * np.arctan(np.exp(psi)) - np.pi / 2
    for _ in range(8):
        s = np.sin(phi)
        es = c.e * s
        psi_i = np.log(np.tan(phi / 2 + np.pi / 4) * ((1 - es) / (1 + es)) ** (c.e / 2))
        phi = phi - (psi_i - psi) * np.cos(phi) * (1 - es * es) / (1 - c.e2)
    return np.degrees(lon), np.degrees(phi)


# ---------------------------------------------------------------------------
# Lambert azimuthal equal-area, oblique (Snyder 24-2..24-10 / 3-11..3-18)
# ---------------------------------------------------------------------------


class _LaeaConsts:
    __slots__ = (
        "a", "e", "e2", "qp", "Rq", "beta1", "sb1", "cb1", "D",
        "lon0", "x0", "y0", "pole",
    )

    def __init__(self, a, f, lat0, lon0, x0, y0):
        self.a = a
        e2 = f * (2 - f)
        self.e2 = e2
        self.e = math.sqrt(e2)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        phi1 = math.radians(lat0)

        def _q(phi):
            s = math.sin(phi)
            if e2 == 0:
                return 2 * s
            return (1 - e2) * (
                s / (1 - e2 * s * s) - (1 / (2 * self.e)) * math.log((1 - self.e * s) / (1 + self.e * s))
            )

        self.qp = _q(math.pi / 2)
        self.Rq = a * math.sqrt(self.qp / 2)
        self.beta1 = math.asin(min(1.0, max(-1.0, _q(phi1) / self.qp)))
        self.sb1 = math.sin(self.beta1)
        self.cb1 = math.cos(self.beta1)
        m1 = math.cos(phi1) / math.sqrt(1 - e2 * math.sin(phi1) ** 2)
        self.D = (a * m1) / (self.Rq * self.cb1) if self.cb1 != 0 else 1.0
        # polar aspects (EASE-Grid 2.0 North/South, proj4 lat_0=+/-90)
        # use Snyder's dedicated 24-3/24-4 formulas: the oblique D
        # constant degenerates at the pole (cos beta1 -> 1e-17 float
        # noise amplified into km-level error)
        self.pole = 1 if lat0 >= 89.999999 else (-1 if lat0 <= -89.999999 else 0)

    def q_arr(self, phi):
        return _authalic_q(self.e, self.e2, phi)

    def phi_from_q(self, q):
        return _authalic_phi(self.e, self.e2, q, self.qp)


def _authalic_q(e: float, e2: float, phi) -> np.ndarray:
    """Authalic q(phi) (Snyder 3-12), shared by the equal-area
    projections (LAEA, CEA)."""
    s = np.sin(phi)
    if e2 == 0:
        return 2 * s
    return (1 - e2) * (
        s / (1 - e2 * s * s) - (1 / (2 * e)) * np.log((1 - e * s) / (1 + e * s))
    )


def _authalic_phi(e: float, e2: float, q, qp: float) -> np.ndarray:
    """Inverse authalic latitude (Snyder 3-16 fixed-point), with the
    map-edge special case |q| >= qp -> +/-pi/2: the iteration's
    cos(phi) denominator stalls at the pole, so a polar y otherwise
    converges ~km short (Snyder/PROJ handle this case explicitly)."""
    q = np.asarray(q, dtype=np.float64)
    phi = np.arcsin(np.clip(q / 2, -1, 1))
    if e2 > 0:
        at_pole = np.abs(q) >= qp * (1 - 1e-12)
        with np.errstate(invalid="ignore", divide="ignore"):
            for _ in range(8):
                s = np.sin(phi)
                one = 1 - e2 * s * s
                phi = phi + (one**2 / (2 * np.cos(phi))) * (
                    q / (1 - e2) - s / one + (1 / (2 * e)) * np.log((1 - e * s) / (1 + e * s))
                )
        phi = np.where(at_pole, np.copysign(np.pi / 2, q), phi)
    return phi


def _laea_forward(c: _LaeaConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    if c.pole:
        # Snyder 24-3/24-4 (north) / 24-8 (south): rho = a*sqrt(qp -+ q)
        dl = lon - c.lon0
        q = c.q_arr(lat)
        rho = c.a * np.sqrt(np.maximum(c.qp - c.pole * q, 0.0))
        x = c.x0 + rho * np.sin(dl)
        y = c.y0 - c.pole * rho * np.cos(dl)
        return x, y
    beta = np.arcsin(np.clip(c.q_arr(lat) / c.qp, -1, 1))
    dl = lon - c.lon0
    denom = 1 + c.sb1 * np.sin(beta) + c.cb1 * np.cos(beta) * np.cos(dl)
    B = c.Rq * np.sqrt(2.0 / denom)
    x = c.x0 + B * c.D * np.cos(beta) * np.sin(dl)
    y = c.y0 + (B / c.D) * (c.cb1 * np.sin(beta) - c.sb1 * np.cos(beta) * np.cos(dl))
    return x, y


def _laea_inverse(c: _LaeaConsts, x, y):
    if c.pole:
        xp = np.asarray(x, dtype=np.float64) - c.x0
        yp = np.asarray(y, dtype=np.float64) - c.y0
        rho = np.sqrt(xp * xp + yp * yp)
        q = c.pole * (c.qp - (rho / c.a) ** 2)
        lon = c.lon0 + np.arctan2(xp, -c.pole * yp)
        lon = np.where(rho == 0, c.lon0, lon)
        return np.degrees(lon), np.degrees(c.phi_from_q(q))
    xp = (np.asarray(x, dtype=np.float64) - c.x0) / c.D
    yp = (np.asarray(y, dtype=np.float64) - c.y0) * c.D
    rho = np.sqrt(xp * xp + yp * yp)
    ce = 2 * np.arcsin(np.clip(rho / (2 * c.Rq), -1, 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        q = c.qp * (np.cos(ce) * c.sb1 + yp * np.sin(ce) * c.cb1 / rho)
        lon = c.lon0 + np.arctan2(
            xp * np.sin(ce), rho * c.cb1 * np.cos(ce) - yp * c.sb1 * np.sin(ce)
        )
    # center point: rho == 0
    q = np.where(rho == 0, c.qp * c.sb1, q)
    lon = np.where(rho == 0, c.lon0, lon)
    return np.degrees(lon), np.degrees(c.phi_from_q(q))


# ---------------------------------------------------------------------------
# Ellipsoidal Mercator (Snyder 7-7..7-10, EPSG method 9804/9805) and the
# meridian-arc cylindricals: equidistant cylindrical (EPSG method 1028,
# Snyder 3-21/3-26) and sinusoidal (Snyder 30-8..30-11, the MODIS grid)
# ---------------------------------------------------------------------------


class _MeridArc:
    """Meridional arc M(phi) and its inverse footpoint latitude
    (Snyder, USGS PP 1395, eqs. 3-21 and 3-26)."""

    __slots__ = ("a", "e2", "c0", "c2", "c4", "c6", "e1")

    def __init__(self, a: float, f: float):
        self.a = a
        e2 = f * (2.0 - f)
        self.e2 = e2
        e4, e6 = e2 * e2, e2**3
        self.c0 = 1 - e2 / 4 - 3 * e4 / 64 - 5 * e6 / 256
        self.c2 = 3 * e2 / 8 + 3 * e4 / 32 + 45 * e6 / 1024
        self.c4 = 15 * e4 / 256 + 45 * e6 / 1024
        self.c6 = 35 * e6 / 3072
        se = math.sqrt(1 - e2)
        self.e1 = (1 - se) / (1 + se)

    def m(self, phi: np.ndarray) -> np.ndarray:
        return self.a * (
            self.c0 * phi
            - self.c2 * np.sin(2 * phi)
            + self.c4 * np.sin(4 * phi)
            - self.c6 * np.sin(6 * phi)
        )

    def phi(self, m: np.ndarray) -> np.ndarray:
        mu = m / (self.a * self.c0)
        e1 = self.e1
        p = (
            mu
            + (3 * e1 / 2 - 27 * e1**3 / 32) * np.sin(2 * mu)
            + (21 * e1**2 / 16 - 55 * e1**4 / 32) * np.sin(4 * mu)
            + (151 * e1**3 / 96) * np.sin(6 * mu)
            + (1097 * e1**4 / 512) * np.sin(8 * mu)
        )
        # the 3-26 series truncates at ~1e-8 deg; two Newton steps with
        # the exact meridional radius dM/dphi reach machine precision
        for _ in range(2):
            rho = self.a * (1 - self.e2) / (1 - self.e2 * np.sin(p) ** 2) ** 1.5
            p = p - (self.m(p) - m) / rho
        return p


class _MercConsts:
    __slots__ = ("a", "e", "k0", "lon0", "x0", "y0")

    def __init__(self, a, f, lat_ts, lon0, x0, y0):
        self.a = a
        e2 = f * (2.0 - f)
        self.e = math.sqrt(e2)
        phi_ts = math.radians(lat_ts)
        s = math.sin(phi_ts)
        # scale true at lat_ts (EPSG 9805 "2SP" form; lat_ts=0 -> k0=1)
        self.k0 = math.cos(phi_ts) / math.sqrt(1 - e2 * s * s)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0

    def t_arr(self, phi: np.ndarray) -> np.ndarray:
        s = np.sin(phi)
        es = self.e * s
        return np.tan(np.pi / 4 - phi / 2) / ((1 - es) / (1 + es)) ** (self.e / 2)


def _merc_forward(c: _MercConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x = c.a * c.k0 * (lon - c.lon0)
    y = -c.a * c.k0 * np.log(c.t_arr(lat))
    return c.x0 + x, c.y0 + y


def _merc_inverse(c: _MercConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    lon = c.lon0 + x / (c.a * c.k0)
    t = np.exp(-y / (c.a * c.k0))
    phi = np.pi / 2 - 2 * np.arctan(t)
    for _ in range(8):
        es = c.e * np.sin(phi)
        phi = np.pi / 2 - 2 * np.arctan(t * ((1 - es) / (1 + es)) ** (c.e / 2))
    lon_out = (np.degrees(lon) + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(phi)


class _EqcConsts:
    __slots__ = ("nu1cos", "lon0", "x0", "y0", "arc")

    def __init__(self, a, f, lat_ts, lon0, x0, y0):
        e2 = f * (2.0 - f)
        phi1 = math.radians(lat_ts)
        self.nu1cos = a * math.cos(phi1) / math.sqrt(1 - e2 * math.sin(phi1) ** 2)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        self.arc = _MeridArc(a, f)


def _eqc_forward(c: _EqcConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    return c.x0 + c.nu1cos * (lon - c.lon0), c.y0 + c.arc.m(lat)


def _eqc_inverse(c: _EqcConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    lon_out = (np.degrees(c.lon0 + x / c.nu1cos) + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(c.arc.phi(y))


class _SinuConsts:
    __slots__ = ("a", "e2", "lon0", "x0", "y0", "arc")

    def __init__(self, a, f, lon0, x0, y0):
        self.a = a
        self.e2 = f * (2.0 - f)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        self.arc = _MeridArc(a, f)


def _sinu_forward(c: _SinuConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    s = np.sin(lat)
    x = c.a * (lon - c.lon0) * np.cos(lat) / np.sqrt(1 - c.e2 * s * s)
    return c.x0 + x, c.y0 + c.arc.m(lat)


def _sinu_inverse(c: _SinuConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    phi = c.arc.phi(y)
    s = np.sin(phi)
    cphi = np.cos(phi)
    lam = np.where(
        np.abs(cphi) < 1e-12,
        c.lon0,
        c.lon0 + x * np.sqrt(1 - c.e2 * s * s) / (c.a * np.where(np.abs(cphi) < 1e-12, 1.0, cphi)),
    )
    lon_out = (np.degrees(lam) + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(phi)


class _CeaConsts:
    """Lambert cylindrical equal-area, ellipsoidal form (Snyder,
    "Map Projections — A Working Manual", eq. 10-1/10-2 with the
    authalic-latitude inverse): x = a k0 (λ−λ0); y = a q(φ)/(2 k0);
    k0 = cos(φts)/sqrt(1−e² sin²φts).  EPSG method 9835 — the
    EASE-Grid 2.0 family (EPSG 6933, lat_ts=30)."""

    __slots__ = ("a", "e2", "e", "k0", "lon0", "x0", "y0", "qp")

    def __init__(self, a, f, lat_ts, lon0, x0, y0):
        self.a = a
        e2 = f * (2.0 - f)
        self.e2 = e2
        self.e = math.sqrt(e2)
        ts = math.radians(lat_ts)
        self.k0 = math.cos(ts) / math.sqrt(1 - e2 * math.sin(ts) ** 2)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        self.qp = float(self.q_arr(np.array([math.pi / 2]))[0])

    def q_arr(self, phi):
        return _authalic_q(self.e, self.e2, phi)

    def phi_from_q(self, q):
        return _authalic_phi(self.e, self.e2, q, self.qp)


def _cea_forward(c: _CeaConsts, lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x = c.x0 + c.a * c.k0 * (lon - c.lon0)
    y = c.y0 + c.a * c.q_arr(lat) / (2 * c.k0)
    return x, y


def _cea_inverse(c: _CeaConsts, x, y):
    x = np.asarray(x, dtype=np.float64) - c.x0
    y = np.asarray(y, dtype=np.float64) - c.y0
    q = np.clip(2 * c.k0 * y / c.a, -c.qp, c.qp)
    phi = c.phi_from_q(q)
    lam = c.lon0 + x / (c.a * c.k0)
    lon_out = (np.degrees(lam) + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(phi)


class _GeosConsts:
    """Geostationary satellite view (proj4 ``+proj=geos``): the GOES-R
    ABI fixed grid (sweep=x) and MSG SEVIRI full-disk grid (sweep=y).
    Coordinates are the instrument scan angles scaled by the satellite
    height h: x = h·θx, y = h·θy, a line-of-sight intersection with
    the ellipsoid.  Same model as PROJ's geos projection / the CGMS
    LRIT/HRIT normalized geostationary projection (public specs); all
    quantities below are normalized by the semi-major axis."""

    __slots__ = ("a", "e2", "lon0", "x0", "y0", "h", "radius_g", "radius_g_1",
                 "C", "radius_p", "radius_p2", "radius_p_inv2", "flip_axis")

    def __init__(self, a, f, h, lon0, x0, y0, sweep: str = "y"):
        if h <= 0:
            raise ValueError("geos projection needs satellite height +h > 0")
        if sweep not in ("x", "y"):
            raise ValueError(f"geos sweep must be 'x' or 'y', got {sweep!r}")
        self.a = a
        self.e2 = f * (2.0 - f)
        self.lon0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0
        self.h = h
        self.radius_g_1 = h / a
        self.radius_g = 1.0 + self.radius_g_1
        self.C = self.radius_g**2 - 1.0
        self.radius_p2 = 1.0 - self.e2
        self.radius_p = math.sqrt(self.radius_p2)
        self.radius_p_inv2 = 1.0 / self.radius_p2
        self.flip_axis = sweep == "x"


def _geos_forward(c: _GeosConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64)) - c.lon0
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    # geocentric latitude on the normalized ellipse, surface radius r
    phi = np.arctan(c.radius_p2 * np.tan(lat))
    r = c.radius_p / np.hypot(c.radius_p * np.cos(phi), np.sin(phi))
    vx = r * np.cos(lam) * np.cos(phi)
    vy = r * np.sin(lam) * np.cos(phi)
    vz = r * np.sin(phi)
    # the point is visible iff the satellite->point ray does not pass
    # through the ellipsoid first (dot of view ray with local normal)
    visible = ((c.radius_g - vx) * vx - vy * vy - vz * vz * c.radius_p_inv2) >= 0
    tmp = c.radius_g - vx
    with np.errstate(invalid="ignore", divide="ignore"):
        if c.flip_axis:
            x = c.radius_g_1 * np.arctan(vy / np.hypot(vz, tmp))
            y = c.radius_g_1 * np.arctan(vz / tmp)
        else:
            x = c.radius_g_1 * np.arctan(vy / tmp)
            y = c.radius_g_1 * np.arctan(vz / np.hypot(vy, tmp))
    x = np.where(visible, c.x0 + c.a * x, np.nan)
    y = np.where(visible, c.y0 + c.a * y, np.nan)
    return x, y


def _geos_inverse(c: _GeosConsts, x, y):
    xn = (np.asarray(x, dtype=np.float64) - c.x0) / (c.a * c.radius_g_1)
    yn = (np.asarray(y, dtype=np.float64) - c.y0) / (c.a * c.radius_g_1)
    vx = np.full(np.broadcast(xn, yn).shape, -1.0)
    if c.flip_axis:
        vz = np.tan(yn)
        vy = np.tan(xn) * np.hypot(1.0, vz)
    else:
        vy = np.tan(xn)
        vz = np.tan(yn) * np.hypot(1.0, vy)
    # quadratic for the ray/ellipsoid intersection nearest the satellite
    qa = vy * vy + (vz / c.radius_p) ** 2 + vx * vx
    qb = 2 * c.radius_g * vx
    det = qb * qb - 4 * qa * c.C
    with np.errstate(invalid="ignore"):
        k = (-qb - np.sqrt(np.where(det < 0, np.nan, det))) / (2 * qa)
        px = c.radius_g + k * vx
        py = k * vy
        pz = k * vz
        lon = np.degrees(np.arctan2(py, px) + c.lon0)
        lat = np.degrees(np.arctan(c.radius_p_inv2 * pz / np.hypot(px, py)))
    lon = (lon + 180.0) % 360.0 - 180.0
    return lon, lat


# ---------------------------------------------------------------------------
# Hotine Oblique Mercator (EPSG methods 9812 variant A / 9815 variant B;
# proj4 +proj=omerc, alpha case).  Formulas: Snyder, "Map Projections —
# A Working Manual" (USGS PP 1395, 1987), eqs 9-11..9-39, and EPSG
# Guidance Note 7-2.  The skew azimuth alpha_c is taken at the
# projection centre (lat0, lonc); gamma_c (rectified-to-skew angle)
# defaults to alpha_c.  Variant B (uc_offset=True, PROJ's default)
# measures u from the projection centre; +no_uoff / variant A keeps
# the natural aposphere origin.
# ---------------------------------------------------------------------------


class _OmercConsts:
    __slots__ = (
        "a", "e", "e2", "B", "A", "H", "gamma0", "lam0", "uc",
        "k0", "singc", "cosgc", "fe", "fn",
    )

    def __init__(self, a, f, lat0, lonc, alpha_c, gamma_c, k0, fe, fn, uc_offset=True):
        e2 = f * (2.0 - f)
        e = math.sqrt(e2)
        phi0 = math.radians(lat0)
        lamc = math.radians(lonc)
        alpha = math.radians(alpha_c)
        gamma = math.radians(gamma_c)
        sphi0 = math.sin(phi0)
        cphi0 = math.cos(phi0)
        B = math.sqrt(1.0 + e2 * cphi0**4 / (1.0 - e2))
        A = a * B * k0 * math.sqrt(1.0 - e2) / (1.0 - e2 * sphi0 * sphi0)
        t0 = math.tan(math.pi / 4 - phi0 / 2) / (
            (1.0 - e * sphi0) / (1.0 + e * sphi0)
        ) ** (e / 2)
        D = B * math.sqrt(1.0 - e2) / (cphi0 * math.sqrt(1.0 - e2 * sphi0 * sphi0))
        D2 = max(D * D, 1.0)
        sign = -1.0 if phi0 < 0 else 1.0
        F = D + math.sqrt(D2 - 1.0) * sign
        H = F * t0**B
        G = (F - 1.0 / F) / 2.0
        gamma0 = math.asin(math.sin(alpha) / D)
        lam0 = lamc - math.asin(G * math.tan(gamma0)) / B
        if uc_offset:
            if abs(alpha_c) == 90.0:
                uc = A * (lamc - lam0)
            else:
                uc = (A / B) * math.atan2(math.sqrt(D2 - 1.0), math.cos(alpha)) * sign
        else:
            uc = 0.0
        self.a, self.e, self.e2 = a, e, e2
        self.B, self.A, self.H = B, A, H
        self.gamma0, self.lam0, self.uc = gamma0, lam0, uc
        self.k0 = k0
        self.singc, self.cosgc = math.sin(gamma), math.cos(gamma)
        self.fe, self.fn = fe, fn


def _omerc_forward(c: _OmercConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    sphi = np.clip(np.sin(phi), -1.0 + 1e-15, 1.0 - 1e-15)
    t = np.tan(math.pi / 4 - phi / 2) / ((1.0 - c.e * sphi) / (1.0 + c.e * sphi)) ** (c.e / 2)
    Q = c.H / np.maximum(t, 1e-300) ** c.B
    S = (Q - 1.0 / Q) / 2.0
    T = (Q + 1.0 / Q) / 2.0
    dlam = (lam - c.lam0 + math.pi) % (2 * math.pi) - math.pi
    V = np.sin(c.B * dlam)
    U = np.clip((-V * math.cos(c.gamma0) + S * math.sin(c.gamma0)) / T, -1.0 + 1e-15, 1.0 - 1e-15)
    v = c.A * np.log((1.0 - U) / (1.0 + U)) / (2.0 * c.B)
    u = c.A * np.arctan2(S * math.cos(c.gamma0) + V * math.sin(c.gamma0), np.cos(c.B * dlam)) / c.B
    u = u - c.uc
    x = v * c.cosgc + u * c.singc + c.fe
    y = u * c.cosgc - v * c.singc + c.fn
    return x, y


def _omerc_inverse(c: _OmercConsts, x, y):
    xr = np.asarray(x, dtype=np.float64) - c.fe
    yr = np.asarray(y, dtype=np.float64) - c.fn
    v = xr * c.cosgc - yr * c.singc
    u = yr * c.cosgc + xr * c.singc + c.uc
    Q = np.exp(-c.B * v / c.A)
    S = (Q - 1.0 / Q) / 2.0
    T = (Q + 1.0 / Q) / 2.0
    V = np.sin(c.B * u / c.A)
    U = np.clip((V * math.cos(c.gamma0) + S * math.sin(c.gamma0)) / T, -1.0 + 1e-15, 1.0 - 1e-15)
    t = (c.H / np.sqrt((1.0 + U) / (1.0 - U))) ** (1.0 / c.B)
    # Mercator latitude from isometric t by fixed-point iteration
    phi = math.pi / 2 - 2.0 * np.arctan(t)
    for _ in range(8):
        es = c.e * np.sin(phi)
        phi = math.pi / 2 - 2.0 * np.arctan(t * ((1.0 - es) / (1.0 + es)) ** (c.e / 2))
    lam = c.lam0 - np.arctan2(S * math.cos(c.gamma0) - V * math.sin(c.gamma0), np.cos(c.B * u / c.A)) / c.B
    lon_out = (np.degrees(lam) + 180.0) % 360.0 - 180.0
    return lon_out, np.degrees(phi)


# ---------------------------------------------------------------------------
# CRS registry / dispatch
# ---------------------------------------------------------------------------


class CRS:
    """A coordinate reference system that can convert to/from lon-lat
    (degrees, WGS84 datum assumed throughout — matches the reference's
    EPSG usage, which never crosses datums)."""

    def __init__(self, kind: str, key, fwd=None, inv=None):
        self.kind = kind  # 'geographic' | 'projected'
        self.key = key  # epsg int or proj4 string
        self._fwd = fwd  # lonlat -> xy
        self._inv = inv  # xy -> lonlat

    def from_lonlat(self, lon, lat):
        if self.kind == "geographic":
            return np.asarray(lon, dtype=np.float64), np.asarray(lat, dtype=np.float64)
        return self._fwd(lon, lat)

    def to_lonlat(self, x, y):
        if self.kind == "geographic":
            return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        return self._inv(x, y)

    def __repr__(self):
        return f"CRS({self.key})"


_CRS_CACHE: dict = {}


def crs_from_epsg(epsg: int) -> CRS:
    """EPSG registry: 4326, 3857, UTM 32601-32660 (N) / 32701-32760 (S).

    Mirrors reference ``srs_from_epsg`` (geometry.py:122-126) for the
    codes its tests exercise (4326, 3857, 32628/31/35, 32720)."""
    epsg = int(epsg)
    hit = _CRS_CACHE.get(epsg)
    if hit is not None:
        return hit
    if 32601 <= epsg <= 32660 or 32701 <= epsg <= 32760:
        p4 = f"+proj=utm +zone={epsg % 100}{' +south' if epsg >= 32701 else ''} +ellps=WGS84"
    elif epsg in _EPSG_PROJ4:
        p4 = _EPSG_PROJ4[epsg]
    else:
        raise ValueError(
            f"unsupported EPSG:{epsg} — registry codes: UTM 326xx/327xx, "
            f"{sorted(_EPSG_PROJ4)}; any other CRS of a supported family "
            f"(longlat, webmerc, {', '.join(sorted([*_FAMILIES, *_BUILDERS]))}) can be "
            f"passed as its proj4 string"
        )
    # Rewrap so .key stays the int EPSG — consumers (GeoInfo, gtiff
    # geokeys) branch on isinstance(key, int).
    crs = copy.copy(crs_from_proj4(p4))
    crs.key = epsg
    _CRS_CACHE[epsg] = crs
    return crs


# The EPSG registry: every code (UTM aside) is its published proj4
# definition (EPSG registry via PROJ; parameter values are public),
# routed through ``crs_from_proj4`` — the reference accepts arbitrary
# SRS via OSR (geometry.py:122-126), and this is the engine's
# parameter-generic equivalent: one line per code, no new kernel.
# Floats are written with ``repr`` so each parses back to the same
# bits.  Only datums treated as WGS84-coincident (NAD83 / ETRS89 /
# RGF93 / GDA94 / GDM2000 / NZGD2000: <~1-2 m offset, the usual GIS
# convention) are listed, plus Timbalai 1948 (29873), served on its
# Everest ellipsoid in native-datum coordinates; shifted-datum codes
# (OSGB36 27700, ED50 23030, BD72 31370, ...) stay rejected so a
# missing datum shift can never pass silently — their projection math
# is still reachable via an explicit proj4 string, where native-datum
# coordinates are the stated contract.
_EPSG_PROJ4 = {
    4326: "+proj=longlat +ellps=WGS84",  # WGS 84
    4269: "+proj=longlat +ellps=GRS80",  # NAD83
    4258: "+proj=longlat +ellps=GRS80",  # ETRS89
    3857: "+proj=webmerc +ellps=WGS84",  # WGS 84 / Pseudo-Mercator (spherical closed form)
    3395: "+proj=merc +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / World Mercator (ellipsoidal, EPSG 9804)
    3994: "+proj=merc +lat_ts=-41 +lon_0=100 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / Mercator 41
    4087: "+proj=eqc +lat_ts=0 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / World Equidistant Cylindrical (EPSG 1028)
    # WGS 84 / Plate Carree (deprecated): SPHERICAL method 1029 with
    # R = semi-major, x = a*lam, y = a*phi
    32662: "+proj=eqc +lat_ts=0 +lon_0=0 +x_0=0 +y_0=0 +R=6378137",
    2193: "+proj=tmerc +lat_0=0 +lon_0=173 +k=0.9996 +x_0=1600000 +y_0=10000000 +ellps=GRS80",  # NZGD2000 / NZTM2000
    25832: "+proj=utm +zone=32 +ellps=GRS80",  # ETRS89 / UTM zone 32N
    5070: "+proj=aea +lat_0=23 +lon_0=-96 +lat_1=29.5 +lat_2=45.5 +x_0=0 +y_0=0 +ellps=GRS80",  # NAD83 / Conus Albers
    3577: "+proj=aea +lat_0=0 +lon_0=132 +lat_1=-18 +lat_2=-36 +x_0=0 +y_0=0 +ellps=GRS80",  # GDA94 / Australian Albers
    3338: "+proj=aea +lat_0=50 +lon_0=-154 +lat_1=55 +lat_2=65 +x_0=0 +y_0=0 +ellps=GRS80",  # NAD83 / Alaska Albers
    3083: "+proj=aea +lat_0=18 +lon_0=-100 +lat_1=27.5 +lat_2=35 +x_0=1500000 +y_0=6000000 +ellps=GRS80",  # NAD83 / Texas Centric Albers
    2154: "+proj=lcc +lat_0=46.5 +lon_0=3 +lat_1=49 +lat_2=44 +x_0=700000 +y_0=6600000 +ellps=GRS80",  # RGF93 / Lambert-93
    3034: "+proj=lcc +lat_0=52 +lon_0=10 +lat_1=35 +lat_2=65 +x_0=4000000 +y_0=2800000 +ellps=GRS80",  # ETRS89 / LCC Europe
    3978: "+proj=lcc +lat_0=49 +lon_0=-95 +lat_1=49 +lat_2=77 +x_0=0 +y_0=0 +ellps=GRS80",  # NAD83 / Canada Atlas Lambert
    3112: "+proj=lcc +lat_0=0 +lon_0=134 +lat_1=-18 +lat_2=-36 +x_0=0 +y_0=0 +ellps=GRS80",  # GDA94 / Geoscience Australia Lambert
    5243: "+proj=lcc +lat_0=51 +lon_0=10.5 +lat_1=48.666666666666664 +lat_2=53.666666666666664 +x_0=0 +y_0=0 +ellps=GRS80",  # ETRS89 / LCC Germany
    3035: "+proj=laea +lat_0=52 +lon_0=10 +x_0=4321000 +y_0=3210000 +ellps=GRS80",  # ETRS89 / LAEA Europe
    6931: "+proj=laea +lat_0=90 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / NSIDC EASE-Grid 2.0 North
    6932: "+proj=laea +lat_0=-90 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / NSIDC EASE-Grid 2.0 South
    6933: "+proj=cea +lat_ts=30 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / NSIDC EASE-Grid 2.0 Global (EPSG 9835)
    5880: "+proj=poly +lat_0=0 +lon_0=-54 +x_0=5000000 +y_0=10000000 +ellps=GRS80",  # SIRGAS 2000 / Brazil Polyconic
    3413: "+proj=stere +lat_0=90 +lat_ts=70 +lon_0=-45 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / NSIDC Sea Ice Polar North
    3976: "+proj=stere +lat_0=-90 +lat_ts=-70 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / NSIDC Sea Ice Polar South
    3031: "+proj=stere +lat_0=-90 +lat_ts=-71 +lon_0=0 +x_0=0 +y_0=0 +ellps=WGS84",  # WGS 84 / Antarctic Polar Stereographic
    5041: "+proj=stere +lat_0=90 +lat_ts=90 +lon_0=0 +k=0.994 +x_0=2000000 +y_0=2000000 +ellps=WGS84",  # WGS 84 / UPS North (E,N)
    5042: "+proj=stere +lat_0=-90 +lat_ts=-90 +lon_0=0 +k=0.994 +x_0=2000000 +y_0=2000000 +ellps=WGS84",  # WGS 84 / UPS South (E,N)
    # Hotine Oblique Mercator variant B (EPSG method 9815; worked
    # example in EPSG Guidance Note 7-2).  The Peninsular RSO azimuth
    # 323°01'32.8458" / skew 323°07'48.3685" and the Borneo RSO azimuth
    # 53°18'56.9537" / skew 53°07'48.3685" are written as decimal degrees.
    3375: "+proj=omerc +lat_0=4 +lonc=102.25 +alpha=323.02579049999997 +gamma=323.13010236111114 +k=0.99984 +x_0=804671 +y_0=0 +ellps=GRS80",  # GDM2000 / Peninsular RSO
    3376: "+proj=omerc +lat_0=4 +lonc=115 +alpha=53.31582047222222 +gamma=53.13010236111111 +k=0.99984 +x_0=0 +y_0=0 +ellps=GRS80",  # GDM2000 / East Malaysia BRSO
    29873: "+proj=omerc +lat_0=4 +lonc=115 +alpha=53.31582047222222 +gamma=53.13010236111111 +k=0.99984 +x_0=590476.87 +y_0=442857.65 +ellps=evrstSS",  # Timbalai 1948 / RSO Borneo (m)
    # ESRI world WKIDs (the 54xxx family is routinely passed as a bare
    # int where an EPSG is expected; spherical world projections on
    # the WGS84 a-axis, as in PROJ/ESRI)
    54003: "+proj=mill +lon_0=0 +x_0=0 +y_0=0 +a=6378137",  # World Miller
    54009: "+proj=moll +lon_0=0 +x_0=0 +y_0=0 +a=6378137",  # World Mollweide
    54012: "+proj=eck4 +lon_0=0 +x_0=0 +y_0=0 +a=6378137",  # World Eckert IV
    54030: "+proj=robin +lon_0=0 +x_0=0 +y_0=0 +a=6378137",  # World Robinson
}


_P4_FLOAT = re.compile(r"\+([a-zA-Z_0-9]+)=([^\s]+)")


class _MollConsts:
    """Mollweide (``+proj=moll``; ESRI:54009 World Mollweide).
    Spherical, as in PROJ (the a-axis sphere): the unique equal-area
    pseudocylindrical whose meridians are ellipses on a 2:1 world
    outline — the tests pin exactly that (numeric areal scale == 1,
    boundary ellipse semi-axes 2*sqrt(2)*a x sqrt(2)*a) plus
    roundtrips.  theta solves 2t + sin 2t = pi sin phi by Newton
    (Snyder 31-1..31-5)."""

    __slots__ = ("a", "lam0", "x0", "y0")

    def __init__(self, a, lon0, x0, y0):
        self.a = a
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


_SQRT2 = math.sqrt(2.0)


def _wrap_pi(dlam: np.ndarray) -> np.ndarray:
    """Normalize a longitude difference to (-pi, pi] (PROJ adjlon)."""
    return dlam - 2.0 * math.pi * np.ceil((dlam - math.pi) / (2.0 * math.pi))


def _moll_theta(phi: np.ndarray) -> np.ndarray:
    rhs = math.pi * np.sin(phi)
    t = phi.copy()
    for _ in range(12):
        f = 2.0 * t + np.sin(2.0 * t) - rhs
        fp = 2.0 + 2.0 * np.cos(2.0 * t)
        step = np.where(np.abs(fp) < 1e-12, 0.0, f / np.where(np.abs(fp) < 1e-12, 1.0, fp))
        t = t - step
    # poles: derivative vanishes; the exact solution is +-pi/2
    return np.where(np.abs(phi) >= math.pi / 2 - 1e-10, np.sign(phi) * (math.pi / 2), t)


def _moll_forward(c: _MollConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    t = _moll_theta(phi)
    x = (2.0 * _SQRT2 / math.pi) * c.a * _wrap_pi(lam - c.lam0) * np.cos(t)
    y = _SQRT2 * c.a * np.sin(t)
    return c.x0 + x, c.y0 + y


def _moll_inverse(c: _MollConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    t = np.arcsin(np.clip(yt / (_SQRT2 * c.a), -1.0, 1.0))
    phi = np.arcsin(np.clip((2.0 * t + np.sin(2.0 * t)) / math.pi, -1.0, 1.0))
    ct = np.cos(t)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = c.lam0 + math.pi * xt / (2.0 * _SQRT2 * c.a * ct)
    lam = np.where(ct < 1e-12, c.lam0, lam)
    return np.degrees(lam), np.degrees(phi)


class _Eck4Consts:
    """Eckert IV (``+proj=eck4``; ESRI:54012) — the equal-area
    pseudocylindrical with elliptic-arc meridians (Snyder ch. 32,
    eqs. 32-1..32-6), spherical on the a-axis as in PROJ.  theta
    solves theta + sin t cos t + 2 sin t = (2 + pi/2) sin phi by
    Newton; the tests pin the equal-area Jacobian and the published
    outline constants."""

    __slots__ = ("a", "lam0", "x0", "y0")

    def __init__(self, a, lon0, x0, y0):
        self.a = a
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


_ECK4_CX = 2.0 / math.sqrt(4.0 * math.pi + math.pi * math.pi)
_ECK4_CY = 2.0 * math.sqrt(math.pi / (4.0 + math.pi))


def _eck4_theta(phi: np.ndarray) -> np.ndarray:
    rhs = (2.0 + math.pi / 2.0) * np.sin(phi)
    t = phi / 2.0
    for _ in range(14):
        st, ct = np.sin(t), np.cos(t)
        f = t + st * ct + 2.0 * st - rhs
        fp = 1.0 + ct * ct - st * st + 2.0 * ct
        step = np.where(np.abs(fp) < 1e-12, 0.0, f / np.where(np.abs(fp) < 1e-12, 1.0, fp))
        t = t - step
    return np.where(np.abs(phi) >= math.pi / 2 - 1e-10, np.sign(phi) * (math.pi / 2), t)


def _eck4_forward(c: _Eck4Consts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    t = _eck4_theta(phi)
    x = _ECK4_CX * c.a * _wrap_pi(lam - c.lam0) * (1.0 + np.cos(t))
    y = _ECK4_CY * c.a * np.sin(t)
    return c.x0 + x, c.y0 + y


def _eck4_inverse(c: _Eck4Consts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    t = np.arcsin(np.clip(yt / (_ECK4_CY * c.a), -1.0, 1.0))
    st, ct = np.sin(t), np.cos(t)
    phi = np.arcsin(np.clip((t + st * ct + 2.0 * st) / (2.0 + math.pi / 2.0), -1.0, 1.0))
    denom = _ECK4_CX * c.a * (1.0 + ct)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = c.lam0 + xt / denom
    lam = np.where(denom < 1e-12, c.lam0, lam)
    return np.degrees(lam), np.degrees(phi)


class _MillConsts:
    """Miller cylindrical (``+proj=mill``; ESRI:54003) — spherical,
    Snyder eqs. 11-1..11-5: y = (5/4) R ln tan(pi/4 + 2 phi/5),
    computed as asinh(tan(4 phi / 5)) for stability near the poles."""

    __slots__ = ("a", "lam0", "x0", "y0")

    def __init__(self, a, lon0, x0, y0):
        self.a = a
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _mill_forward(c: _MillConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    x = c.a * _wrap_pi(lam - c.lam0)
    y = 1.25 * c.a * np.arcsinh(np.tan(0.8 * phi))
    return c.x0 + x, c.y0 + y


def _mill_inverse(c: _MillConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    lam = c.lam0 + xt / c.a
    phi = 1.25 * np.arctan(np.sinh(0.8 * yt / c.a))
    return np.degrees(lam), np.degrees(phi)


class _AzSphConsts:
    """Shared constants for the spherical azimuthal family
    (orthographic / gnomonic / azimuthal equidistant), Snyder
    chapters 20/22/25: projection center (lat_0, lon_0) on the
    a-axis sphere."""

    __slots__ = ("a", "sp0", "cp0", "lam0", "x0", "y0")

    def __init__(self, a, lat0, lon0, x0, y0):
        self.a = a
        p0 = math.radians(lat0)
        self.sp0, self.cp0 = math.sin(p0), math.cos(p0)
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _az_cos_c(c: _AzSphConsts, phi, dlam):
    """Angular distance from the projection center (Snyder 5-3)."""
    return c.sp0 * np.sin(phi) + c.cp0 * np.cos(phi) * np.cos(dlam)


def _az_xy(c: _AzSphConsts, kp, phi, dlam):
    """x, y for radial scale factor kp (Snyder 22-4/22-5 family)."""
    x = c.a * kp * np.cos(phi) * np.sin(dlam)
    y = c.a * kp * (c.cp0 * np.sin(phi) - c.sp0 * np.cos(phi) * np.cos(dlam))
    return c.x0 + x, c.y0 + y


def _az_inverse(c: _AzSphConsts, xt, yt, sin_c, cos_c, rho):
    """Shared azimuthal inverse (Snyder 20-14/20-15) given the
    angular distance decomposition of rho."""
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arcsin(np.clip(cos_c * c.sp0 + yt * sin_c * c.cp0 / rho, -1.0, 1.0))
        lam = c.lam0 + np.arctan2(xt * sin_c, rho * c.cp0 * cos_c - yt * c.sp0 * sin_c)
    center = rho < 1e-12
    phi = np.where(center, math.asin(max(-1.0, min(1.0, c.sp0))), phi)
    lam = np.where(center, c.lam0, lam)
    return np.degrees(lam), np.degrees(phi)


def _ortho_forward(c: _AzSphConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    dlam = _wrap_pi(lam - c.lam0)
    cos_c = _az_cos_c(c, phi, dlam)
    kp = np.where(cos_c >= -1e-12, 1.0, np.nan)  # far hemisphere: undefined
    return _az_xy(c, kp, phi, dlam)


def _ortho_inverse(c: _AzSphConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.hypot(xt, yt)
    sin_c = np.clip(rho / c.a, 0.0, 1.0)
    cos_c = np.sqrt(1.0 - sin_c * sin_c)
    return _az_inverse(c, xt, yt, sin_c, cos_c, rho)


def _gnom_forward(c: _AzSphConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    dlam = _wrap_pi(lam - c.lam0)
    cos_c = _az_cos_c(c, phi, dlam)
    with np.errstate(invalid="ignore", divide="ignore"):
        kp = np.where(cos_c > 1e-9, 1.0 / cos_c, np.nan)  # horizon at infinity
    return _az_xy(c, kp, phi, dlam)


def _gnom_inverse(c: _AzSphConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.hypot(xt, yt)
    cang = np.arctan2(rho, np.full_like(rho, c.a))  # c = atan(rho / a)
    return _az_inverse(c, xt, yt, np.sin(cang), np.cos(cang), rho)


def _aeqd_forward(c: _AzSphConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    dlam = _wrap_pi(lam - c.lam0)
    cos_c = np.clip(_az_cos_c(c, phi, dlam), -1.0, 1.0)
    cang = np.arccos(cos_c)
    sin_c = np.sin(cang)
    with np.errstate(invalid="ignore", divide="ignore"):
        kp = np.where(sin_c < 1e-12, 1.0, cang / np.where(sin_c < 1e-12, 1.0, sin_c))
    kp = np.where(cos_c <= -1.0 + 1e-12, np.nan, kp)  # antipode: azimuth undefined
    return _az_xy(c, kp, phi, dlam)


def _aeqd_inverse(c: _AzSphConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.hypot(xt, yt)
    cang = rho / c.a  # rho IS the great-circle distance
    return _az_inverse(c, xt, yt, np.sin(cang), np.cos(cang), rho)


class _AeqdPolarConsts:
    """Azimuthal equidistant, ellipsoidal POLAR aspect (Snyder
    25-16): rho = |Mp -+ M(phi)| along every meridian — true
    meridian distances from the pole, the defining invariant the
    tests pin.  Oblique/equatorial ellipsoidal aspects need geodesic
    azimuth/distance (Karney); pass ``+R=`` for the spherical form
    instead (documented seam)."""

    __slots__ = ("a", "arc", "north", "Mp", "lam0", "x0", "y0")

    def __init__(self, a, f, north, lon0, x0, y0):
        self.a = a
        self.arc = _MeridArc(a, f)
        self.north = north
        self.Mp = float(self.arc.m(np.array([math.pi / 2]))[0])
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _aeqd_polar_forward(c: _AeqdPolarConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    phi = np.radians(np.asarray(lat_deg, dtype=np.float64))
    M = c.arc.m(phi)
    dlam = lam - c.lam0
    if c.north:
        rho = c.Mp - M
        return c.x0 + rho * np.sin(dlam), c.y0 - rho * np.cos(dlam)
    rho = c.Mp + M
    return c.x0 + rho * np.sin(dlam), c.y0 + rho * np.cos(dlam)


def _aeqd_polar_inverse(c: _AeqdPolarConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    rho = np.hypot(xt, yt)
    if c.north:
        phi = c.arc.phi(c.Mp - rho)
        lam = c.lam0 + np.arctan2(xt, -yt)
    else:
        phi = c.arc.phi(rho - c.Mp)
        lam = c.lam0 + np.arctan2(xt, yt)
    lam = np.where(rho < 1e-9, c.lam0, lam)
    return np.degrees(lam), np.degrees(phi)


# Robinson 1974 table: (X, Y) at 5-degree latitude steps 0..90 —
# X scales parallel length, Y scales pole-ward distance; the map is
# x = 0.8487 R X dlam, y = 1.3523 R Y sign(phi).  The table itself is
# the published definition (Robinson, "A New Map Projection", 1974);
# between nodes this implementation interpolates with a NATURAL CUBIC
# SPLINE (documented choice: PROJ fits its own local cubics, so
# off-node values differ at the 1e-4 relative level — there is no
# single canonical interpolant).
_ROBIN_X = np.array([
    1.0000, 0.9986, 0.9954, 0.9900, 0.9822, 0.9730, 0.9600, 0.9427,
    0.9216, 0.8962, 0.8679, 0.8350, 0.7986, 0.7597, 0.7186, 0.6732,
    0.6213, 0.5722, 0.5322,
])
_ROBIN_Y = np.array([
    0.0000, 0.0620, 0.1240, 0.1860, 0.2480, 0.3100, 0.3720, 0.4340,
    0.4958, 0.5571, 0.6176, 0.6769, 0.7346, 0.7903, 0.8435, 0.8936,
    0.9394, 0.9761, 1.0000,
])


def _nat_cubic_d2(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives of the natural cubic spline through equally
    spaced nodes (classic tridiagonal solve)."""
    n = len(y)
    d2 = np.zeros(n)
    # tridiagonal: h/6 * [1 4 1] pattern; natural ends d2[0]=d2[-1]=0
    sub = np.full(n - 2, 1.0)
    diag = np.full(n - 2, 4.0)
    rhs = 6.0 * (y[2:] - 2 * y[1:-1] + y[:-2]) / (h * h)
    # Thomas algorithm
    cp = np.zeros(n - 2)
    dp = np.zeros(n - 2)
    cp[0] = sub[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n - 2):
        m = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sub[i] / m
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / m
    x = np.zeros(n - 2)
    x[-1] = dp[-1]
    for i in range(n - 4, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    d2[1:-1] = x
    return d2


_ROBIN_H = 5.0
_ROBIN_X_D2 = _nat_cubic_d2(_ROBIN_X, _ROBIN_H)
_ROBIN_Y_D2 = _nat_cubic_d2(_ROBIN_Y, _ROBIN_H)


def _robin_spline(table: np.ndarray, d2: np.ndarray, latdeg: np.ndarray) -> np.ndarray:
    """Evaluate the natural cubic spline at |latdeg| in [0, 90]."""
    t = np.clip(latdeg, 0.0, 90.0)
    i = np.minimum((t / _ROBIN_H).astype(np.int64), len(table) - 2)
    u = (t - i * _ROBIN_H) / _ROBIN_H  # in [0, 1]
    h2 = _ROBIN_H * _ROBIN_H
    a, b = 1.0 - u, u
    # explicit a*a*a (not a**3): both this kernel and the DuckDB twin
    # then evaluate the identical IEEE multiply chain
    return (
        a * table[i]
        + b * table[i + 1]
        + ((a * a * a - a) * d2[i] + (b * b * b - b) * d2[i + 1]) * h2 / 6.0
    )


class _RobinConsts:
    """Robinson (``+proj=robin``; ESRI:54030) — the compromise world
    projection, defined by Robinson's published 5-degree table (see
    _ROBIN_X/_ROBIN_Y above)."""

    __slots__ = ("a", "lam0", "x0", "y0")

    def __init__(self, a, lon0, x0, y0):
        self.a = a
        self.lam0 = math.radians(lon0)
        self.x0, self.y0 = x0, y0


def _robin_forward(c: _RobinConsts, lon_deg, lat_deg):
    lam = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.asarray(lat_deg, dtype=np.float64)
    alat = np.abs(lat)
    X = _robin_spline(_ROBIN_X, _ROBIN_X_D2, alat)
    Y = _robin_spline(_ROBIN_Y, _ROBIN_Y_D2, alat)
    x = 0.8487 * c.a * X * _wrap_pi(lam - c.lam0)
    y = 1.3523 * c.a * Y * np.sign(lat)
    return c.x0 + x, c.y0 + y


def _robin_inverse(c: _RobinConsts, x, y):
    xt = np.asarray(x, dtype=np.float64) - c.x0
    yt = np.asarray(y, dtype=np.float64) - c.y0
    yn = np.clip(np.abs(yt) / (1.3523 * c.a), 0.0, 1.0)
    # invert the monotone Y spline by bisection (vectorized, 48 steps
    # -> ~90 / 2^48 deg, far below float64 output rounding)
    lo = np.zeros_like(yn)
    hi = np.full_like(yn, 90.0)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = _robin_spline(_ROBIN_Y, _ROBIN_Y_D2, mid) < yn
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    alat = 0.5 * (lo + hi)
    X = _robin_spline(_ROBIN_X, _ROBIN_X_D2, alat)
    lam = c.lam0 + xt / (0.8487 * c.a * X)
    return np.degrees(lam), alat * np.sign(yt)


def _p4_ellipsoid(params: dict) -> Tuple[float, float]:
    """(a, f) from proj4 params: +R (sphere), +a/+b (explicit axes),
    +a alone (keeps the named/default flattening), or +ellps.  An
    unknown +ellps, a +datum other than WGS84, a nonzero +towgs84 or a
    +nadgrids other than @null raises: no datum shift is applied, so
    none may pass silently."""
    datum = params.get("datum", "WGS84")
    if datum != "WGS84":
        raise ValueError(f"unsupported +datum={datum}: datum shifts are not applied (only WGS84)")
    if any(float(v) != 0.0 for v in params.get("towgs84", "0").split(",")):
        raise ValueError(f"unsupported +towgs84={params['towgs84']}: datum shifts are not applied")
    if params.get("nadgrids", "@null") != "@null":
        raise ValueError(f"unsupported +nadgrids={params['nadgrids']}: grid datum shifts are not applied")
    if "R" in params:
        return float(params["R"]), 0.0
    ellps = params.get("ellps", "WGS84")
    if ellps not in _ELLIPSOIDS:
        raise ValueError(f"unsupported +ellps={ellps} — known: {', '.join(_ELLIPSOIDS)}")
    a, rf = _ELLIPSOIDS[ellps]
    f = 0.0 if rf == 0 else 1.0 / rf
    if "a" in params:
        a = float(params["a"])
        if "b" in params:
            f = (a - float(params["b"])) / a
    return a, f


_P4_DEFAULTS = {"k": "k_0", "k_0": 1.0}


def _p4_arg(params: dict, name: str, defaults: dict = _P4_DEFAULTS) -> float:
    """Numeric proj4 parameter ``name``.  An absent one takes
    ``defaults[name]``, else ``_P4_DEFAULTS[name]``, else 0; a str
    default names the parameter to read instead (lat_2 -> lat_1)."""
    if name in params:
        return float(params[name])
    d = defaults.get(name, _P4_DEFAULTS.get(name, 0.0))
    return _p4_arg(params, d, defaults) if isinstance(d, str) else d


_CONIC = ("a", "f", "lat_0", "lon_0", "lat_1", "lat_2", "x_0", "y_0")
_ORIGIN = ("a", "f", "lat_0", "lon_0", "x_0", "y_0")
_LAT_TS = ("a", "f", "lat_ts", "lon_0", "x_0", "y_0")
_WORLD = ("a", "lon_0", "x_0", "y_0")  # spherical on the a-axis, as in PROJ
_AZ_SPH = ("a", "lat_0", "lon_0", "x_0", "y_0")  # spherical forms (Snyder ch. 20/22)
_LAT2_IS_LAT1 = {"lat_2": "lat_1"}

# Families whose proj4 parameters pass straight to the consts class:
# proj: (consts class, forward, inverse, consts arguments, defaults).
# "a"/"f" come from ``_p4_ellipsoid``, the rest from ``_p4_arg``.
_FAMILIES = {
    "aea": (_AeaConsts, _aea_forward, _aea_inverse, _CONIC, {}),
    "lcc": (_LccConsts, _lcc_forward, _lcc_inverse, _CONIC, _LAT2_IS_LAT1),
    "eqdc": (_EqdcConsts, _eqdc_forward, _eqdc_inverse, _CONIC, _LAT2_IS_LAT1),
    "laea": (_LaeaConsts, _laea_forward, _laea_inverse, _ORIGIN, {}),
    "cass": (_CassConsts, _cass_forward, _cass_inverse, _ORIGIN, {}),
    # American Polyconic (EPSG method 9818 — Brazil Polyconic)
    "poly": (_PolyConsts, _poly_forward, _poly_inverse, _ORIGIN, {}),
    "bonne": (_BonneConsts, _bonne_forward, _bonne_inverse, ("a", "f", "lat_1", "lon_0", "x_0", "y_0"), {}),
    # double (Gauss-sphere) stereographic, EPSG method 9809 — the RD
    # New family.  Datum note: RD New itself (EPSG 28992) is on
    # Amersfoort/Bessel, so only the proj4 form is accepted
    # (native-datum coordinates are the stated contract).
    "sterea": (_StereaConsts, _sterea_forward, _sterea_inverse, ("a", "f", "lat_0", "lon_0", "k", "x_0", "y_0"), {}),
    # proj4 semantics: ellipsoidal Mercator on the given ellipsoid
    # (default WGS84); +R / +ellps=sphere selects the spherical form
    "merc": (_MercConsts, _merc_forward, _merc_inverse, _LAT_TS, {}),
    "eqc": (_EqcConsts, _eqc_forward, _eqc_inverse, _LAT_TS, {}),
    # EASE-Grid 2.0 global (EPSG 6933): +proj=cea +lat_ts=30
    "cea": (_CeaConsts, _cea_forward, _cea_inverse, _LAT_TS, {}),
    # MODIS land grid: +proj=sinu +R=6371007.181 (authalic sphere)
    "sinu": (_SinuConsts, _sinu_forward, _sinu_inverse, ("a", "f", "lon_0", "x_0", "y_0"), {}),
    "moll": (_MollConsts, _moll_forward, _moll_inverse, _WORLD, {}),
    "mill": (_MillConsts, _mill_forward, _mill_inverse, _WORLD, {}),
    "robin": (_RobinConsts, _robin_forward, _robin_inverse, _WORLD, {}),
    "eck4": (_Eck4Consts, _eck4_forward, _eck4_inverse, _WORLD, {}),
    "ortho": (_AzSphConsts, _ortho_forward, _ortho_inverse, _AZ_SPH, {}),
    "gnom": (_AzSphConsts, _gnom_forward, _gnom_inverse, _AZ_SPH, {}),
}


# Families with logic of their own: params, proj4 -> (forward, inverse, consts).


def _utm_family(params, proj4):
    a, f = _p4_ellipsoid(params)
    zone = int(params["zone"])
    fn = 10000000.0 if "south" in proj4 else 0.0
    return _tm_forward, _tm_inverse, _TMConsts(a, f, k0=0.9996, lon0_deg=zone * 6 - 183, fe=500000.0, fn=fn)


def _tmerc_family(params, proj4):
    # general Transverse Mercator (national grids: OSGB, Gauss-
    # Krüger zones, NZTM...): the UTM Krüger series with arbitrary
    # lat_0/lon_0/k/x_0/y_0.  A nonzero lat_0 shifts the northing
    # by the projected meridian arc at lat_0 (PROJ: y = k0*(M-M0)
    # + y_0), folded into the false northing by evaluating the
    # series once at the origin.
    a, f = _p4_ellipsoid(params)
    k0, lon0, lat0, fn = (_p4_arg(params, n) for n in ("k", "lon_0", "lat_0", "y_0"))
    if lat0 != 0.0:
        base = _TMConsts(a, f, k0, lon0, 0.0, 0.0)
        _, y0r = _tm_forward(base, np.array([lon0]), np.array([lat0]))
        fn -= float(y0r[0])
    return _tm_forward, _tm_inverse, _TMConsts(a, f, k0, lon0, _p4_arg(params, "x_0"), fn)


def _stere_family(params, proj4):
    a, f = _p4_ellipsoid(params)
    lat0, lon0, x0, y0 = (_p4_arg(params, n) for n in ("lat_0", "lon_0", "x_0", "y_0"))
    if abs(lat0) != 90.0:
        # oblique / equatorial stereographic (Snyder conformal-latitude
        # form, PROJ's non-polar +proj=stere)
        return _obstere_forward, _obstere_inverse, _ObStereConsts(a, f, lat0, lon0, _p4_arg(params, "k"), x0, y0)
    lat_ts = _p4_arg(params, "lat_ts", {"lat_ts": "lat_0"})
    # PROJ semantics: +lat_ts (variant B) takes precedence; +k/+k_0
    # (variant A — UPS) applies only with the scale point at the pole
    k0 = _p4_arg(params, "k") if abs(lat_ts) >= 89.999999 else 1.0
    return _ps_forward, _ps_inverse, _PsConsts(a, f, lat_ts, lon0, x0, y0, lat0 > 0, k0)


def _omerc_family(params, proj4):
    # Hotine Oblique Mercator, alpha case (+lonc/+alpha[/+gamma]);
    # PROJ applies the centre offset u_c unless +no_uoff is given
    a, f = _p4_ellipsoid(params)
    args = (_p4_arg(params, n, {"gamma": "alpha"}) for n in ("lat_0", "lonc", "alpha", "gamma", "k", "x_0", "y_0"))
    return _omerc_forward, _omerc_inverse, _OmercConsts(a, f, *args, uc_offset="no_uoff" not in proj4)


def _geos_family(params, proj4):
    # geostationary full-disk grids: GOES-R ABI (+sweep=x) and
    # MSG SEVIRI (+sweep=y, the proj4 default), +h = satellite
    # height above the ellipsoid surface (35785831..36000000 m)
    a, f = _p4_ellipsoid(params)
    args = (_p4_arg(params, n) for n in ("h", "lon_0", "x_0", "y_0"))
    return _geos_forward, _geos_inverse, _GeosConsts(a, f, *args, sweep=params.get("sweep", "y"))


_KROVAK_DEFAULTS = {"lat_0": 49.5, "lon_0": 24.833333333333332, "alpha": 30.288139722222223, "k_0": 0.9999}


def _krovak_family(params, proj4):
    # Krovak (EPSG method 9819 — S-JTSK; shifted datum, proj4 only)
    a, f = _p4_ellipsoid({**params, "ellps": params.get("ellps", "bessel")})
    args = (_p4_arg(params, n, _KROVAK_DEFAULTS) for n in ("lat_0", "lon_0", "alpha", "k", "x_0", "y_0"))
    return _krovak_forward, _krovak_inverse, _KrovakConsts(a, f, *args)


def _aeqd_family(params, proj4):
    a, f = _p4_ellipsoid(params)
    lat0, lon0, x0, y0 = (_p4_arg(params, n) for n in ("lat_0", "lon_0", "x_0", "y_0"))
    if f <= 0:
        return _aeqd_forward, _aeqd_inverse, _AzSphConsts(a, lat0, lon0, x0, y0)
    if abs(lat0) >= 90.0 - 1e-9:
        return _aeqd_polar_forward, _aeqd_polar_inverse, _AeqdPolarConsts(a, f, lat0 > 0, lon0, x0, y0)
    raise ValueError(
        "aeqd: oblique/equatorial ellipsoidal aspects need geodesic "
        "azimuth/distance (not implemented) — pass the spherical form "
        "with +R=<radius> (PROJ's pre-geodesic behavior), or a polar "
        "+lat_0=+-90 for the exact ellipsoidal aspect"
    )


_BUILDERS = {
    "utm": _utm_family,
    "tmerc": _tmerc_family,
    "stere": _stere_family,
    "omerc": _omerc_family,
    "geos": _geos_family,
    "krovak": _krovak_family,
    "aeqd": _aeqd_family,
}


def crs_from_proj4(proj4: str) -> CRS:
    """Build the CRS of a proj4 string: ``longlat``, ``webmerc``, a
    ``_FAMILIES`` row or a ``_BUILDERS`` family.  The reference tests
    pass ``+proj=aea`` (tests/test_raster.py:489-494) and ``longlat``."""
    hit = _CRS_CACHE.get(proj4)
    if hit is not None:
        return hit
    params = dict(_P4_FLOAT.findall(proj4))
    proj = params.get("proj")
    if proj in ("longlat", "latlong"):
        _p4_ellipsoid(params)  # rejects an unknown ellipsoid or datum shift
        crs = CRS("geographic", proj4)
    elif proj == "webmerc":
        # Web Mercator: the spherical closed form on the WGS84 a-axis
        if _p4_ellipsoid(params)[0] != WGS84_A:
            raise ValueError(f"webmerc is defined on the WGS84 a-axis only: {proj4}")
        crs = CRS("projected", proj4, webmercator_forward, webmercator_inverse)
    else:
        if proj in _BUILDERS:
            fwd, inv, c = _BUILDERS[proj](params, proj4)
        elif proj in _FAMILIES:
            cls, fwd, inv, names, defaults = _FAMILIES[proj]
            a, f = _p4_ellipsoid(params)
            ellps = {"a": a, "f": f}
            c = cls(*(ellps[n] if n in ellps else _p4_arg(params, n, defaults) for n in names))
        else:
            raise ValueError(f"unsupported proj4: {proj4}")
        crs = CRS("projected", proj4, partial(fwd, c), partial(inv, c))
    _CRS_CACHE[proj4] = crs
    return crs


def _p4_norm(p4: str):
    """Normalized (params, flags) view of a proj4 string for
    definition-equality matching: numeric values compare as floats,
    cosmetic params (units=m, no_defs, wktext) are dropped.  So are
    PROJ's spellings of a default: ``+k``/``+k_0`` = 1, a zero
    x_0/y_0/lon_0/lat_0 (except for Krovak, whose defaults are not
    zero) and an all-zero ``+towgs84``; ``+datum=WGS84`` reads as
    ``+ellps=WGS84``."""
    params = dict(_P4_FLOAT.findall(p4))
    flags = set(re.findall(r"\+([a-zA-Z_0-9]+)(?=\s|$)", p4)) - set(params)
    drop = {"units", "no_defs", "wktext", "type"}
    out = {}
    for k, v in params.items():
        if k in drop:
            continue
        try:
            out[k] = float(v)
        except ValueError:
            out[k] = v
    if "k_0" in out:
        out.setdefault("k", out.pop("k_0"))
    if out.get("proj") != "krovak":
        for k, default in (("k", 1.0), ("x_0", 0.0), ("y_0", 0.0), ("lon_0", 0.0), ("lat_0", 0.0)):
            if out.get(k) == default:
                del out[k]
    if "towgs84" in out and all(float(v) == 0.0 for v in str(out["towgs84"]).split(",")):
        del out["towgs84"]
    if out.get("datum") == "WGS84":
        del out["datum"]
        if not {"ellps", "R", "a"} & set(out):
            out["ellps"] = "WGS84"
    return out, frozenset(f for f in flags if f not in drop)


def epsg_from_crs(spec) -> int:
    """Reference ``epsg_from_srs`` (gdal.py:112-117): recover the EPSG
    authority code of a CRS.  Int / ``epsg:N`` specs return N
    directly; a proj4 string is matched by normalized parameter set
    against the known definitions (plus the longlat/webmerc/UTM
    closed forms).  Raises ValueError("Could not get epsg code") like
    the reference when no authority code is known."""
    crs = spec if isinstance(spec, CRS) else resolve_crs(spec)
    if isinstance(crs.key, (int, np.integer)):
        return int(crs.key)
    params, flags = _p4_norm(str(crs.key))
    proj = params.get("proj")
    ellps = params.get("ellps", "WGS84")
    if proj in ("longlat", "latlong") and ellps == "WGS84":
        return 4326
    if proj in ("longlat", "latlong") and ellps == "GRS80":
        return 4258  # ETRS89 (also NAD83's 4269 — one authority wins)
    if proj == "webmerc" or (
        proj == "merc"
        and params.get("a") == 6378137.0
        and params.get("b") == 6378137.0
    ):
        return 3857
    if proj == "utm" and ellps == "WGS84" and "zone" in params:
        zone = int(params["zone"])
        if 1 <= zone <= 60:
            return (32700 if "south" in flags else 32600) + zone
    for code, p4 in _EPSG_PROJ4.items():
        if _p4_norm(p4) == (params, flags):
            return int(code)
    raise ValueError("Could not get epsg code")


def resolve_crs(spec) -> CRS:
    """spec: EPSG int, 'epsg:NNNN', proj4 string, or CRS instance."""
    if isinstance(spec, CRS):
        return spec
    if isinstance(spec, (int, np.integer)):
        return crs_from_epsg(int(spec))
    s = str(spec).strip()
    if s.lower().startswith("epsg:"):
        return crs_from_epsg(int(s.split(":", 1)[1]))
    if s.startswith("+"):
        return crs_from_proj4(s)
    if s.isdigit():
        return crs_from_epsg(int(s))
    raise ValueError(f"cannot resolve CRS from {spec!r}")


def transform_points(src, dst, x, y) -> Tuple[np.ndarray, np.ndarray]:
    """Reproject coordinate arrays between two CRSs (pivot via lon/lat).

    Vectorized replacement of OSR CoordinateTransformation with
    traditional (x=lon, y=lat) axis order (reference geometry.py:129-145).
    """
    src_crs, dst_crs = resolve_crs(src), resolve_crs(dst)
    if src_crs.key == dst_crs.key:
        return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    lon, lat = src_crs.to_lonlat(x, y)
    return dst_crs.from_lonlat(lon, lat)


def transform_bounds(src, dst, b: np.ndarray) -> np.ndarray:
    """Reproject (n,4) bounds boxes by transforming the two corner points
    (exactly what the reference does — a 2-point LineString,
    gdal.py:334-342 — NOT a densified-envelope transform)."""
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    x = np.concatenate([b[:, 0], b[:, 2]])
    y = np.concatenate([b[:, 1], b[:, 3]])
    tx, ty = transform_points(src, dst, x, y)
    n = b.shape[0]
    return np.stack([tx[:n], ty[:n], tx[n:], ty[n:]], axis=1)
