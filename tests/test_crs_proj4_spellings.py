"""proj4 spellings that PROJ itself prints: a grid datum shift
(``+nadgrids=``) never passes silently, and ``epsg_from_crs`` finds a
registry code however PROJ spells its defaults."""

import pytest

from gdal_boots_ray.kernels.crs import crs_from_proj4, epsg_from_crs


def test_nadgrids_grid_shift_is_rejected():
    with pytest.raises(ValueError, match=r"\+nadgrids=ntv2_0\.gsb"):
        crs_from_proj4("+proj=utm +zone=33 +ellps=WGS84 +nadgrids=ntv2_0.gsb")
    with pytest.raises(ValueError, match=r"\+nadgrids"):
        crs_from_proj4("+proj=longlat +ellps=GRS80 +nadgrids=@conus,@alaska")


def test_nadgrids_null_is_accepted():
    # PROJ's own EPSG:3857 line carries +nadgrids=@null (no shift)
    p4 = "+proj=merc +a=6378137 +b=6378137 +lat_ts=0 +lon_0=0 +x_0=0 +y_0=0 +k=1 +units=m +nadgrids=@null +wktext +no_defs"
    assert epsg_from_crs(p4) == 3857
    assert crs_from_proj4("+proj=utm +zone=33 +ellps=WGS84 +nadgrids=@null").kind == "projected"


@pytest.mark.parametrize(
    "p4, code",
    [
        ("+proj=merc +lon_0=0 +k=1 +x_0=0 +y_0=0 +datum=WGS84 +units=m +no_defs", 3395),
        ("+proj=merc +lon_0=0 +k_0=1 +x_0=0 +y_0=0 +ellps=WGS84 +datum=WGS84", 3395),
        ("+proj=merc +ellps=WGS84", 3395),
        ("+proj=laea +lat_0=52 +lon_0=10 +x_0=4321000 +y_0=3210000 +ellps=GRS80 +towgs84=0,0,0,0,0,0,0", 3035),
        ("+proj=laea +lat_0=52 +lon_0=10 +x_0=4321000 +y_0=3210000 +ellps=GRS80 +towgs84=0,0,0 +units=m", 3035),
    ],
)
def test_epsg_from_crs_reads_proj_default_spellings(p4, code):
    assert epsg_from_crs(p4) == code


def test_epsg_from_crs_keeps_non_default_values():
    # a scale, origin or false easting off its default is a different CRS
    with pytest.raises(ValueError, match="Could not get epsg code"):
        epsg_from_crs("+proj=merc +lon_0=0 +k=0.9996 +x_0=0 +y_0=0 +datum=WGS84")
    with pytest.raises(ValueError, match="Could not get epsg code"):
        epsg_from_crs("+proj=laea +lat_0=52 +lon_0=10 +x_0=0 +y_0=3210000 +ellps=GRS80")
