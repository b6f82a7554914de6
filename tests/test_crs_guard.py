"""``crs_from_proj4`` is the one place that builds a CRS.  An EPSG code
is a proj4 line in ``_EPSG_PROJ4``, so ``crs_from_epsg`` knows no
projection family: it only computes the UTM line, looks up the table
and rewraps the key.  A branch per code or family there would be a
second registry."""

import ast
import pathlib

import gdal_boots_ray


def crs_calls(root: pathlib.Path):
    """(file, outermost enclosing function) of every ``CRS(`` call under
    ``root``; the function is None at module level."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, outer):
            for child in ast.iter_child_nodes(node):
                fn = outer
                if outer is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = child.name
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "CRS":
                    sites.append((str(path.relative_to(root)), fn))
                visit(child, fn)

        visit(tree, None)
    return sites


def _function(path: pathlib.Path, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_crs_is_built_only_in_crs_from_proj4():
    root = pathlib.Path(gdal_boots_ray.__file__).parent
    sites = crs_calls(root)
    assert ("kernels/crs.py", "crs_from_proj4") in sites  # the scan sees the package
    stray = [s for s in sites if s != ("kernels/crs.py", "crs_from_proj4")]
    assert not stray, f"CRS( built outside crs_from_proj4: {stray}"


def test_crs_from_epsg_has_no_family_branch():
    path = pathlib.Path(gdal_boots_ray.__file__).parent / "kernels" / "crs.py"
    fn = _function(path, "crs_from_epsg")
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    kernels = sorted(n for n in names if n.endswith(("Consts", "_forward", "_inverse")))
    assert not kernels, f"crs_from_epsg uses family kernels {kernels}; add a proj4 line to _EPSG_PROJ4"
    # the only codes compared against literals are the UTM ranges
    compared = [
        ast.unparse(n)
        for n in ast.walk(fn)
        if isinstance(n, ast.Compare)
        and any(isinstance(x, ast.Constant) and type(x.value) is int for x in ast.walk(n))
    ]
    stray = [c for c in compared if not any(utm in c for utm in ("32601", "32660", "32701", "32760"))]
    assert not stray, f"per-code branches in crs_from_epsg: {stray}; add a proj4 line to _EPSG_PROJ4"
