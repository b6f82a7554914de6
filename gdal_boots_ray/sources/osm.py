"""OSM XML reader (stdlib ElementTree) — reference ``VectorDataset.open``
on .osm files (gdal.py:1197-1205; fixture minsk-boundary.osm).

Produces the engine feature schema with OGR-OSM-like layering:
tagged nodes -> ``points``; open ways -> ``lines``; closed ways ->
``multipolygons`` (as Polygon geometry); relations of type
``multipolygon`` / ``boundary`` -> assembled MultiPolygon features in
``multipolygons`` (way members chained end-to-end into closed rings
by node id, inner rings assigned to their containing outer by
ray-cast containment — OGR's osm multipolygon assembly); any other
relation -> ``other_relations`` without geometry.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa

from gdal_boots_ray.sources.vectors import FEATURE_SCHEMA


def _chain_rings(member_refs: Sequence[List[str]]) -> List[List[str]]:
    """Chain way node-id lists end-to-end into closed rings, reversing
    members as needed; incomplete (dangling) chains are dropped —
    the OGR osm driver's ring assembly contract."""
    ways = [list(refs) for refs in member_refs if len(refs) >= 2]
    rings: List[List[str]] = []
    while ways:
        cur = ways.pop()
        progressed = True
        while cur[0] != cur[-1] and progressed:
            progressed = False
            for i, w in enumerate(ways):
                if w[0] == cur[-1]:
                    cur += w[1:]
                elif w[-1] == cur[-1]:
                    cur += w[-2::-1]
                elif w[-1] == cur[0]:
                    cur = w[:-1] + cur
                elif w[0] == cur[0]:
                    cur = w[::-1][:-1] + cur
                else:
                    continue
                ways.pop(i)
                progressed = True
                break
        if cur[0] == cur[-1] and len(cur) >= 4:
            rings.append(cur)
    return rings


def _ring_contains(ring: np.ndarray, x: float, y: float) -> bool:
    """Even-odd ray cast of one point against one ring (n,2)."""
    xs, ys = ring[:-1, 0], ring[:-1, 1]
    xe, ye = ring[1:, 0], ring[1:, 1]
    cross = (ys > y) != (ye > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = xs + (y - ys) * (xe - xs) / (ye - ys)
    return bool(np.count_nonzero(cross & (x < xi)) % 2)


def _assemble_multipolygon(
    rel, ways_refs: Dict[str, List[str]], nodes: Dict[str, tuple]
) -> Optional[dict]:
    """Relation members -> GeoJSON MultiPolygon (or None if no closed
    outer ring assembles)."""
    outer_refs: List[List[str]] = []
    inner_refs: List[List[str]] = []
    for m in rel.findall("member"):
        if m.get("type") != "way":
            continue
        refs = ways_refs.get(m.get("ref"))
        if not refs:
            continue
        (inner_refs if m.get("role") == "inner" else outer_refs).append(refs)

    def to_coords(rings_ids: List[List[str]]) -> List[np.ndarray]:
        out = []
        for ring in rings_ids:
            pts = [nodes[r] for r in ring if r in nodes]
            if len(pts) >= 4:
                out.append(np.asarray(pts, np.float64))
        return out

    outers = to_coords(_chain_rings(outer_refs))
    inners = to_coords(_chain_rings(inner_refs))
    if not outers:
        return None
    polys: List[List[List[List[float]]]] = [[o.tolist()] for o in outers]
    for inn in inners:
        x, y = float(inn[0, 0]), float(inn[0, 1])
        for j, o in enumerate(outers):
            if _ring_contains(o, x, y):
                polys[j].append(inn.tolist())
                break
    return {"type": "MultiPolygon", "coordinates": polys}


def read_osm_table(path_or_bytes) -> pa.Table:
    if isinstance(path_or_bytes, (bytes, bytearray)):
        root = ET.fromstring(path_or_bytes)
    else:
        root = ET.parse(path_or_bytes).getroot()

    nodes: Dict[str, tuple] = {}
    rows = {k: [] for k in ("fid", "layer", "geom", "geom_type", "epsg", "props")}
    fid = 0

    def tags_of(el) -> Dict[str, str]:
        return {t.get("k"): t.get("v") for t in el.findall("tag")}

    for nd in root.findall("node"):
        nodes[nd.get("id")] = (float(nd.get("lon")), float(nd.get("lat")))
    for nd in root.findall("node"):
        tags = tags_of(nd)
        if not tags:
            continue
        lon, lat = nodes[nd.get("id")]
        rows["fid"].append(fid)
        rows["layer"].append("points")
        rows["geom"].append(json.dumps({"type": "Point", "coordinates": [lon, lat]}))
        rows["geom_type"].append("Point")
        rows["epsg"].append(4326)
        rows["props"].append(json.dumps({"osm_id": nd.get("id"), **tags}))
        fid += 1
    ways_refs: Dict[str, List[str]] = {}
    for way in root.findall("way"):
        ways_refs[way.get("id")] = [nd.get("ref") for nd in way.findall("nd")]
    for way in root.findall("way"):
        refs = ways_refs[way.get("id")]
        coords = [list(nodes[r]) for r in refs if r in nodes]
        if len(coords) < 2:
            continue
        tags = tags_of(way)
        closed = len(coords) >= 4 and coords[0] == coords[-1]
        if closed:
            geom = {"type": "Polygon", "coordinates": [coords]}
            layer = "multipolygons"
        else:
            geom = {"type": "LineString", "coordinates": coords}
            layer = "lines"
        rows["fid"].append(fid)
        rows["layer"].append(layer)
        rows["geom"].append(json.dumps(geom))
        rows["geom_type"].append(geom["type"])
        rows["epsg"].append(4326)
        rows["props"].append(json.dumps({"osm_id": way.get("id"), **tags}))
        fid += 1
    for rel in root.findall("relation"):
        tags = tags_of(rel)
        geom = None
        if tags.get("type") in ("multipolygon", "boundary"):
            geom = _assemble_multipolygon(rel, ways_refs, nodes)
        rows["fid"].append(fid)
        if geom is not None:
            rows["layer"].append("multipolygons")
            rows["geom"].append(json.dumps(geom))
            rows["geom_type"].append("MultiPolygon")
        else:
            rows["layer"].append("other_relations")
            rows["geom"].append("")
            rows["geom_type"].append("")
        rows["epsg"].append(4326)
        rows["props"].append(json.dumps({"osm_id": rel.get("id"), **tags}))
        fid += 1
    return pa.table(rows, schema=FEATURE_SCHEMA)
