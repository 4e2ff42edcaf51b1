"""Mesh construction, connectivity, periodic pairing, text format."""

import math
import re
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

from swehdg.mesh import (
    Mesh,
    generate_uniform_rect,
    generate_uniform_square,
    generate_rect_with_hole,
    pair_periodic,
    hole_boundaries,
    load_mesh,
    save_mesh,
)
from swehdg.fespace import TraceSpace

from helpers import periodic_pairs


def test_unit_square_level1_counts():
    mesh = generate_uniform_square(1)
    assert mesh.num_elements == 8
    assert mesh.num_facets == 16
    assert mesh.num_nodes == 9
    # Euler formula, no holes
    assert mesh.num_nodes - mesh.num_facets + mesh.num_elements == 1


def test_level3_adjacency():
    mesh = generate_uniform_square(3)
    assert mesh.num_elements == 128
    interior = mesh.facet_right >= 0
    assert np.all(mesh.facet_left[interior] != mesh.facet_right[interior])
    # every facet of every element points back at it
    for e in range(mesh.num_elements):
        for f in mesh.element_facets[e]:
            assert e in (mesh.facet_left[f], mesh.facet_right[f])


def test_areas_and_h():
    mesh = generate_uniform_square(2, bounds=(0.0, 2.0, 0.0, 2.0))
    assert np.all(mesh.element_areas > 0)
    assert mesh.element_areas.sum() == pytest.approx(4.0, abs=1e-12)
    assert mesh.h == pytest.approx(0.5 * np.sqrt(2.0), abs=1e-14)
    assert mesh.h_nominal == pytest.approx(0.5)


def test_normals_unit_and_outward():
    mesh = generate_uniform_square(2)
    n = mesh.facet_normals
    t = mesh.facet_tangents
    assert np.max(np.abs(np.hypot(n[:, 0], n[:, 1]) - 1.0)) < 1e-14
    # tangent is the normal rotated by +90 degrees
    assert np.allclose(t, np.column_stack([-n[:, 1], n[:, 0]]), atol=1e-14)
    centroids = mesh.nodes[mesh.elements].mean(axis=1)
    for e in range(mesh.num_elements):
        for f, s in zip(mesh.element_facets[e], mesh.element_facet_signs[e]):
            out = s * mesh.facet_normals[f]
            assert np.dot(mesh.facet_midpoints[f] - centroids[e], out) > 0


def test_interior_facets_have_two_distinct_elements():
    mesh = generate_uniform_square(2)
    interior = mesh.facet_right >= 0
    assert np.all(mesh.facet_left >= 0)
    assert np.all(mesh.facet_left[interior] != mesh.facet_right[interior])
    assert np.array_equal(mesh.boundary_facets, np.flatnonzero(~interior))
    # the boundary facets are the four per side of the square
    mid = mesh.facet_midpoints[~interior]
    assert len(mid) == 16
    assert np.all(np.minimum(mid, 1.0 - mid).min(axis=1) <= 1e-12)


def test_ccw_repair_and_degenerate_rejection():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = Mesh(nodes, [[0, 2, 1]])
    assert mesh.element_areas[0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
    with pytest.raises(ValueError):
        generate_uniform_rect(2, 2, bounds=(0.0, 0.0, 0.0, 1.0))


def test_pair_periodic_square_both():
    mesh = pair_periodic(generate_uniform_square(2), "both")
    bdry = mesh.boundary_facets
    assert len(bdry) == 16
    assert all(mesh.facet_pair[f] >= 0 for f in bdry)
    assert mesh.periodic_x and mesh.periodic_y
    pairs = periodic_pairs(mesh)
    assert len(pairs) == 8
    for fm, fs in pairs:
        # the master on the low side, with no shift; the slave opposite
        assert mesh.facet_pair[fs] == fm
        assert np.all(mesh.periodic_shift[fm] == 0.0)
        assert np.any(mesh.periodic_shift[fs] != 0.0)
        assert min(mesh.facet_midpoints[fm]) <= 1e-12
        assert mesh.facet_lengths[fm] == pytest.approx(mesh.facet_lengths[fs], abs=1e-12)
        moved = mesh.nodes[mesh.facet_nodes[fs]] + mesh.periodic_shift[fs]
        target = mesh.nodes[mesh.facet_nodes[fm]]
        assert np.allclose(np.sort(moved, axis=0), np.sort(target, axis=0), atol=1e-12)


def test_pair_periodic_unmatched_raises():
    # two facets on top, one on the bottom
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 1.0]]
    elements = [[0, 1, 3], [0, 3, 4], [0, 4, 2]]
    mesh = Mesh(nodes, elements)
    with pytest.raises(ValueError, match="periodic"):
        pair_periodic(mesh, "y")


@pytest.mark.parametrize("axes,make,message", [
    # a hole whose clearance reaches one box side drops that side's node
    ("both", lambda: generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (1.2, 0.0), 0.5, 0.4),
     "along x failed: 10 facets on the low side, 9 on the high side; "
     "the high side has no node at y = 0"),
    ("both", lambda: generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (-1.2, 0.0), 0.5, 0.4),
     "along x failed: 9 facets on the low side, 10 on the high side; "
     "the low side has no node at y = 0"),
    ("both", lambda: generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.0, 1.2), 0.5, 0.4),
     "along y failed: 10 facets on the low side, 9 on the high side; "
     "the high side has no node at x = 0"),
    # two facets on top, one on the bottom
    ("y", lambda: Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 1.0]],
                       [[0, 1, 3], [0, 3, 4], [0, 4, 2]]),
     "along y failed: 1 facets on the low side, 2 on the high side; "
     "the low side has no node at x = 0.5"),
], ids=["hole-x-high", "hole-x-low", "hole-y-high", "facets-y-low"])
def test_pairing_that_fails_names_a_node_one_side_lacks(axes, make, message):
    with pytest.raises(ValueError, match=re.escape(f"periodic pairing {message}")):
        pair_periodic(make(), axes)


def test_rect_with_hole_geometry():
    mesh = generate_rect_with_hole((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, 0.5)
    assert np.all(mesh.element_areas > 0)
    # Euler with one hole: V - E + T = 0, counting referenced nodes
    used = np.unique(mesh.elements)
    assert len(used) - mesh.num_facets + mesh.num_elements == 0

    holes = hole_boundaries(mesh)
    assert len(holes) == 1
    hole = holes[0]
    # hole boundary: unpaired walls, short segments, an inscribed regular polygon
    m = len(hole)
    assert np.all(mesh.facet_right[hole] == -1) and np.all(mesh.facet_pair[hole] == -1)
    for f in hole:
        assert mesh.facet_lengths[f] <= 0.5 + 1e-12
        assert np.hypot(*(mesh.facet_midpoints[f] - [3.0, 0.0])) == pytest.approx(
            np.cos(np.pi / m), abs=1e-12)
    poly_area = 0.5 * m * np.sin(2.0 * np.pi / m)
    assert mesh.element_areas.sum() == pytest.approx(400.0 - poly_area, rel=1e-12)

    per = pair_periodic(mesh, "both")
    outer = per.boundary_facets
    unpaired = [f for f in outer if per.facet_pair[f] < 0]
    assert sorted(unpaired) == sorted(hole)
    assert np.all(per.periodic_shift[unpaired] == 0.0)
    assert [sorted(h) for h in hole_boundaries(per)] == [sorted(hole)]


def test_hole_must_be_inside():
    with pytest.raises(ValueError):
        generate_rect_with_hole((-1.0, 1.0, -1.0, 1.0), (0.9, 0.0), 0.5, 0.2)


def test_hole_clearance_reaching_a_box_corner_is_refused():
    # clearance 0.34 + 0.75 * 0.5 = 0.715 clears all four corners (0.707 away)
    with pytest.raises(ValueError, match=re.escape(
            "the hole's clearance 0.715 (radius + 0.75 h) reaches the box corner (0, 0)")):
        generate_rect_with_hole((0.0, 1.0, 0.0, 1.0), (0.5, 0.5), 0.34, 0.5)


def _bump_centres():
    # the hole centres of the benchmark's bump_midpoint workload, seeds 1-10;
    # its module is executed from source, so no bytecode is written beside it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    bump = module.WORKLOADS["bump_midpoint"]
    return [bump.centre(seed) for seed in range(1, 11)]


# every holed mesh the tests build, and two more, as (bounds, centre,
# radius, target_h); the first is also configs/moving_bump.ini's
HOLED = ([pytest.param((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, h, id=f"box20-h{h}")
          for h in (0.5, 1.0, 1.4, 2.0)]
         + [pytest.param((0.0, 3.0, 0.0, 3.0), (1.5, 1.5), 0.6, 1.2, id="box3-corners-only"),
            pytest.param((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.5, id="box4-h0.5"),
            pytest.param((-2.0, 2.0, -2.0, 2.0), (0.5, 0.0), 0.5, 0.4, id="box4-off-centre"),
            pytest.param((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.4, id="box4-h0.4"),
            # holes where a zip in plain angle order makes an inverted triangle
            pytest.param((-2.0, 2.0, -2.0, 2.0), (-0.42, 0.04), 0.78, 0.51, id="zip-turn"),
            pytest.param((-2.0, 2.0, -2.0, 2.0), (-1.25, 0.57), 0.58, 0.58, id="zip-turn-side")]
         + [pytest.param((-10.0, 10.0, -10.0, 10.0), centre, 1.0, 1.0, id=f"bump-seed{seed}")
            for seed, centre in enumerate(_bump_centres(), start=1)])


def _qhull_elements(nodes, ring):
    """The triangles a Delaunay triangulation of ``nodes`` keeps outside the
    convex ccw polygon ``ring``, by their centroids."""
    cells = Delaunay(nodes).simplices
    rel = nodes[cells].mean(axis=1)[:, None, :] - ring[None]
    edge = np.roll(ring, -1, axis=0) - ring
    inside = np.all(edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0] > 0.0,
                    axis=1)
    return cells[~inside]


def _incircle(a, b, c, d):
    """Positive when d lies inside the circle through the ccw triangle abc
    (arrays of points, one per row), with the scale of the determinant."""
    rows = [p - d for p in (a, b, c)]
    lift = [np.einsum("id,id->i", r, r) for r in rows]
    det = sum(lift[i] * (rows[(i + 1) % 3][:, 0] * rows[(i + 2) % 3][:, 1]
                         - rows[(i + 1) % 3][:, 1] * rows[(i + 2) % 3][:, 0]) for i in range(3))
    return det, sum(lift) ** 2


@pytest.mark.parametrize("bounds,centre,radius,target_h", HOLED)
def test_rect_with_hole_triangulation(bounds, centre, radius, target_h):
    mesh = generate_rect_with_hole(bounds, centre, radius, target_h)
    xmin, xmax, ymin, ymax = bounds
    m = max(8, math.ceil(2.0 * math.pi * radius / target_h))
    ring = mesh.nodes[-m:]
    assert mesh.num_elements == len(_qhull_elements(mesh.nodes, ring))
    assert np.all(mesh.element_areas > 0.0)
    assert mesh.num_nodes - mesh.num_facets + mesh.num_elements == 0       # one hole
    polygon = 0.5 * m * radius ** 2 * math.sin(2.0 * math.pi / m)
    assert mesh.element_areas.sum() == pytest.approx(
        (xmax - xmin) * (ymax - ymin) - polygon, rel=1e-12)

    # every cell whose four corners are nodes is split as in generate_uniform_rect
    nx, ny = max(1, round((xmax - xmin) / target_h)), max(1, round((ymax - ymin) / target_h))
    at = np.rint((mesh.nodes[:-m] - [xmin, ymin]) / [(xmax - xmin) / nx, (ymax - ymin) / ny])
    node_of = {(int(i), int(j)): n for n, (i, j) in enumerate(at)}
    elements = {frozenset(e) for e in mesh.elements.tolist()}
    full = set()
    for i in range(nx):
        for j in range(ny):
            corners = [node_of.get(c) for c in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))]
            if None not in corners:
                v00, v10, v01, v11 = corners
                halves = {frozenset((v00, v10, v11)), frozenset((v00, v11, v01))}
                assert halves <= elements, f"cell ({i}, {j})"
                full |= halves
    band = np.array([e for e in mesh.elements.tolist() if frozenset(e) not in full])
    assert len(band) == mesh.num_elements - len(full)

    # every edge two band triangles share is locally Delaunay: the vertex
    # across it is not inside the other triangle's circumcircle
    opposite = {}
    for a, b, c in band:
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            opposite[u, v] = w
    shared = [(u, v, w, opposite[v, u]) for (u, v), w in opposite.items() if (v, u) in opposite]
    assert shared
    a, b, c, d = (mesh.nodes[list(col)] for col in zip(*shared))
    det, scale = _incircle(a, b, c, d)
    assert np.all(det <= 1e-10 * scale)


def _hole_boundaries_by_csgraph(mesh):
    """hole_boundaries with scipy's connected_components as the grouping."""
    walls = np.flatnonzero((mesh.facet_right < 0) & (mesh.facet_pair < 0))
    ends = mesh.facet_nodes[walls]
    nn = mesh.num_nodes
    graph = coo_matrix((np.ones(len(walls)), (ends[:, 0], ends[:, 1])), shape=(nn, nn))
    component = connected_components(graph, directed=False)[1][ends[:, 0]]
    closed = np.bincount(ends.ravel(), minlength=nn)[ends] == 2
    area2 = mesh.facet_lengths[walls] * np.einsum(
        "fd,fd->f", mesh.facet_normals[walls], mesh.facet_midpoints[walls])
    return [walls[component == c] for c in np.unique(component)
            if closed[component == c].all() and area2[component == c].sum() < 0.0]


def test_hole_boundaries_group_walls_as_connected_components():
    # two square holes (cells (1, 1) and (4, 1) of a 6 x 3 grid) besides the
    # generated meshes; the holes come out by their smallest node id
    grid = generate_uniform_rect(6, 3)
    cut = np.isin(np.arange(grid.num_elements) % 18, [7, 10])
    two = Mesh(grid.nodes, grid.elements[~cut])
    meshes = [generate_uniform_square(2), two,
              generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.5, 0.0), 0.5, 0.4),
              generate_rect_with_hole((0.0, 3.0, 0.0, 3.0), (1.5, 1.5), 0.6, 1.2)]
    assert len(hole_boundaries(two)) == 2
    for mesh in meshes:
        for paired in (mesh, *(pair_periodic(mesh, d) for d in ("x", "y", "both"))):
            got, expected = hole_boundaries(paired), _hole_boundaries_by_csgraph(paired)
            assert [h.tolist() for h in got] == [h.tolist() for h in expected]


def test_hole_boundaries_skip_the_outer_boundary_and_open_chains():
    square = generate_uniform_square(2)
    holed = generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.5, 0.0), 0.5, 0.4)
    assert hole_boundaries(square) == []
    assert hole_boundaries(pair_periodic(square, "x")) == []
    assert hole_boundaries(pair_periodic(square, "both")) == []
    for direction in (None, "x", "y", "both"):
        mesh = holed if direction is None else pair_periodic(holed, direction)
        (ring,) = hole_boundaries(mesh)
        assert np.allclose(np.hypot(*(mesh.facet_midpoints[ring] - [0.5, 0.0]).T),
                           0.5 * np.cos(np.pi / len(ring)), atol=1e-12)
    # boundary tangents run with the domain on their left
    for mesh in (square, holed):
        bdry = mesh.boundary_facets
        into = (mesh.nodes[mesh.elements[mesh.facet_left[bdry]]].mean(axis=1)
                - mesh.facet_midpoints[bdry])
        t = mesh.facet_tangents[bdry]
        assert np.all(t[:, 0] * into[:, 1] - t[:, 1] * into[:, 0] > 0.0)


def test_text_roundtrip(tmp_path):
    mesh = generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.4)
    path = tmp_path / "hole.msh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.elements, mesh.elements)
    assert np.allclose(back.nodes, mesh.nodes, atol=0.0)
    assert np.array_equal(back.facet_nodes, mesh.facet_nodes)
    assert np.array_equal(back.facet_right, mesh.facet_right)
    assert np.all(back.facet_pair == -1)
    # every boundary facet is written as a wall
    tags = [line.split()[2] for line in path.read_text().splitlines()[-len(mesh.boundary_facets):]]
    assert tags == ["wall"] * len(mesh.boundary_facets)


@pytest.mark.parametrize("holed", [False, True])
def test_periodic_tags_read_as_wall_until_paired(tmp_path, holed):
    base = (generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.4)
            if holed else generate_uniform_square(2))
    paired = pair_periodic(base, "both")
    path = tmp_path / "paired.msh"
    save_mesh(paired, path)
    back = load_mesh(path)
    assert np.all(back.facet_pair == -1)
    assert np.all(back.periodic_shift == 0.0)
    assert np.array_equal(TraceSpace(back, 1).owned, np.arange(back.num_facets))
    for direction in ("x", "both"):
        again, expected = pair_periodic(back, direction), pair_periodic(base, direction)
        assert np.array_equal(again.facet_pair, expected.facet_pair)
        assert np.array_equal(again.periodic_shift, expected.periodic_shift)
        assert np.array_equal(TraceSpace(again, 1).owner, TraceSpace(expected, 1).owner)


def test_tagging_an_interior_facet_is_refused(tmp_path):
    # the diagonal 0-2 of the two triangles is interior
    path = tmp_path / "diagonal.msh"
    path.write_text("ndim=2 nnodes=4 nelems=2 nfacets_tagged=1\n"
                    "0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n0 1 2\n0 2 3\n2 0 wall\n")
    with pytest.raises(ValueError, match=r"tagged facet \(0, 2\) is not a boundary facet"):
        load_mesh(path)


def test_text_format_comments_and_errors(tmp_path):
    path = tmp_path / "tiny.msh"
    path.write_text(
        "# two triangles\n"
        "ndim=2 nnodes=4 nelems=2 nfacets_tagged=1\n"
        "0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
        "0 1 2\n0 2 3\n"
        "0 1 wall  # bottom\n")
    mesh = load_mesh(path)
    assert mesh.num_elements == 2
    assert len(mesh.boundary_facets) == 4 and np.all(mesh.facet_pair == -1)

    bad = tmp_path / "bad.msh"
    bad.write_text("ndim=2 nnodes=1\n0.0 0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_mesh(bad)


# two triangles of the unit square, its boundary facets on lines 8-11
SQUARE = ["ndim=2 nnodes=4 nelems=2 nfacets_tagged=4",
          "0.0 0.0", "1.0 0.0", "1.0 1.0", "0.0 1.0",
          "0 1 2", "0 2 3",
          "0 1 wall", "1 2 wall", "2 3 wall", "3 0 wall"]


@pytest.mark.parametrize("line,text,message", [
    (1, "ndim=2 nnodes=four nelems=2 nfacets_tagged=4", "malformed header, invalid literal"),
    (3, "1.0 zero", "malformed node line: could not convert string to float"),
    (2, "0.0", "malformed node line: expected 2 values, found 1"),
    (7, "0 2 3.5", "malformed element line: invalid literal for int()"),
    (6, "0 1 4", "element line names a vertex outside 0..3"),
    (7, "-1 2 3", "element line names a vertex outside 0..3"),
    (9, "1", "malformed facet line: expected 2 values, found 1"),
    (10, "2 7 wall", "facet line names a vertex outside 0..3"),
    (11, "0 2 wall", r"tagged facet \(0, 2\) is not a boundary facet"),
])
def test_malformed_lines_name_the_file_and_line(tmp_path, line, text, message):
    path = tmp_path / "bad.msh"
    lines = list(SQUARE)
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: {message}"):
        load_mesh(path)


def test_a_refused_mesh_names_the_file(tmp_path):
    path = tmp_path / "flat.msh"
    lines = list(SQUARE)
    lines[2:5] = ["1.0 0.0", "2.0 0.0", "3.0 0.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: degenerate element"):
        load_mesh(path)
