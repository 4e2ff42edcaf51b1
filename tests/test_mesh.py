"""Mesh construction, connectivity, periodic pairing, text format."""

import numpy as np
import pytest

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
