"""Conforming triangular meshes with an oriented facet skeleton.

Meshes come from the structured generators below, from the holed-box
generator, or from a plain text file.  Every facet stores its two
endpoint nodes (smaller id first), the adjacent elements, a unit normal
pointing out of the left element, and its periodic partner, if any.
Every boundary facet without a partner is a wall.  Downstream code
(trace spaces, facet assembly, boundary handling) reads connectivity
from here instead of recomputing it.
"""

import math

import numpy as np

# pair_periodic directions and the axes each one pairs
PERIODIC_AXES = {"x": (0,), "y": (1,), "both": (0, 1)}

# local edges of a triangle (v0,v1), (v1,v2), (v2,v0)
_LOCAL_EDGES = np.array([[0, 1], [1, 2], [2, 0]])


def _signed_area2(nodes, elements):
    u = nodes[elements[:, 1]] - nodes[elements[:, 0]]
    v = nodes[elements[:, 2]] - nodes[elements[:, 0]]
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


class Mesh:
    """Triangle mesh of a polygonal domain with full facet connectivity.

    Parameters
    ----------
    nodes : (nn, 2) float array
        Vertex coordinates.
    elements : (ne, 3) int array
        Vertex ids per triangle.  Orientation is repaired to
        counterclockwise; degenerate triangles are rejected.
    h_nominal : float, optional
        Nominal cell size used in convergence tables and time step rules.
        Defaults to the maximum edge length.

    Attributes
    ----------
    facet_nodes : (nf, 2) int array
        Endpoint node ids, smaller first.
    facet_left, facet_right : (nf,) int arrays
        Adjacent element ids; right is -1 on the boundary.
    facet_normals, facet_tangents : (nf, 2) float arrays
        Unit normal out of the left element and the normal rotated by
        +90 degrees.  On interior facets the tangent runs from the
        smaller to the larger node id; on boundary facets the normal
        points out of the domain and the tangent runs with the domain on
        its left, so the tangents of each boundary loop run one way round.
    element_facets : (ne, 3) int array
        Facet id of each local edge.
    element_facet_signs : (ne, 3) int array
        +1 where the stored facet normal is outward for that element.
    facet_pair : (nf,) int array
        Periodic partner facet, -1 when unpaired.  Only ``pair_periodic``
        gives partners.
    periodic_shift : (nf, 2) float array
        For slave facets, the nonzero translation carrying slave points
        onto the master facet; zero on every other facet.
    """

    def __init__(self, nodes, elements, h_nominal=None):
        nodes = np.array(nodes, dtype=float)
        elements = np.array(elements, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n, 2) array")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("non-finite node coordinates")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError("elements must be an (n, 3) array")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise ValueError("element vertex id out of range")

        area2 = _signed_area2(nodes, elements)
        flip = area2 < 0
        elements[flip] = elements[flip][:, ::-1]
        area2 = np.abs(area2)
        if np.any(area2 <= 0.0):
            bad = int(np.argmin(area2))
            raise ValueError(f"degenerate element {bad} (zero area)")

        self.nodes = nodes
        self.elements = elements
        self.element_areas = 0.5 * area2

        ne = len(elements)
        edges = elements[:, _LOCAL_EDGES]                   # (ne, 3, 2)
        flat = np.sort(edges, axis=2).reshape(-1, 2)
        facet_nodes, inverse = np.unique(flat, axis=0, return_inverse=True)
        inverse = inverse.reshape(ne, 3)
        nf = len(facet_nodes)

        counts = np.bincount(inverse.ravel(), minlength=nf)
        if np.any(counts > 2):
            raise ValueError("facet shared by more than two elements")

        # an element traverses a facet "forward" when its local edge runs
        # from the smaller to the larger node id; conforming ccw meshes
        # give each interior facet one forward and one backward element
        forward = edges[:, :, 0] < edges[:, :, 1]
        owner = np.repeat(np.arange(ne), 3).reshape(ne, 3)
        left = np.full(nf, -1, dtype=np.int64)
        right = np.full(nf, -1, dtype=np.int64)
        fwd_ids = inverse[forward]
        bwd_ids = inverse[~forward]
        if (np.bincount(fwd_ids, minlength=nf).max(initial=0) > 1
                or np.bincount(bwd_ids, minlength=nf).max(initial=0) > 1):
            raise ValueError("inconsistent facet orientation (nonconforming mesh)")
        left[fwd_ids] = owner[forward]
        right[bwd_ids] = owner[~forward]

        a = nodes[facet_nodes[:, 0]]
        b = nodes[facet_nodes[:, 1]]
        tangents = b - a
        lengths = np.hypot(tangents[:, 0], tangents[:, 1])
        if np.any(lengths <= 0.0):
            raise ValueError("zero-length facet")
        tangents /= lengths[:, None]
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

        # boundary facets traversed only backward: promote the element to
        # the left slot and flip the frame so the normal stays outward
        swap = left < 0
        if np.any(swap & (right < 0)):
            raise ValueError("orphan facet without any element")
        left[swap] = right[swap]
        right[swap] = -1
        normals[swap] *= -1.0
        tangents[swap] *= -1.0

        self.facet_nodes = facet_nodes
        self.facet_left = left
        self.facet_right = right
        self.facet_lengths = lengths
        self.facet_tangents = tangents
        self.facet_normals = normals
        self.facet_midpoints = 0.5 * (a + b)
        self.element_facets = inverse
        self.element_facet_signs = np.where(
            left[inverse] == np.arange(ne)[:, None], 1, -1
        ).astype(np.int8)

        self.h = float(lengths.max())
        self.h_nominal = float(h_nominal) if h_nominal is not None else self.h

        self.periodic_x = False
        self.periodic_y = False
        self.facet_pair = np.full(nf, -1, dtype=np.int64)
        self.periodic_shift = np.zeros((nf, 2))

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_elements(self):
        return len(self.elements)

    @property
    def num_facets(self):
        return len(self.facet_nodes)

    @property
    def boundary_facets(self):
        """Ids of facets with a single adjacent element."""
        return np.where(self.facet_right < 0)[0]


def _cell_triangles(nx, ny):
    """Grid node ids of the two triangles of every cell of an nx by ny grid
    (nodes numbered row by row), shape (2, nx ny, 3): each cell is split
    along its bottom-left to top-right diagonal, lower triangle first."""
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    v00 = (j * (nx + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    return np.stack([np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])])


def generate_uniform_rect(nx, ny, bounds=(0.0, 1.0, 0.0, 1.0)):
    """Structured triangulation of a rectangle, nx by ny cells.

    Each cell is split along the bottom-left to top-right diagonal so
    refinements are deterministic.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("degenerate bounds")
    x = np.linspace(xmin, xmax, nx + 1)
    y = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(x, y, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    h_nom = max((xmax - xmin) / nx, (ymax - ymin) / ny)
    return Mesh(nodes, _cell_triangles(nx, ny).reshape(-1, 3), h_nominal=h_nom)


def generate_uniform_square(levels, bounds=(0.0, 1.0, 0.0, 1.0)):
    """Uniform triangulation with 2^levels cells per direction."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    n = 2 ** int(levels)
    return generate_uniform_rect(n, n, bounds)


def generate_rect_with_hole(bounds, center, radius, target_h):
    """Triangulation of a rectangle minus a circular hole.

    The hole boundary is the inscribed polygon with segment length at
    most ``target_h``.  The rectangle carries a uniform grid of cell size
    about ``target_h``, without the grid nodes closer to the centre than
    the clearance ``radius + 0.75 h``.  A cell that keeps its four
    corners is split along its bottom-left to top-right diagonal, as in
    ``generate_uniform_rect``.  The band between the hole polygon and the
    kept corners of the other cells, a loop star-shaped around the
    centre, is zipped to the polygon in angle order around the centre,
    and Lawson's edge flips then make every edge inside the band locally
    Delaunay.  Outer boundary facets are laid out identically on opposite
    sides so they can be paired periodically.  A clearance that reaches
    a corner of the rectangle, or a band triangle of non-positive area,
    raises a ValueError.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in bounds)
    cx, cy = float(center[0]), float(center[1])
    if radius <= 0.0 or target_h <= 0.0:
        raise ValueError("radius and target_h must be positive")
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("degenerate bounds")
    if not (xmin < cx - radius and cx + radius < xmax
            and ymin < cy - radius and cy + radius < ymax):
        raise ValueError("hole must lie strictly inside the rectangle")

    nx = max(1, round((xmax - xmin) / target_h))
    ny = max(1, round((ymax - ymin) / target_h))
    sx = (xmax - xmin) / nx
    sy = (ymax - ymin) / ny
    clearance = radius + 0.75 * max(sx, sy)
    for x, y in ((xmin, ymin), (xmax, ymin), (xmin, ymax), (xmax, ymax)):
        if math.hypot(x - cx, y - cy) <= clearance:
            raise ValueError(f"the hole's clearance {clearance:g} (radius + 0.75 h) "
                             f"reaches the box corner ({x:g}, {y:g})")

    # inscribed polygon; chord 2 r sin(pi/m) <= 2 pi r / m <= target_h
    m = max(8, math.ceil(2.0 * math.pi * radius / target_h))
    theta = np.arange(m) * (2.0 * np.pi / m)
    ring = np.column_stack([cx + radius * np.cos(theta),
                            cy + radius * np.sin(theta)])

    gx, gy = np.meshgrid(np.linspace(xmin, xmax, nx + 1),
                         np.linspace(ymin, ymax, ny + 1), indexing="xy")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    keep = np.hypot(grid[:, 0] - cx, grid[:, 1] - cy) > clearance
    points = np.vstack([grid[keep], ring])
    point_of = np.cumsum(keep) - 1               # point id of every kept grid node

    halves = _cell_triangles(nx, ny)
    full = keep[halves].all(axis=(0, 2))
    # the band's outer loop: the kept corners of the cells that lost one
    loop = np.unique(halves[:, ~full])
    loop = loop[keep[loop]]
    angle = np.arctan2(grid[loop, 1] - cy, grid[loop, 0] - cx) % (2.0 * np.pi)
    order = np.argsort(angle)
    band = _zip_loops(points, point_of[loop[order]], angle[order],
                      len(points) - m + np.arange(m), theta)
    area2 = _signed_area2(points, band)
    if np.any(area2 <= 0.0):
        bad = band[np.argmin(area2)]
        raise ValueError(f"the band around the hole has a triangle of non-positive area "
                         f"at {points[bad].mean(axis=0).tolist()}")
    band = _flip_to_delaunay(points, band)
    cells = np.vstack([point_of[halves[:, full]].reshape(-1, 3), band])
    return Mesh(points, cells, h_nominal=target_h)


def _zip_loops(points, outer, outer_angle, inner, inner_angle):
    """Triangles (ccw) between two loops around a common centre, the
    vertex ids of each in increasing angle in [0, 2 pi).  Walking both
    loops round once, each triangle advances along the loop whose next
    vertex comes first in angle, or along the other loop where that
    triangle would not be ccw: a cell corner of the outer loop can hide
    the next inner vertex from the current one."""
    xy = points.tolist()
    outer, inner = outer.tolist(), inner.tolist()
    no, ni = len(outer), len(inner)
    next_outer = np.append(outer_angle[1:], outer_angle[0] + 2.0 * np.pi).tolist()
    next_inner = np.append(inner_angle[1:], inner_angle[0] + 2.0 * np.pi).tolist()

    def ccw(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = xy[a], xy[b], xy[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0

    tris = []
    i = j = 0
    while i < no or j < ni:
        along_outer = (outer[i % no], outer[(i + 1) % no], inner[j % ni])
        along_inner = (inner[(j + 1) % ni], inner[j % ni], outer[i % no])
        take_outer = j == ni or (i < no and next_outer[i] <= next_inner[j])
        if i < no and j < ni and not ccw(*(along_outer if take_outer else along_inner)):
            take_outer = not take_outer
        tris.append(along_outer if take_outer else along_inner)
        i, j = (i + 1, j) if take_outer else (i, j + 1)
    return np.array(tris, dtype=np.int64)


# relative rounding allowance of the in-circle test: cocircular points
# (the corners of a grid cell, say) never flip
_INCIRCLE_TOL = 1e-12


def _flip_to_delaunay(points, tris):
    """Lawson's edge flips (Lawson, 1977) on the ccw triangles ``tris``
    until every edge two of them share passes a strict in-circle test;
    the edges that only one of them has stay as they are."""
    xy = points.tolist()
    tris = tris.tolist()
    owner = {}                                   # directed edge -> triangle
    for t, (a, b, c) in enumerate(tris):
        owner[a, b] = owner[b, c] = owner[c, a] = t
    stack = [edge for edge in owner if edge[::-1] in owner]
    while stack:
        a, b = stack.pop()
        t, s = owner.get((a, b)), owner.get((b, a))
        if t is None or s is None:
            continue
        c = tris[t][(tris[t].index(a) + 2) % 3]
        d = tris[s][(tris[s].index(b) + 2) % 3]
        if not _inside_circle(xy[a], xy[b], xy[c], xy[d]):
            continue
        tris[t], tris[s] = [a, d, c], [d, b, c]
        del owner[a, b], owner[b, a]
        owner[a, d] = owner[d, c] = owner[c, a] = t
        owner[d, b] = owner[b, c] = owner[c, d] = s
        stack += [(a, d), (d, b), (b, c), (c, a)]
    return np.array(tris, dtype=np.int64)


def _inside_circle(a, b, c, d):
    """Whether d lies strictly inside the circle through the ccw triangle
    abc, beyond rounding."""
    ax, ay = a[0] - d[0], a[1] - d[1]
    bx, by = b[0] - d[0], b[1] - d[1]
    cx, cy = c[0] - d[0], c[1] - d[1]
    la, lb, lc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = (la * (bx * cy - by * cx) + lb * (cx * ay - cy * ax)
           + lc * (ax * by - ay * bx))
    return det > _INCIRCLE_TOL * (la + lb + lc) ** 2


def pair_periodic(mesh, direction="both"):
    """Link opposite outer-boundary facets as periodic partners.

    Returns a new mesh whose matched facets are partners: masters on the
    low side, and slaves on the high side, which store the translation
    onto their master.  Pairs of the given mesh are not carried over.
    Facets on a paired side that find no translate raise a ValueError
    naming them.
    """
    if direction not in PERIODIC_AXES:
        raise ValueError("direction must be 'x', 'y', or 'both'")
    out = Mesh(mesh.nodes, mesh.elements, h_nominal=mesh.h_nominal)
    for axis in PERIODIC_AXES[direction]:
        _pair_axis(out, axis)
    return out


def _pair_axis(mesh, axis):
    coords = mesh.nodes[:, axis]
    lo, hi = coords.min(), coords.max()
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    tol = 1e-9 * max(span)

    bdry = mesh.boundary_facets
    ends = coords[mesh.facet_nodes[bdry]]
    on_lo = bdry[np.all(np.abs(ends - lo) <= tol, axis=1)]
    on_hi = bdry[np.all(np.abs(ends - hi) <= tol, axis=1)]
    other = 1 - axis
    on_lo = on_lo[np.argsort(mesh.facet_midpoints[on_lo, other])]
    on_hi = on_hi[np.argsort(mesh.facet_midpoints[on_hi, other])]
    if len(on_lo) != len(on_hi):
        raise ValueError(
            f"periodic pairing along {'xy'[axis]} failed: "
            f"{len(on_lo)} facets on the low side, {len(on_hi)} on the high side"
            + _unmatched_node(mesh, on_lo, on_hi, other, tol))

    shift = np.zeros(2)
    shift[axis] = lo - hi        # carries slave (high side) points to the master
    for fm, fs in zip(on_lo, on_hi):
        pm = np.sort(mesh.nodes[mesh.facet_nodes[fm], other])
        ps = np.sort(mesh.nodes[mesh.facet_nodes[fs], other])
        if np.max(np.abs(pm - ps)) > tol:
            raise ValueError(
                f"periodic pairing along {'xy'[axis]}: facet {fs} is not a "
                f"translate of facet {fm}")
        if abs(mesh.facet_lengths[fm] - mesh.facet_lengths[fs]) > 1e-12 * max(1.0, mesh.h):
            raise ValueError(f"periodic facets {fm}, {fs} differ in length")
        mesh.facet_pair[fm] = fs
        mesh.facet_pair[fs] = fm
        mesh.periodic_shift[fs] = shift
    if axis == 0:
        mesh.periodic_x = True
    else:
        mesh.periodic_y = True


def _unmatched_node(mesh, on_lo, on_hi, other, tol):
    """'; the <side> side has no node at <coordinate>' for the lowest node
    position along axis ``other`` that only one of the two sides has, or
    '' when both sides have the same positions."""
    lo, hi = (np.unique(mesh.nodes[mesh.facet_nodes[f], other]) for f in (on_lo, on_hi))
    alone = []
    for side, here, there in (("high", lo, hi), ("low", hi, lo)):
        gap = np.abs(here[:, None] - there[None, :]).min(axis=1, initial=np.inf)
        alone += [(value, side) for value in here[gap > tol][:1]]
    if not alone:
        return ""
    value, side = min(alone)
    return f"; the {side} side has no node at {'xy'[other]} = {value:.6g}"


def hole_boundaries(mesh):
    """Facet ids of the boundary of each hole in the domain.

    The walls, the boundary facets without a periodic partner, are
    grouped into components linked through shared end nodes.  A component
    bounds a hole when it is closed (each of its end nodes is shared by
    exactly two of its facets) and its normals, which point out of the
    domain, point into the region it encloses: the sum over its facets
    of len_f (n_f . midpoint_f), twice the enclosed area signed by those
    normals, is then negative.  The outer boundary and the open wall
    chains of a domain periodic in one direction are not holes.
    """
    walls = np.flatnonzero((mesh.facet_right < 0) & (mesh.facet_pair < 0))
    ends = mesh.facet_nodes[walls]
    nn = mesh.num_nodes
    # min-label propagation: every node takes the smallest label among its
    # wall neighbours, then its label's label, until no label changes;
    # each component ends labelled by its smallest node id
    label = np.arange(nn)
    while True:
        before = label.copy()
        np.minimum.at(label, ends.ravel(), np.repeat(label[ends].min(axis=1), 2))
        label = label[label]
        if np.array_equal(label, before):
            break
    component = label[ends[:, 0]]
    closed = np.bincount(ends.ravel(), minlength=nn)[ends] == 2
    area2 = mesh.facet_lengths[walls] * np.einsum(
        "fd,fd->f", mesh.facet_normals[walls], mesh.facet_midpoints[walls])
    holes = []
    for c in np.unique(component):
        mine = component == c
        if closed[mine].all() and area2[mine].sum() < 0.0:
            holes.append(walls[mine])
    return holes


def save_mesh(mesh, path):
    """Write the plain text mesh format (see ``load_mesh``)."""
    bdry = mesh.boundary_facets
    with open(path, "w") as fh:
        fh.write(f"ndim=2 nnodes={mesh.num_nodes} nelems={mesh.num_elements} "
                 f"nfacets_tagged={len(bdry)}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for v0, v1, v2 in mesh.elements:
            fh.write(f"{v0} {v1} {v2}\n")
        for f in bdry:
            v0, v1 = mesh.facet_nodes[f]
            fh.write(f"{v0} {v1} wall\n")


def load_mesh(path):
    """Read a mesh from the plain text format.

    Header line ``ndim=2 nnodes=<N> nelems=<M> nfacets_tagged=<K>``, then
    N coordinate lines, M connectivity lines, and K boundary facet lines
    ``v0 v1 tag``.  ``#`` starts a comment.  Every boundary facet is a
    wall whatever its tag, and a line naming no boundary facet is
    refused: pairing has to be requested through ``pair_periodic``.
    Every refusal is a ValueError naming the file, and the 1-based line
    when one line is at fault.
    """
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append((number, line.split()))

    if not rows:
        raise ValueError(f"{path}: empty mesh file")
    number, tokens = rows[0]
    header = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
    try:
        ndim, nn, ne, nt = (int(header[key]) for key in
                            ("ndim", "nnodes", "nelems", "nfacets_tagged"))
    except KeyError as err:
        raise ValueError(f"{path}:{number}: malformed header, missing {err}") from None
    except ValueError as err:
        raise ValueError(f"{path}:{number}: malformed header, {err}") from None
    if ndim != 2:
        raise ValueError(f"{path}:{number}: only ndim=2 supported")
    if len(rows) != 1 + nn + ne + nt:
        raise ValueError(f"{path}: expected {1 + nn + ne + nt} rows, found {len(rows)}")

    def read(lines, count, kind, what):
        """The first ``count`` values of every line, as ``kind``; ids
        (``kind`` int) must name a node."""
        out = []
        for number, tokens in lines:
            try:
                if len(tokens) < count:
                    raise ValueError(f"expected {count} values, found {len(tokens)}")
                values = [kind(tok) for tok in tokens[:count]]
            except ValueError as err:
                raise ValueError(f"{path}:{number}: malformed {what} line: {err}") from None
            if kind is int and not all(0 <= v < nn for v in values):
                raise ValueError(f"{path}:{number}: {what} line names a vertex outside "
                                 f"0..{nn - 1}")
            out.append(values)
        return out

    nodes = read(rows[1:1 + nn], 2, float, "node")
    elements = read(rows[1 + nn:1 + nn + ne], 3, int, "element")
    facets = read(rows[1 + nn + ne:], 2, int, "facet")
    try:
        mesh = Mesh(np.array(nodes, dtype=float).reshape(nn, 2),
                    np.array(elements, dtype=np.int64).reshape(ne, 3))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    boundary = {tuple(mesh.facet_nodes[f]) for f in mesh.boundary_facets}
    for (number, _), pair in zip(rows[1 + nn + ne:], facets):
        pair = tuple(sorted(pair))
        if pair not in boundary:
            raise ValueError(f"{path}:{number}: tagged facet {pair} is not a boundary facet")
    return mesh
