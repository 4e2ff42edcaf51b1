"""Conforming triangular meshes with an oriented facet skeleton.

Meshes come from the structured generators below, from the unstructured
hole generator, or from a plain text file.  Every facet stores its two
endpoint nodes (smaller id first), the adjacent elements, a unit normal
pointing out of the left element, and its periodic partner, if any.
Every boundary facet without a partner is a wall.  Downstream code
(trace spaces, facet assembly, boundary handling) reads connectivity
from here instead of recomputing it.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

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

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    v00 = (j * (nx + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    elements = np.vstack([lower, upper])
    h_nom = max((xmax - xmin) / nx, (ymax - ymin) / ny)
    return Mesh(nodes, elements, h_nominal=h_nom)


def generate_uniform_square(levels, bounds=(0.0, 1.0, 0.0, 1.0)):
    """Uniform triangulation with 2^levels cells per direction."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    n = 2 ** int(levels)
    return generate_uniform_rect(n, n, bounds)


def generate_rect_with_hole(bounds, center, radius, target_h):
    """Unstructured triangulation of a rectangle minus a circular hole.

    The hole boundary is the inscribed polygon with segment length at
    most ``target_h``.  Outer boundary facets are laid out identically
    on opposite sides so they can be paired periodically.
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

    # inscribed polygon; chord 2 r sin(pi/m) <= 2 pi r / m <= target_h
    m = max(8, math.ceil(2.0 * math.pi * radius / target_h))
    theta = np.arange(m) * (2.0 * np.pi / m)
    ring = np.column_stack([cx + radius * np.cos(theta),
                            cy + radius * np.sin(theta)])

    gx, gy = np.meshgrid(np.linspace(xmin, xmax, nx + 1),
                         np.linspace(ymin, ymax, ny + 1), indexing="xy")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    dist = np.hypot(grid[:, 0] - cx, grid[:, 1] - cy)
    keep = dist > radius + 0.75 * max(sx, sy)
    points = np.vstack([grid[keep], ring])

    tri = Delaunay(points)
    cells = tri.simplices
    centroids = points[cells].mean(axis=1)

    # drop triangles inside the (convex, ccw) hole polygon
    v0 = ring
    v1 = np.roll(ring, -1, axis=0)
    edge = v1 - v0
    rel = centroids[:, None, :] - v0[None, :, :]
    cross = edge[None, :, 0] * rel[:, :, 1] - edge[None, :, 1] * rel[:, :, 0]
    inside = np.all(cross > 0.0, axis=1)
    cells = cells[~inside]

    return Mesh(points, cells, h_nominal=target_h)


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
            f"{len(on_lo)} facets on the low side, {len(on_hi)} on the high side")

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
    graph = coo_matrix((np.ones(len(walls)), (ends[:, 0], ends[:, 1])), shape=(nn, nn))
    component = connected_components(graph, directed=False)[1][ends[:, 0]]
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
