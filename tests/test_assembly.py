"""Assembled blocks: oracle entries, symmetries, adjoint identities, and
the one scatter that builds every sparse operator."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import swehdg
from swehdg.assembly import (
    PhysicalParams,
    _block_rows,
    _blocked,
    _pairing,
    _run_length,
    assemble_all,
)
from swehdg.elliptic import solve_vector_laplacian
from swehdg.fespace import build_spaces
from swehdg.mesh import Mesh, generate_rect_with_hole, generate_uniform_square, pair_periodic

from helpers import (
    div_values,
    dofs_of_facet,
    flux_pairing,
    scalar_values,
    trace_values,
    vector_blocks,
)

REF_TRI = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
PAIRINGS_ON_READ = ("div_pair", "stab_local", "stab_mixed", "coriolis")


def _pairings(mats):
    """Every pairing of ``mats`` by name, with the flux pairing F scattered
    from its element blocks as the tests build it."""
    pairings = {name: getattr(mats, name) for name in PAIRINGS_ON_READ + ("stab_trace",)}
    pairings["flux_pair"] = flux_pairing(mats)
    return pairings


def _assembled(mesh, k, **params):
    spaces = build_spaces(mesh, k)
    return assemble_all(spaces, PhysicalParams(**params)), spaces


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(phi=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(tau=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=0.0)
    p = PhysicalParams(f0=0.5, beta=2.0, y_mid=1.0)
    assert p.coriolis(3.0, 2.0) == pytest.approx(0.5 + 2.0, abs=1e-15)
    assert p.rotating
    assert not PhysicalParams().rotating


def test_zero_coriolis_gives_zero_matrix():
    mats, _ = _assembled(generate_uniform_square(1), 2)
    assert abs(mats.coriolis).max() == 0.0
    assert mats.coriolis.nnz == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pairings_are_canonical_without_stored_zeros(k):
    # on the doubly periodic level-1 mesh several element facets fold onto
    # the same trace dofs, so the blocks overlap
    mats, _ = _assembled(pair_periodic(generate_uniform_square(1), "both"), k,
                         f0=0.3, beta=0.2)
    for name, mat in _pairings(mats).items():
        assert mat.format == "csr", name
        assert all(np.all(np.diff(mat.indices[a:b]) > 0)
                   for a, b in zip(mat.indptr[:-1], mat.indptr[1:])), name
        assert np.all(mat.data != 0.0), name


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pairings_store_only_their_entries(k):
    # summing the duplicates of the trace mass halves its entries, and a
    # view of the unsummed arrays would be held for the whole run
    mats, _ = _assembled(generate_uniform_square(3), k, f0=0.3, beta=0.2)
    for name, mat in _pairings(mats).items():
        for array in (mat.data, mat.indices):
            assert array.base is None or array.base.size == mat.nnz, name


def _eager_pairings(mats):
    """The five pairings as assemble_all once scattered them all, before
    any was read: the oracle of those built at their first read, and of
    the flux pairing F the tests scatter."""
    ne, m = mats.wdofs.shape
    nw, nv, nm = ne * m, 2 * ne * m, mats.stab_trace.shape[0]
    rows_v, cols = mats.vdofs.reshape(ne, 2 * m), mats.trace_cols
    eager = {
        "div_pair": _block_rows(mats.div_blocks, rows_v, mats.wdofs, (nv, nw)),
        "flux_pair": _block_rows(mats.flux_blocks, rows_v, cols, (nv, nm)),
        "stab_local": _block_rows(mats.stab_local_blocks, mats.wdofs, mats.wdofs, (nw, nw)),
        "stab_mixed": _block_rows(mats.stab_mixed_blocks, mats.wdofs, cols, (nw, nm)),
        "coriolis": _block_rows(mats.coriolis_blocks, rows_v, rows_v, (nv, nv)),
    }
    for pairing in eager.values():
        pairing.eliminate_zeros()
        pairing.sum_duplicates()
    return eager


# two elements of two block rows and two columns against a 4 x 5 head
# with a stored zero: row 0 holds a column of the head and of both
# elements (3) and one of the head and element 0 (1), and both blocks
# hold a zero
HEAD = sparse.csr_matrix((np.array([1.0, 0.0, 2.0]), np.array([3, 1, 0]),
                          np.array([0, 2, 2, 3, 3])), shape=(4, 5))
BLOCKS = np.array([[[10.0, 0.0], [11.0, 12.0]], [[20.0, 21.0], [0.0, 22.0]]])
BLOCK_ROWS = np.array([[2, 0], [0, 3]])
BLOCK_COLS = np.array([[1, 3], [3, 4]])


def test_block_rows_put_the_head_first_and_keep_every_entry():
    mat = _block_rows(BLOCKS, BLOCK_ROWS, BLOCK_COLS, (4, 5), head=HEAD)
    assert mat.format == "csr"
    assert mat.indptr.tolist() == [0, 6, 6, 9, 11]
    assert mat.indices.tolist() == [3, 1, 1, 3, 3, 4, 0, 1, 3, 3, 4]
    assert mat.data.tolist() == [1.0, 0.0, 11.0, 12.0, 20.0, 21.0, 2.0, 10.0, 0.0, 0.0, 22.0]
    bare = _block_rows(BLOCKS, BLOCK_ROWS, BLOCK_COLS, (4, 5))
    assert bare.indptr.tolist() == [0, 4, 4, 6, 8]
    assert bare.indices.tolist() == [1, 3, 3, 4, 1, 3, 3, 4]
    assert bare.data.tolist() == [11.0, 12.0, 20.0, 21.0, 10.0, 0.0, 0.0, 22.0]
    pairing = _pairing(BLOCKS, BLOCK_ROWS, BLOCK_COLS, (4, 5))
    assert pairing.indptr.tolist() == [0, 3, 3, 4, 5]
    assert pairing.indices.tolist() == [1, 3, 4, 1, 4]
    assert pairing.data.tolist() == [11.0, 32.0, 21.0, 10.0, 22.0]


SPARSE_BUILDERS = {"csr_matrix", "csc_matrix", "csr_array", "csc_array",
                   "bsr_matrix", "bsr_array"}


def _triple_builds(path):
    """Names of the functions of a module that build a sparse matrix
    from a (data, indices, indptr) triple, once per build."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in SPARSE_BUILDERS
                and node.args and isinstance(node.args[0], ast.Tuple)
                and len(node.args[0].elts) == 3):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_scatter_builds_every_sparse_operator():
    # _block_rows scatters every operator; _refined_solve's float32 copy
    # shares the index arrays of the Schur complement and scatters nothing
    found = sorted(f"{path.stem}.{name}" for path in Path(swehdg.__file__).parent.glob("*.py")
                   for name in _triple_builds(path))
    assert found == ["assembly._block_rows", "elliptic._refined_solve"]


def test_run_length_reads_the_element_blocks_of_the_dof_layout():
    mats, spaces = _assembled(pair_periodic(generate_uniform_square(2), "both"), 2)
    m = spaces.scalar.dim_local
    assert _run_length(mats.trace_cols) == 3
    assert _run_length(mats.vdofs.reshape(len(mats.wdofs), -1)) == 2 * m
    assert _run_length(mats.wdofs) == m
    assert _run_length(np.array([[2, 3, 0, 1]])) == 2
    assert _run_length(np.array([[1, 2, 3, 4]])) == 1      # runs must be aligned


@pytest.mark.parametrize("size,filled,fmt", [
    (3, 5, "bsr"),      # 5 of 9 entries of each block: more than half
    (3, 4, "csr"),      # 4 of 9: not more than half
    (2, 4, "csr"),      # a full 2 x 2 block is too small
])
def test_blocked_converts_only_blocks_at_least_3_wide_more_than_half_full(size, filled, fmt):
    n = 4
    blocks = np.zeros((n, size * size))
    blocks[:, :filled] = 1.0 + np.arange(n * filled).reshape(n, filled)
    blocks = blocks.reshape(n, size, size)
    rows = np.arange(n * size).reshape(n, size)
    op = _pairing(blocks, rows, rows, (n * size, n * size))
    held = _blocked(op, rows, rows)
    assert held.format == fmt
    if fmt == "bsr":
        assert held.blocksize == (size, size)
        assert np.array_equal(held.toarray(), op.toarray())
    else:
        assert held is op


PAIRING_MESHES = {
    "wall": lambda: generate_uniform_square(2),
    "periodic": lambda: pair_periodic(generate_uniform_square(2), "both"),
    "holed": lambda: generate_rect_with_hole((0.0, 3.0, 0.0, 3.0), (1.5, 1.5), 0.6, 1.2),
}


@pytest.mark.parametrize("kind", list(PAIRING_MESHES))
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pairings_built_on_read_equal_the_eager_scatter(k, kind):
    mats, _ = _assembled(PAIRING_MESHES[kind](), k, f0=0.3, beta=0.2)
    assert not set(PAIRINGS_ON_READ) & set(vars(mats))
    eager, built = _eager_pairings(mats), _pairings(mats)
    for name in PAIRINGS_ON_READ:
        assert getattr(mats, name) is built[name], name
    for name, expected in eager.items():
        mat = built[name]
        assert mat.shape == expected.shape, name
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mat, part), getattr(expected, part)), (name, part)


def test_init_solve_builds_no_pairing_it_does_not_read():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    params = PhysicalParams(f0=0.3, beta=0.2)
    mats = assemble_all(spaces, params)
    sol = solve_vector_laplacian(mats, lambda x, y: (np.sin(x), np.cos(y)))
    assert sol.residual <= 1e-12
    assert not set(PAIRINGS_ON_READ) & set(vars(mats))


@pytest.mark.parametrize("kw", [dict(f0=0.7), dict(f0=0.3, beta=1.5, y_mid=0.5)])
def test_coriolis_antisymmetric(kw):
    mats, _ = _assembled(generate_uniform_square(2), 2, **kw)
    asym = mats.coriolis + mats.coriolis.T
    assert abs(asym).max() == 0.0
    assert abs(mats.coriolis).max() > 0.0


def test_single_element_k0_stab_is_perimeter_over_area():
    mats, _ = _assembled(REF_TRI, 0)
    perimeter = 2.0 + np.sqrt(2.0)
    area = 0.5
    assert mats.stab_local.toarray() == pytest.approx(
        np.array([[perimeter / area]]), rel=1e-13)


def test_flux_pair_reference_entry():
    # bottom facet of the reference triangle, k = 0: the stored normal is
    # (0, -1), the element basis is sqrt(2), the trace basis 1, so the
    # y-component row holds -sqrt(2) and the x row 0
    mats, spaces = _assembled(REF_TRI, 0)
    mesh = REF_TRI
    bottom = next(f for f in range(mesh.num_facets)
                  if np.allclose(mesh.nodes[mesh.facet_nodes[f]][:, 1], 0.0))
    col = spaces.trace.owner_row[bottom]
    flux = flux_pairing(mats).toarray()
    assert flux[1, col] == pytest.approx(-np.sqrt(2.0), rel=1e-13)
    assert flux[0, col] == pytest.approx(0.0, abs=1e-14)


def test_div_pair_adjoint_identity():
    mesh = generate_uniform_square(2)
    mats, spaces = _assembled(mesh, 2)
    rng = np.random.default_rng(42)
    for _ in range(3):
        p = rng.standard_normal(spaces.scalar.ndof)
        z = rng.standard_normal(spaces.vector.ndof)
        lhs = z @ (mats.div_pair @ p)
        integrand = scalar_values(spaces.scalar, p) * div_values(spaces.vector, z)
        rhs = np.sum(spaces.scalar.qweights * integrand)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_flux_pair_adjoint_identity():
    mesh = pair_periodic(generate_uniform_square(2), "x")
    mats, spaces = _assembled(mesh, 1)
    sc, tr = spaces.scalar, spaces.trace
    rng = np.random.default_rng(1)
    z = rng.standard_normal(spaces.vector.ndof)
    eta = rng.standard_normal(tr.ndof)
    lhs = z @ (flux_pairing(mats) @ eta)
    # recompute by summing facet quadrature element by element
    rhs = 0.0
    zc = vector_blocks(spaces.vector, z)
    for e in range(mesh.num_elements):
        for lf in range(3):
            f = mesh.element_facets[e, lf]
            vals = sc.batch_values(np.array([e]), tr.qpoints[f][None])[0]
            zq = np.einsum("qi,ci->qc", vals, zc[e])
            zdotn = zq @ mats.normals_signed[e, lf]
            etaq = trace_values(tr, eta, np.array([f]))[0]
            rhs += np.sum(tr.qweights[f] * etaq * zdotn)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_stab_symmetry_and_trace_spd():
    mesh = generate_uniform_square(3)          # 128 elements
    mats, spaces = _assembled(mesh, 1, tau=1.0)
    assert abs(mats.stab_local - mats.stab_local.T).max() == 0.0
    assert abs(mats.stab_trace - mats.stab_trace.T).max() == 0.0
    eigs = np.linalg.eigvalsh(mats.stab_trace.toarray())
    assert eigs.min() > 0.0


def test_stab_trace_counts_facet_sides():
    tau = 0.7
    mesh = pair_periodic(generate_uniform_square(1), "both")
    mats, spaces = _assembled(mesh, 1, tau=tau)
    g = mats.stab_trace.toarray()
    assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-14
    # fully periodic: every owned facet is seen from two element sides
    assert np.allclose(np.diag(g), 2.0 * tau, atol=1e-13)

    wall = generate_uniform_square(1)
    mats_w, spaces_w = _assembled(wall, 1, tau=tau)
    gw = np.diag(mats_w.stab_trace.toarray())
    for f in range(wall.num_facets):
        expected = tau if wall.facet_right[f] < 0 else 2.0 * tau
        for d in dofs_of_facet(spaces_w.trace, f):
            assert gw[d] == pytest.approx(expected, rel=1e-13)


def test_bathymetry_load_linear_profile():
    mesh = generate_uniform_square(1)
    spaces = build_spaces(mesh, 0)
    load = spaces.vector.project(lambda x, y: (1.0 + 0.0 * x, 0.0 * y))
    per_elem = load.reshape(mesh.num_elements, 2)
    assert np.allclose(per_elem[:, 0], np.sqrt(mesh.element_areas), rtol=1e-13)
    assert np.abs(per_elem[:, 1]).max() == 0.0
