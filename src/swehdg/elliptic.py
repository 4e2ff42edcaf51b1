"""Static condensation onto the trace dofs, potential recovery, the
condensed wave operator, and the stationary vector-Laplacian
initialization solve.

:class:`CondensedSolver` is the hybridization kernel shared by every
implicit solve of the time-dependent problem: element-local unknowns are
eliminated block by block, and only the remaining trace system is
factored.  The recovery of the height from the flux is its simplest
instance (the local block is identity plus boundary stabilization); the
implicit stages of both schemes reuse it with larger local blocks.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _scatter, assemble_all
from .fespace import GridFunction, TangentialTraceSpace
from .mesh import WALL, boundary_loops

log = logging.getLogger(__name__)


def _block_rows(blocks, cols, ncols):
    """CSR matrix whose row e * n + i holds blocks[e, i] at the columns
    cols[e]; repeated columns within a row add up in every product."""
    ne, n, c = blocks.shape
    indices = np.broadcast_to(cols[:, None, :], (ne, n, c)).reshape(-1)
    indptr = np.arange(0, ne * n * c + 1, c)
    return sparse.csr_matrix((blocks.reshape(-1), indices, indptr),
                             shape=(ne * n, ncols))


def _invert_blocks(blocks):
    """Batched inverse of (ne, n, n) blocks; a singular block raises
    RuntimeError naming the first offending element."""
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.isfinite(inv).all():
        sv = np.linalg.svd(blocks, compute_uv=False)
        n = blocks.shape[-1]
        bad = np.flatnonzero(~(sv[:, -1] > n * np.finfo(float).eps * sv[:, 0]))
        first = int(bad[0]) if bad.size else int(np.argmin(sv[:, -1] / sv[:, 0]))
        raise RuntimeError(f"local block of element {first} is singular")
    return inv


class CondensedSolver:
    """Direct solver for a hybridized block system, condensed onto the
    trace dofs.

    The system couples n element-local unknowns per element (element by
    element, so local dof ``e * n + i``) with the trace unknowns t:

        A x + B t = f
        C x + T t = g

    A is block diagonal with blocks A_e (n x n); B and C couple element e
    only to the trace dofs ``cols[e]`` of its facets, through the blocks
    B_e (n x c) and C_e (c x n); T is sparse on the trace.  Every A_e is
    inverted in one batch, the Schur complement T - sum_e C_e A_e^-1 B_e
    is factored once, and each solve costs one batched local apply, two
    sparse products and one trace LU solve.

    A singular A_e or a failed trace factorization raises RuntimeError.
    """

    def __init__(self, local, from_trace, to_trace, trace, cols):
        ne, n, _ = local.shape
        nt = trace.shape[0]
        self._local_inv = _invert_blocks(local)
        lift = self._local_inv @ from_trace         # A_e^-1 B_e
        schur = trace - _scatter(to_trace @ lift, cols, cols, (nt, nt))
        try:
            self.lu = splu(schur.tocsc())
        except RuntimeError as err:
            raise RuntimeError(f"trace factorization failed: {err}") from None
        self._lift = _block_rows(lift, cols, nt)
        restrict = (to_trace @ self._local_inv).transpose(0, 2, 1)  # (C_e A_e^-1)^T
        self._restrict = _block_rows(restrict, cols, nt).T.tocsr()

    def _local_apply(self, f):
        """A^-1 f, one element block at a time."""
        ne, n, _ = self._local_inv.shape
        return np.einsum("eij,ej->ei", self._local_inv, f.reshape(ne, n)).reshape(-1)

    def solve(self, f, g):
        """Local and trace parts (x, t) of the solution for data (f, g)."""
        t = self.lu.solve(g - self._restrict @ f)
        return self._local_apply(f) - self._lift @ t, t


class PhiRecovery:
    """Cached factorizations for recovering the height field from the flux.

    Eliminating the element-local block leaves a symmetric positive
    definite system on the trace dofs (the stabilization trace mass minus
    the condensed mixed coupling); its sparse LU ``schur`` is the witness
    that the recovery problem is well posed for the given stabilization.
    """

    def __init__(self, matrices):
        mats = matrices
        m = mats.spaces.scalar.dim_local
        mixed = mats.stab_mixed_blocks
        try:
            self.solver = CondensedSolver(
                mats.stab_local_blocks + np.eye(m), -mixed,
                -mixed.transpose(0, 2, 1), mats.stab_trace, mats.trace_cols)
        except RuntimeError as err:
            raise RuntimeError(f"recovery factorization failed: {err}") from None
        self.schur = self.solver.lu
        self.mats = mats
        self._div_T = mats.div_pair.T.tocsr()
        self._flux_T = mats.flux_pair.T.tocsr()

    def solve_saddle(self, r_local, r_trace):
        """Solve the symmetric recovery block system for arbitrary data
        (r_local, r_trace) in the (height, trace) rows."""
        return self.solver.solve(r_local, r_trace)

    def recover(self, w):
        """Height and trace coefficients induced by flux coefficients w."""
        return self.solve_saddle(-(self._div_T @ w), self._flux_T @ w)

    def apply(self, w):
        """Action of the condensed wave operator on flux coefficients."""
        p, phat = self.recover(w)
        return self.mats.flux_pair @ phat - self.mats.div_pair @ p


@dataclass
class InitSolution:
    """Fields of the stationary init solve, plus solver bookkeeping."""
    sigma: GridFunction
    w: GridFunction
    phi: GridFunction
    phi_hat: GridFunction
    w_tangent: GridFunction
    residual: float
    multipliers: np.ndarray


@dataclass
class InitState:
    """Initial data for time stepping: velocity and flux coefficients."""
    u: GridFunction
    w: GridFunction
    init: InitSolution


def _init_blocks(mats, tangential):
    """Couplings specific to the init system, built from the shared
    facet tensors: rotation pairing, tangential-trace couplings, and the
    boundary penalties of the flux definitions."""
    mesh = mats.mesh
    sc = mats.spaces.scalar
    tr = mats.spaces.trace
    ne, m, md = mesh.num_elements, sc.dim_local, tr.dim_local
    ef = mesh.element_facets
    nw, nv, nm = sc.ndof, 2 * sc.ndof, tr.ndof

    # (z_k, curl phi_i) over elements; curl phi = (dphi/dy, -dphi/dx)
    dc_blocks = np.concatenate([mats.vol_dy.transpose(0, 2, 1),
                                -mats.vol_dx.transpose(0, 2, 1)], axis=1)
    curl_pair = _scatter(dc_blocks, mats.vdofs.reshape(ne, 2 * m), mats.wdofs, (nv, nw))

    nk = mats.normals_signed
    nperp = np.stack([nk[..., 1], -nk[..., 0]], axis=-1)     # outward n rotated by -90
    tdot = np.einsum("efd,efd->ef", tangential.tangent[ef], nperp)

    wt = mats.facet_tensor
    rows_w = np.broadcast_to(mats.wdofs[:, None, :], (ne, 3, m)).reshape(3 * ne, m)
    rows_v = np.broadcast_to(mats.vdofs.reshape(ne, 1, 2 * m), (ne, 3, 2 * m))
    cols_m = mats.mdofs[ef].reshape(3 * ne, md)

    t_blocks = tdot[..., None, None] * wt
    tang_pair = _scatter(t_blocks.reshape(3 * ne, m, md), rows_w, cols_m, (nw, nm))

    y_blocks = tdot[..., None, None] * np.concatenate(
        [nperp[..., 0, None, None] * wt, nperp[..., 1, None, None] * wt], axis=2)
    tang_flux = _scatter(y_blocks.reshape(3 * ne, 2 * m, md),
                         rows_v.reshape(3 * ne, 2 * m), cols_m, (nv, nm))

    xw = np.einsum("efa,efb,efij->eaibj", nperp, nperp,
                   mats.facet_elem_mass).reshape(ne, 2 * m, 2 * m)
    xw = 0.5 * (xw + xw.transpose(0, 2, 1))
    norm_pen = _scatter(xw, mats.vdofs.reshape(ne, 2 * m),
                        mats.vdofs.reshape(ne, 2 * m), (nv, nv))

    z_blocks = (tdot ** 2)[..., None, None] * mats.facet_trace_mass
    tang_pen = _scatter(z_blocks.reshape(3 * ne, md, md), cols_m, cols_m, (nm, nm))

    return curl_pair, tang_pair, tang_flux, norm_pen, tang_pen


def _gauge_constraints(mesh, spaces, offsets):
    """Border columns pinning the discrete harmonic components.

    On periodic domains the init operator has constant flux fields in its
    kernel (one per periodic direction); every interior hole adds one
    circulation field.  All of them are invisible to the recovery and the
    dynamics.  Returns (sparse_cols, dense_cols): the sparse columns (a
    one-element component mean per periodic direction, one circulation row
    per hole) keep the LU factorization fill low; the dense global-mean
    columns are the border actually enforced, restored afterwards through
    a low-rank correction, because they spread the absorption of any
    inconsistent data component evenly instead of concentrating it on one
    element.  Dense entries are None where the sparse column is already
    the intended one.
    """
    sc, tr = spaces.scalar, spaces.trace
    off_w, off_psi, total = offsets
    cols = []
    dense = []

    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab)
    m = sc.dim_local
    for axis, active in ((0, mesh.periodic_x), (1, mesh.periodic_y)):
        if not active:
            continue
        col = np.zeros(total)
        dofs = off_w + axis * m + np.arange(m)
        col[dofs] = moments[0]
        cols.append(col / np.linalg.norm(col))

        full = np.zeros(total)
        dofs = off_w + (np.arange(mesh.num_elements) * 2 * m)[:, None] \
            + axis * m + np.arange(m)[None, :]
        full[dofs.reshape(-1)] = moments.reshape(-1)
        dense.append(full / np.linalg.norm(full))

    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    tol = 1e-9 * max(span)
    outer_lo = mesh.nodes.min(axis=0)
    outer_hi = mesh.nodes.max(axis=0)
    for facets, signs in boundary_loops(mesh, WALL):
        pts = mesh.nodes[np.unique(mesh.facet_nodes[facets])]
        is_outer = (np.all(np.abs(pts.min(axis=0) - outer_lo) <= tol)
                    and np.all(np.abs(pts.max(axis=0) - outer_hi) <= tol))
        if is_outer:
            continue
        col = np.zeros(total)
        for f, s in zip(facets, signs):
            dof = off_psi + tr.owner_row[f] * tr.dim_local
            col[dof] += s * np.sqrt(mesh.facet_lengths[f])
        cols.append(col / np.linalg.norm(col))
        dense.append(None)
    return cols, dense


def solve_vector_laplacian(mesh, spaces, f, params, matrices=None):
    """Stationary vector-Laplacian solve for the initial flux field.

    Unknowns are the rotation, height, flux, height trace, and
    tangential flux trace; both flux definitions carry their
    stabilization terms (tau for the normal part, 1/alpha for the
    tangential part).  The system is assembled symmetric indefinite and
    solved by a sparse LU, with gauge bordering on topologically
    nontrivial domains.
    """
    if spaces.tangential is None:
        spaces.tangential = TangentialTraceSpace(mesh, spaces.k, spaces.trace.quad_degree)
    mats = matrices if matrices is not None else assemble_all(mesh, spaces, params)

    sc, tr, tg = spaces.scalar, spaces.trace, spaces.tangential
    nw, nv, nm = sc.ndof, spaces.vector.ndof, tr.ndof
    curl_pair, tang_pair, tang_flux, norm_pen, tang_pen = _init_blocks(mats, tg)

    ainv = 1.0 / params.alpha
    eye_w = sparse.identity(nw, format="csr")
    local = mats.stab_local + eye_w
    blocks = [
        [-eye_w, None, curl_pair.T, None, -tang_pair],
        [None, -local, -mats.div_pair.T, mats.stab_mixed, None],
        [curl_pair, -mats.div_pair, ainv * norm_pen, mats.flux_pair, -ainv * tang_flux],
        [None, mats.stab_mixed.T, mats.flux_pair.T, -mats.stab_trace, None],
        [-tang_pair.T, None, -ainv * tang_flux.T, None, ainv * tang_pen],
    ]
    system = sparse.bmat(blocks, format="csr")

    total = nw + nw + nv + nm + nm
    off_w = 2 * nw
    off_psi = total - nm
    cols, dense_cols = _gauge_constraints(mesh, spaces, (off_w, off_psi, total))
    fixes = []
    if cols:
        border = sparse.csr_matrix(np.column_stack(cols))
        system = sparse.bmat([[system, border], [border.T, None]], format="csr")
        n_tot = system.shape[0]
        for slot, (col, full) in enumerate(zip(cols, dense_cols)):
            if full is None:
                continue
            delta = np.zeros(n_tot)
            delta[:total] = full - col
            picker = np.zeros(n_tot)
            picker[total + slot] = 1.0
            fixes.append((delta, picker))

    rhs = np.zeros(system.shape[0])
    rhs[off_w:off_w + nv] = spaces.vector.project(f).coeffs

    try:
        lu = splu(system.tocsc())
    except RuntimeError as err:
        raise RuntimeError(f"init solve factorization failed: {err}") from None

    if fixes:
        # swap the factored sparse border columns for the dense ones:
        # the enforced system is S + W C W^T with W = [deltas | pickers]
        # and C the antidiagonal pairing (C^-1 = C), inverted through the
        # Woodbury identity so the LU keeps its sparse fill
        r = len(fixes)
        w_mat = np.column_stack([d for d, _ in fixes] + [p for _, p in fixes])
        c_mat = np.zeros((2 * r, 2 * r))
        c_mat[:r, r:] = np.eye(r)
        c_mat[r:, :r] = np.eye(r)
        y_mat = lu.solve(w_mat)
        small = c_mat + w_mat.T @ y_mat

        def solve_fn(b):
            yb = lu.solve(b)
            return yb - y_mat @ np.linalg.solve(small, w_mat.T @ yb)

        def apply_fn(v):
            return system @ v + w_mat @ (c_mat @ (w_mat.T @ v))
    else:
        solve_fn = lu.solve

        def apply_fn(v):
            return system @ v

    x = solve_fn(rhs)
    residual = np.linalg.norm(apply_fn(x) - rhs) / max(1.0, np.linalg.norm(rhs))

    lam = x[total:]
    if lam.size and np.abs(lam).max() > 1e-8 * max(1.0, np.abs(rhs).max()):
        log.info("init solve: gauge multipliers %.3e absorb the harmonic part "
                 "of the data", np.abs(lam).max())

    return InitSolution(
        sigma=GridFunction(sc, x[:nw]),
        phi=GridFunction(sc, x[nw:2 * nw]),
        w=GridFunction(spaces.vector, x[off_w:off_w + nv]),
        phi_hat=GridFunction(tr, x[off_w + nv:off_w + nv + nm]),
        w_tangent=GridFunction(tg, x[off_psi:off_psi + nm]),
        residual=float(residual),
        multipliers=lam,
    )


def initialize_state(mesh, spaces, phi0, u0, params, grad_phi0=None, matrices=None):
    """Initial (u, w) pair: w from the stationary solve driven by the
    gradient of the height profile, u by L2 projection.

    Falls back to central differences for the gradient (step h * 1e-4)
    when no analytic gradient is supplied.
    """
    if grad_phi0 is None and phi0 is None:
        def grad_phi0(x, y):
            return 0.0 * np.asarray(x, dtype=float), 0.0 * np.asarray(y, dtype=float)
    elif grad_phi0 is None:
        step = mesh.h * 1e-4
        log.info("initialize_state: height gradient by central differences, "
                 "step %.3e", step)

        def grad_phi0(x, y):
            return ((phi0(x + step, y) - phi0(x - step, y)) / (2.0 * step),
                    (phi0(x, y + step) - phi0(x, y - step)) / (2.0 * step))

    sol = solve_vector_laplacian(mesh, spaces, grad_phi0, params, matrices=matrices)
    u = spaces.vector.project(u0) if u0 is not None else GridFunction(spaces.vector)
    return InitState(u=u, w=sol.w, init=sol)
