"""Static condensation onto the trace dofs, potential recovery, the
condensed wave operator, and the stationary vector-Laplacian
initialization solve.

:class:`CondensedSolver` is the hybridization kernel shared by every
implicit solve: element-local unknowns are eliminated block by block,
and only the remaining trace system is factored.  The recovery of the
height from the flux is its simplest instance (the local block is
identity plus boundary stabilization); the implicit stages of both
schemes reuse it with larger local blocks, and the init solve eliminates
(rotation, height, flux) per element onto the (height trace, tangential
flux trace) system, bordered by its gauge multipliers.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _element_columns, _scatter, assemble_all
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

    Every trace Schur complement built here is structurally symmetric, and
    several are indefinite (the init system, the stages), so the factor
    orders the columns by minimum degree on A^T + A and runs SuperLU in
    symmetric mode: pivots stay on the diagonal unless one falls below
    0.1 times the largest entry of its column.  Both settings are needed.
    The minimum-degree ordering alone, under partial pivoting, raises
    the fill of the indefinite init systems above COLAMD's, because
    off-diagonal pivots break the symmetric elimination order it was
    chosen for.  Pure diagonal pivoting (threshold 0) breaks down on
    them: the standing-wave init solve at level 5, k = 1 then has a
    relative residual above 1.  With both, the fill is about half of
    COLAMD's or less on every system.

    An optional ``border`` (CSR, local rows then trace rows, one column
    per constraint) adds multipliers lam and bordered rows and columns:

        A x + B t + E_l lam = f
        C x + T t + E_t lam = g
        E_l^T x + E_t^T t   = h

    The multipliers are condensed like extra trace unknowns: the Schur
    complement is bordered by E_t - C A^-1 E_l and E_t^T - E_l^T A^-1 B,
    with corner -E_l^T A^-1 E_l, so sparse border columns stay sparse.
    The trace part of a solve is then (t, lam) and takes data (g, h).

    A singular A_e or a failed trace factorization raises RuntimeError.
    """

    def __init__(self, local, from_trace, to_trace, trace, cols, border=None):
        ne, n, _ = local.shape
        nt = trace.shape[0]
        self._local_inv = _invert_blocks(local)
        lift = self._local_inv @ from_trace         # A_e^-1 B_e
        schur = trace - _scatter(to_trace @ lift, cols, cols, (nt, nt))
        self._lift = _block_rows(lift, cols, nt)
        restrict = (to_trace @ self._local_inv).transpose(0, 2, 1)  # (C_e A_e^-1)^T
        self._restrict = _block_rows(restrict, cols, nt).T.tocsr()
        if border is not None:
            b_local, b_trace = border[:ne * n], border[ne * n:]
            dense = b_local.toarray().reshape(ne, n, -1)
            lift_b = sparse.csr_matrix((self._local_inv @ dense).reshape(ne * n, -1))
            restrict_b = sparse.csr_matrix(
                (self._local_inv.transpose(0, 2, 1) @ dense).reshape(ne * n, -1)).T
            schur = sparse.vstack([
                sparse.hstack([schur, b_trace - self._restrict @ b_local]),
                sparse.hstack([b_trace.T - b_local.T @ self._lift, -(restrict_b @ b_local)])])
            self._lift = sparse.hstack([self._lift, lift_b], format="csr")
            self._restrict = sparse.vstack([self._restrict, restrict_b], format="csr")
        try:
            self.lu = splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise RuntimeError(f"trace factorization failed: {err}") from None

    def _local_apply(self, f):
        """A^-1 f, one element block at a time."""
        ne, n, _ = self._local_inv.shape
        return np.einsum("eij,ej->ei", self._local_inv, f.reshape(ne, n)).reshape(-1)

    def solve(self, f, g):
        """Local and trace parts (x, t) of the solution for data (f, g);
        with a border, g and t end with the constraint rows."""
        t = self.lu.solve(g - self._restrict @ f)
        return self._local_apply(f) - self._lift @ t, t


class PhiRecovery:
    """Cached factorizations for recovering the height field from the flux.

    Eliminating the element-local block leaves a symmetric positive
    definite system on the trace dofs (the stabilization trace mass minus
    the condensed mixed coupling); its sparse LU ``schur`` is the witness
    that the recovery problem is well posed for the given stabilization.

    The condensed wave operator F p_hat - D p of :meth:`apply` is linear in
    the flux w, so its pieces are composed once into three CSR operators
    over the flux dofs:

        G  = F^T + C A^-1 D^T       (trace data of the recovery)
        H  = F + D A^-1 B           (flux_pair plus the lifted trace)
        Mw = D A^-1 D^T             (element-local part, block diagonal)

    with D = div_pair, F = flux_pair, A the local blocks I + S_l and B, C
    the mixed couplings, and an application is H (schur^-1 G w) + Mw w:
    one gather, one trace LU solve, and one scatter plus a local term.
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

        solver, div = self.solver, mats.div_pair
        local_inv = _block_rows(solver._local_inv, mats.wdofs, mats.wdofs.size)
        self._G = (self._flux_T + solver._restrict @ self._div_T).tocsr()
        self._H = (mats.flux_pair + div @ solver._lift).tocsr()
        self._Mw = (div @ local_inv @ self._div_T).tocsr()

    def solve_saddle(self, r_local, r_trace):
        """Solve the symmetric recovery block system for arbitrary data
        (r_local, r_trace) in the (height, trace) rows."""
        return self.solver.solve(r_local, r_trace)

    def recover(self, w):
        """Height and trace coefficients induced by flux coefficients w."""
        return self.solve_saddle(-(self._div_T @ w), self._flux_T @ w)

    def apply(self, w):
        """Action of the condensed wave operator on flux coefficients."""
        return self._H @ self.schur.solve(self._G @ w) + self._Mw @ w


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


def _init_blocks(mats, tangential, alpha):
    """Element and trace blocks of the init system for
    :class:`CondensedSolver`, built from the shared facet tensors.

    Returns (local, from_trace, trace, cols): the local blocks A_e over
    (sigma_e, phi_e, w_e), the couplings B_e = C_e^T of each element to
    the (phi_hat, psi_hat) dofs ``cols[e]`` of its facets, and the trace
    block diag(-S_t, Z / alpha) over (phi_hat, psi_hat).
    """
    mesh = mats.mesh
    ne, m = mats.wdofs.shape
    nm = mats.stab_trace.shape[0]
    ef = mesh.element_facets
    ainv = 1.0 / alpha

    # (z_k, curl phi_i) over elements; curl phi = (dphi/dy, -dphi/dx)
    curl = np.concatenate([mats.vol_dy.transpose(0, 2, 1),
                           -mats.vol_dx.transpose(0, 2, 1)], axis=1)
    div = mats.div_blocks

    nk = mats.normals_signed
    nperp = np.stack([nk[..., 1], -nk[..., 0]], axis=-1)     # outward n rotated by -90
    tdot = np.einsum("efd,efd->ef", tangential.tangent[ef], nperp)

    wt = mats.facet_tensor
    tang_pair = _element_columns(tdot[..., None, None] * wt)
    tang_flux = _element_columns(tdot[..., None, None] * np.concatenate(
        [nperp[..., 0, None, None] * wt, nperp[..., 1, None, None] * wt], axis=2))

    # tangential boundary penalty of the flux, and of its trace
    norm_pen = np.einsum("efa,efb,efij->eaibj", nperp, nperp,
                         mats.facet_elem_mass).reshape(ne, 2 * m, 2 * m)
    norm_pen = 0.5 * (norm_pen + norm_pen.transpose(0, 2, 1))
    md = mats.mdofs.shape[1]
    cols_m = mats.mdofs[ef].reshape(3 * ne, md)
    tang_pen = _scatter(((tdot ** 2)[..., None, None] * mats.facet_trace_mass)
                        .reshape(3 * ne, md, md), cols_m, cols_m, (nm, nm))

    local = np.zeros((ne, 4 * m, 4 * m))
    local[:, :m, :m] = -np.eye(m)
    local[:, :m, 2 * m:] = curl.transpose(0, 2, 1)
    local[:, m:2 * m, m:2 * m] = -(mats.stab_local_blocks + np.eye(m))
    local[:, m:2 * m, 2 * m:] = -div.transpose(0, 2, 1)
    local[:, 2 * m:, :m] = curl
    local[:, 2 * m:, m:2 * m] = -div
    local[:, 2 * m:, 2 * m:] = ainv * norm_pen

    nc = tang_pair.shape[2]
    from_trace = np.zeros((ne, 4 * m, 2 * nc))
    from_trace[:, :m, nc:] = -tang_pair
    from_trace[:, m:2 * m, :nc] = mats.stab_mixed_blocks
    from_trace[:, 2 * m:, :nc] = mats.flux_blocks
    from_trace[:, 2 * m:, nc:] = -ainv * tang_flux

    trace = sparse.block_diag([-mats.stab_trace, ainv * tang_pen], format="csr")
    cols = np.concatenate([mats.trace_cols, nm + mats.trace_cols], axis=1)
    return local, from_trace, trace, cols


def _gauge_constraints(mesh, spaces):
    """Border columns pinning the discrete harmonic components, over the
    init unknowns in solver order: the element-local (sigma, phi, w)
    blocks of every element, then phi_hat, then psi_hat.

    On periodic domains the init operator has constant flux fields in its
    kernel (one per periodic direction); every interior hole adds one
    circulation field.  All of them are invisible to the recovery and the
    dynamics.  Returns (sparse_cols, dense_cols): the sparse columns (a
    one-element component mean per periodic direction, one circulation row
    per hole) keep the trace factorization fill low; the dense global-mean
    columns are the border actually enforced, restored afterwards through
    a low-rank correction, because they spread the absorption of any
    inconsistent data component evenly instead of concentrating it on one
    element.  Dense entries are None where the sparse column is already
    the intended one.
    """
    sc, tr = spaces.scalar, spaces.trace
    ne, m = mesh.num_elements, sc.dim_local
    off_psi = 4 * ne * m + tr.ndof
    total = off_psi + tr.ndof
    cols = []
    dense = []

    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab)
    for axis, active in ((0, mesh.periodic_x), (1, mesh.periodic_y)):
        if not active:
            continue
        dofs = (np.arange(ne) * 4 * m)[:, None] + (2 + axis) * m + np.arange(m)[None, :]
        col = np.zeros(total)
        col[dofs[0]] = moments[0]
        cols.append(col / np.linalg.norm(col))

        full = np.zeros(total)
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

    Unknowns are the rotation sigma, height phi, flux w, height trace
    phi_hat, and tangential flux trace psi_hat; both flux definitions
    carry their stabilization terms (tau for the normal part, 1/alpha for
    the tangential part).  The system is symmetric indefinite and is
    solved by static condensation (:class:`CondensedSolver`): per element
    the local unknowns (sigma, phi, w) are eliminated through

        A_e = [[-I,      0,              curl_e^T],
               [ 0,      -(I + S_l,e),   -D_e^T  ],
               [ curl_e, -D_e,           N_e / alpha]]

    and only the (phi_hat, psi_hat) trace system is factored.  Every A_e
    is invertible: its (sigma, phi) part is negative definite, and the
    Schur complement left on w, N_e / alpha + curl_e curl_e^T
    + D_e (I + S_l,e)^-1 D_e^T, is positive definite.  It is a sum of
    semidefinite terms, and a w in the kernel of all three has zero
    tangential trace on the element boundary (the tangential boundary
    penalty N_e), zero divergence (D_e) and then, integrating the curl
    pairing by parts, zero rotation (curl_e): the gradient of a harmonic
    polynomial that is constant on the boundary, so w = 0.

    On topologically nontrivial domains the trace system is bordered with
    gauge multipliers (see :func:`_gauge_constraints`).  The residual is
    measured on the full, uncondensed bordered operator, applied block by
    block, and reported relative to max(1, |rhs|).  A singular local
    block or trace system raises RuntimeError("init solve factorization
    failed: ...").
    """
    if spaces.tangential is None:
        spaces.tangential = TangentialTraceSpace(mesh, spaces.k, spaces.trace.quad_degree)
    mats = matrices if matrices is not None else assemble_all(mesh, spaces, params)

    sc, tr, tg = spaces.scalar, spaces.trace, spaces.tangential
    ne, m = mats.wdofs.shape
    nm = tr.ndof
    local, from_trace, trace, tcols = _init_blocks(mats, tg, params.alpha)
    n_local, n_trace = 4 * ne * m, trace.shape[0]
    total = n_local + n_trace

    cols, dense_cols = _gauge_constraints(mesh, spaces)
    border = sparse.csr_matrix(np.column_stack(cols)) if cols else None
    try:
        solver = CondensedSolver(local, from_trace, from_trace.transpose(0, 2, 1),
                                 trace, tcols, border=border)
    except RuntimeError as err:
        raise RuntimeError(f"init solve factorization failed: {err}") from None

    n_tot = total + len(cols)
    fixes = []
    for slot, (col, full) in enumerate(zip(cols, dense_cols)):
        if full is None:
            continue
        delta = np.zeros(n_tot)
        delta[:total] = full - col
        picker = np.zeros(n_tot)
        picker[total + slot] = 1.0
        fixes.append((delta, picker))

    rhs_local = np.zeros((ne, 4 * m))
    rhs_local[:, 2 * m:] = spaces.vector.project(f).coeffs.reshape(ne, 2 * m)
    rhs = np.zeros(n_tot)
    rhs[:n_local] = rhs_local.reshape(-1)

    def base_solve(b):
        x, t = solver.solve(b[:n_local], b[n_local:])
        return np.concatenate([x, t])

    def base_apply(v):
        # the uncondensed bordered operator, from the element blocks
        x, t, lam = v[:n_local], v[n_local:total], v[total:]
        xe = x.reshape(ne, 4 * m)
        out = np.empty(n_tot)
        out[:n_local] = (np.einsum("eij,ej->ei", local, xe)
                         + np.einsum("eij,ej->ei", from_trace, t[tcols])).reshape(-1)
        out[n_local:total] = trace @ t + np.bincount(
            tcols.reshape(-1), weights=np.einsum("eij,ei->ej", from_trace, xe).reshape(-1),
            minlength=n_trace)
        if border is not None:
            out[:total] += border @ lam
            out[total:] = border.T @ v[:total]
        return out

    if fixes:
        # swap the factored sparse border columns for the dense ones:
        # the enforced system is S + W C W^T with W = [deltas | pickers]
        # and C the antidiagonal pairing (C^-1 = C), inverted through the
        # Woodbury identity so the trace LU keeps its sparse fill
        r = len(fixes)
        w_mat = np.column_stack([d for d, _ in fixes] + [p for _, p in fixes])
        c_mat = np.zeros((2 * r, 2 * r))
        c_mat[:r, r:] = np.eye(r)
        c_mat[r:, :r] = np.eye(r)
        y_mat = np.column_stack([base_solve(col) for col in w_mat.T])
        small = c_mat + w_mat.T @ y_mat

        def solve_fn(b):
            yb = base_solve(b)
            return yb - y_mat @ np.linalg.solve(small, w_mat.T @ yb)

        def apply_fn(v):
            return base_apply(v) + w_mat @ (c_mat @ (w_mat.T @ v))
    else:
        solve_fn, apply_fn = base_solve, base_apply

    x = solve_fn(rhs)
    residual = np.linalg.norm(apply_fn(x) - rhs) / max(1.0, np.linalg.norm(rhs))

    lam = x[total:]
    if lam.size and np.abs(lam).max() > 1e-8 * max(1.0, np.abs(rhs).max()):
        log.info("init solve: gauge multipliers %.3e absorb the harmonic part "
                 "of the data", np.abs(lam).max())

    xe = x[:n_local].reshape(ne, 4 * m)
    return InitSolution(
        sigma=GridFunction(sc, xe[:, :m].reshape(-1)),
        phi=GridFunction(sc, xe[:, m:2 * m].reshape(-1)),
        w=GridFunction(spaces.vector, xe[:, 2 * m:].reshape(-1)),
        phi_hat=GridFunction(tr, x[n_local:n_local + nm]),
        w_tangent=GridFunction(tg, x[n_local + nm:total]),
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
