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
flux trace) system, with its gauge multipliers as extra trace unknowns.

A solve that is repeated for data linear in one vector, and whose
caller reads a linear output of the solution, is precomposed by
:meth:`CondensedSolver.compose` into three sparse operators: the height
recovery, its transpose (the bathymetry load), the wave operator and
every implicit stage then run as one gather, one trace LU solve and one
scatter; the wave operator F p_hat - D p is formed from the height map
of the recovery's one composition.  :meth:`CondensedSolver.solve` is left
to the one-shot init solve.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _block_rows, _element_columns, assemble_all, central_gradient
from .fespace import GridFunction, TangentialTraceSpace
from .mesh import hole_boundaries

log = logging.getLogger(__name__)


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
    is factored once, and :meth:`solve` costs one batched local apply, a
    gather and a scatter around one trace LU solve.

    A caller that solves the system many times for data that a fixed
    linear map of some vector y produces, and that reads only a fixed
    linear map of the solution, precomposes both maps around the local
    elimination with :meth:`compose`: each solve is then one sparse
    product into the trace rows, the trace LU solve and two sparse
    products out.

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

    A trace unknown need not sit on a facet.  The init solve adds its
    gauge multipliers as trace unknowns shared by every element: they
    appear in every element's ``cols`` and border T, and the same scatter
    forms their rows, columns and corner of the Schur complement.

    A singular A_e or a failed trace factorization raises RuntimeError.
    """

    def __init__(self, local, from_trace, to_trace, trace, cols):
        nt = trace.shape[0]
        self.cols = cols
        self._local_inv = _invert_blocks(local)
        self._lift = self._local_inv @ from_trace          # A_e^-1 B_e
        self._restrict = to_trace @ self._local_inv        # C_e A_e^-1
        schur = trace - _block_rows(to_trace @ self._lift, cols, cols, (nt, nt))
        try:
            self.lu = splu(schur.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise RuntimeError(f"trace factorization failed: {err}") from None

    def solve(self, f, g):
        """Local and trace parts (x, t) of the solution for data (f, g)."""
        ne, n, _ = self._local_inv.shape
        f = f.reshape(ne, n)
        nt = self.lu.shape[0]
        t = self.lu.solve(g - np.bincount(
            self.cols.reshape(-1), minlength=nt,
            weights=np.einsum("eij,ej->ei", self._restrict, f).reshape(-1)))
        x = (np.einsum("eij,ej->ei", self._local_inv, f)
             - np.einsum("eij,ej->ei", self._lift, t[self.cols]))
        return x.reshape(-1), t

    def compose(self, lf, lg, kx, kt, rows, out_rows, shape):
        """CSR operators of the solve between a vector y and a linear
        output of its solution.

        Element e reads y at ``rows[e]``: its local data is
        Lf_e y[rows[e]], and it adds Lg_e y[rows[e]] to the trace data in
        the rows ``cols[e]``.  Its output, in the rows ``out_rows[e]``, is
        Kx_e x_e + Kt_e t[cols[e]].  A Lf of None is the identity, a Lg or
        Kt of None is zero, and ``shape`` is (output length, length of y).
        Returns (R, K, Kt'),

            R   = Lg - C A^-1 Lf          (trace x y)
            K   = Kx A^-1 Lf              (output x y)
            Kt' = Kt - Kx A^-1 B          (output x trace)

        each composed from the element blocks and scattered once, so that
        t = lu.solve(R y) and the output is K y + Kt' t.
        """
        nt, cols = self.lu.shape[0], self.cols
        # one operator at a time, so that only one set of blocks is alive
        local = self._local_inv if lf is None else self._local_inv @ lf    # A^-1 Lf
        out = _block_rows(kx @ local, out_rows, rows, shape)
        del local
        trace_data = -(self._restrict if lf is None else self._restrict @ lf)  # -C A^-1 Lf
        if lg is not None:
            trace_data += lg
        trace_data = _block_rows(trace_data, cols, rows, (nt, shape[1]))
        out_trace = -(kx @ self._lift)                                         # -Kx A^-1 B
        if kt is not None:
            out_trace += kt
        return trace_data, out, _block_rows(out_trace, out_rows, cols, (shape[0], nt))


class PhiRecovery:
    """Cached factorizations for recovering the height field from the flux.

    Eliminating the element-local block leaves a symmetric positive
    definite system on the trace dofs (the stabilization trace mass minus
    the condensed mixed coupling); its sparse LU ``schur`` is the witness
    that the recovery problem is well posed for the given stabilization.

    The height data of the recovery is linear in the flux w: -D_e^T w_e
    in the local rows of element e and F_e^T w_e in its trace rows, with
    D = div_pair, F = flux_pair and A the local blocks I + S_l.  One
    :meth:`CondensedSolver.compose` onto the height gives the trace data
    G and the height map p = Pw w + Pt p_hat of :meth:`recover`,

        G = F^T + C A^-1 D^T,    Pw = -A^-1 D^T,    Pt = -A^-1 B,

    with B, C the mixed couplings.  The condensed wave operator is its
    definition F p_hat - D p = Mw w + H p_hat, with Mw = -D Pw (block
    diagonal) and H = F - D Pt.  :meth:`apply` is then one gather, one
    trace LU solve, and one scatter plus a local term, and so is the
    transpose of the height map, :meth:`recover_transpose`, which
    carries a height functional back onto the flux (the bathymetry load).
    """

    def __init__(self, matrices):
        mats = matrices
        m = mats.spaces.scalar.dim_local
        mixed = mats.stab_mixed_blocks
        try:
            solver = CondensedSolver(
                mats.stab_local_blocks + np.eye(m), -mixed,
                -mixed.transpose(0, 2, 1), mats.stab_trace, mats.trace_cols)
        except RuntimeError as err:
            raise RuntimeError(f"recovery factorization failed: {err}") from None
        self.schur = solver.lu

        vdofs = mats.vdofs.reshape(len(mats.wdofs), -1)
        self._G, self._Pw, self._Pt = solver.compose(
            -mats.div_blocks.transpose(0, 2, 1), mats.flux_blocks.transpose(0, 2, 1),
            np.eye(m), None, vdofs, mats.wdofs, mats.div_pair.shape[::-1])
        self._Mw = -(mats.div_pair @ self._Pw)
        self._H = mats.flux_pair - mats.div_pair @ self._Pt

    def recover(self, w):
        """Height and trace coefficients induced by flux coefficients w."""
        phat = self.schur.solve(self._G @ w)
        return self._Pw @ w + self._Pt @ phat, phat

    def recover_transpose(self, b):
        """Transpose of the height map of :meth:`recover` applied to height
        coefficients b: Pw^T b + G^T S^-T Pt^T b, with S the trace Schur
        complement."""
        return self._Pw.T @ b + self._G.T @ self.schur.solve(self._Pt.T @ b, trans="T")

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
    tang_pen = _block_rows(((tdot ** 2)[..., None, None] * mats.facet_trace_mass)
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
    """Gauge multiplier columns of the init system, one per constraint.

    On periodic domains the init operator has constant flux fields in its
    kernel (one per periodic direction); every interior hole adds one
    circulation field.  All of them are invisible to the recovery and the
    dynamics.  Returns (local, trace): the parts of the r columns over
    each element's (sigma, phi, w) block, (ne, 4m, r), and over the
    (phi_hat, psi_hat) trace dofs, (n_trace, r).  A periodic direction
    pins the global mean of that flux component, spread over the local
    parts of every element, so any inconsistent data component is
    absorbed evenly.  A hole of :func:`~swehdg.mesh.hole_boundaries` pins
    the circulation of psi_hat around it, a trace part only: psi_hat
    multiplies the stored facet tangent, which runs one way round every
    boundary loop, and its integral over facet f is sqrt(len_f) times its
    first coefficient there, so the column is sqrt(len_f) at that
    coefficient of each hole facet.  Columns are normalized, periodic x
    and y first.
    """
    sc, tr = spaces.scalar, spaces.trace
    ne, m = mesh.num_elements, sc.dim_local
    axes = [axis for axis, active in ((0, mesh.periodic_x), (1, mesh.periodic_y))
            if active]
    holes = hole_boundaries(mesh)

    r = len(axes) + len(holes)
    local = np.zeros((ne, 4 * m, r))
    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab)
    for j, axis in enumerate(axes):
        local[:, (2 + axis) * m:(3 + axis) * m, j] = moments / np.linalg.norm(moments)
    trace = np.zeros((2 * tr.ndof, r))
    for j, facets in enumerate(holes, start=len(axes)):
        lengths = mesh.facet_lengths[facets]
        trace[tr.ndof + tr.owner_row[facets] * tr.dim_local, j] = np.sqrt(lengths / lengths.sum())
    return local, trace


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

    On topologically nontrivial domains the gauge multipliers of
    :func:`_gauge_constraints` are appended to the trace unknowns: each
    element couples to them through its local part of the constraint
    columns, and the trace block is bordered by their trace parts with a
    zero corner.  The residual is measured on the full, uncondensed
    bordered operator, applied block by block, and reported relative to
    max(1, |rhs|).  A singular local block or trace system raises
    RuntimeError("init solve factorization failed: ...").
    """
    if spaces.tangential is None:
        spaces.tangential = TangentialTraceSpace(mesh, spaces.k)
    mats = matrices if matrices is not None else assemble_all(mesh, spaces, params)

    sc, tr, tg = spaces.scalar, spaces.trace, spaces.tangential
    ne, m = mats.wdofs.shape
    nm = tr.ndof
    local, from_trace, trace, tcols = _init_blocks(mats, tg, params.alpha)
    n_trace = trace.shape[0]

    gauge_local, gauge_trace = _gauge_constraints(mesh, spaces)
    r = gauge_local.shape[2]
    from_trace = np.concatenate([from_trace, gauge_local], axis=2)
    tcols = np.concatenate([tcols, np.broadcast_to(n_trace + np.arange(r), (ne, r))], axis=1)
    trace = sparse.bmat([[trace, gauge_trace], [gauge_trace.T, None]], format="csr")
    try:
        solver = CondensedSolver(local, from_trace, from_trace.transpose(0, 2, 1),
                                 trace, tcols)
    except RuntimeError as err:
        raise RuntimeError(f"init solve factorization failed: {err}") from None

    rhs = np.zeros((ne, 4 * m))
    rhs[:, 2 * m:] = spaces.vector.project(f).coeffs.reshape(ne, 2 * m)
    x, t = solver.solve(rhs.reshape(-1), np.zeros(n_trace + r))

    # the uncondensed bordered operator, from the element blocks
    xe = x.reshape(ne, 4 * m)
    out_local = (np.einsum("eij,ej->ei", local, xe)
                 + np.einsum("eij,ej->ei", from_trace, t[tcols]))
    out_trace = trace @ t + np.bincount(
        tcols.reshape(-1), weights=np.einsum("eij,ei->ej", from_trace, xe).reshape(-1),
        minlength=n_trace + r)
    residual = (np.linalg.norm(np.concatenate([(out_local - rhs).reshape(-1), out_trace]))
                / max(1.0, np.linalg.norm(rhs)))

    lam = t[n_trace:]
    if lam.size and np.abs(lam).max() > 1e-8 * max(1.0, np.abs(rhs).max()):
        log.info("init solve: gauge multipliers %.3e absorb the harmonic part "
                 "of the data", np.abs(lam).max())

    return InitSolution(
        sigma=GridFunction(sc, xe[:, :m].reshape(-1)),
        phi=GridFunction(sc, xe[:, m:2 * m].reshape(-1)),
        w=GridFunction(spaces.vector, xe[:, 2 * m:].reshape(-1)),
        phi_hat=GridFunction(tr, t[:nm]),
        w_tangent=GridFunction(tg, t[nm:n_trace]),
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
        grad_phi0 = central_gradient(phi0, step)

    sol = solve_vector_laplacian(mesh, spaces, grad_phi0, params, matrices=matrices)
    u = spaces.vector.project(u0) if u0 is not None else GridFunction(spaces.vector)
    return InitState(u=u, w=sol.w, init=sol)
