"""Static condensation onto the trace dofs, potential recovery, the
condensed wave operator, and the stationary vector-Laplacian
initialization solve.

:func:`condense` is the hybridization kernel shared by every implicit
solve: element-local unknowns are eliminated block by block, and only
the remaining trace system is factored, by :func:`factor_trace` once
the call that condensed it has returned, so no element block is held
through a factorization.  The recovery of the height from the flux is
its simplest instance (the local block is identity plus boundary
stabilization); the implicit stages of both schemes reuse it with larger
local blocks, and the init solve (:class:`CondensedSolver`, which keeps
its blocks for the back-substitution) eliminates (rotation, height,
flux) per element onto the (height trace, tangential flux trace)
system, with its gauge multipliers as extra trace unknowns.

A solve that is repeated for data linear in one vector, and whose
caller reads a linear output of the solution, is precomposed by the
``compose`` maps of :func:`condense` into three sparse operators: the
height recovery, its transpose (the bathymetry load), the wave operator
and every implicit stage then run as one gather, one trace LU solve and
one scatter; the wave operator F p_hat - D p is formed from the height
map of the recovery's one composition, at its first application.
:meth:`CondensedSolver.solve` is left to the one-shot init solve.  The
recovery is factored at its first trace solve, which an implicit run
without bathymetry never makes: the init solve gives its initial pair.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _block_rows, _element_columns, assemble_all
from .fespace import GridFunction, TangentialTraceSpace
from .mesh import hole_boundaries

log = logging.getLogger(__name__)


def _solve_blocks(local, rhs):
    """A_e^-1 rhs_e for every element, by one batched LU solve of the
    (ne, n, n) blocks against the (ne, n, p) right-hand sides; a singular
    block raises RuntimeError naming the first offending element."""
    try:
        out = np.linalg.solve(local, rhs)
    except np.linalg.LinAlgError:
        out = None
    if out is None or not np.isfinite(out).all():
        sv = np.linalg.svd(local, compute_uv=False)
        n = local.shape[-1]
        bad = np.flatnonzero(~(sv[:, -1] > n * np.finfo(float).eps * sv[:, 0]))
        first = int(bad[0]) if bad.size else int(np.argmin(sv[:, -1] / sv[:, 0]))
        raise RuntimeError(f"local block of element {first} is singular")
    return out


def condense(local, from_trace, to_trace, trace, cols, compose=None):
    """Condense a hybridized block system onto its trace dofs: returns the
    trace Schur complement as the CSC matrix :func:`factor_trace` takes,
    and the composed operators (R, K, Kt') of ``compose`` (None without).

    The system couples n element-local unknowns per element (element by
    element, so local dof ``e * n + i``) with the trace unknowns t:

        A x + B t = f
        C x + T t = g

    A is block diagonal with blocks A_e (n x n); B and C couple element e
    only to the trace dofs ``cols[e]`` of its facets, through the blocks
    B_e (n x c) and C_e (c x n); T is sparse on the trace.  No A_e is
    inverted or held: one batched LU solve of the transposed blocks A_e^T
    against C_e^T gives C_e A_e^-1, the Schur complement
    T - sum_e C_e A_e^-1 B_e is scattered straight into CSC, and no dense
    block product outlives the scatter.  Nothing returned refers to the
    blocks, so they die with the call, before any factorization.

    A caller that solves the system many times for data that a fixed
    linear map of some vector y produces, and that reads only a fixed
    linear map of the solution, passes both maps as
    ``compose=(Lf, Lg, Kx, Kt, rows, out_rows, shape)``.  Element e reads
    y at ``rows[e]``: its local data is Lf_e y[rows[e]], and it adds
    Lg_e y[rows[e]] to the trace data in the rows ``cols[e]``.  Its
    output, in the rows ``out_rows[e]``, is Kx_e x_e + Kt_e t[cols[e]].
    A Lf of None is the identity, a Lg or Kt of None is zero, and
    ``shape`` is (output length, length of y).  The readout rows Kx_e
    join C_e in the same batched solve, and the composed CSR operators
    are

        R   = Lg - C A^-1 Lf          (trace x y)
        K   = Kx A^-1 Lf              (output x y)
        Kt' = Kt - Kx A^-1 B          (output x trace)

    each scattered once, so that t = lu.solve(R y) and the output is
    K y + Kt' t: one sparse product into the trace rows, the trace LU
    solve and two sparse products out.  Solving with A_e^T for the rows
    that read the solution takes c + (output rows) right-hand sides, no
    more than the columns of [Lf_e | B_e] in every stage and recovery
    here, and one solve per build costs less than two: the batched LU
    of each block is a large share of a solve.

    A trace unknown need not sit on a facet.  The init solve adds its
    gauge multipliers as trace unknowns shared by every element: they
    appear in every element's ``cols`` and border T, and the same scatter
    forms their rows, columns and corner of the Schur complement.

    A singular A_e raises RuntimeError.
    """
    nt, c = trace.shape[0], to_trace.shape[1]
    readers = to_trace
    if compose is not None:
        kx = compose[2]
        readers = np.concatenate(
            [to_trace, np.broadcast_to(kx, (len(local), *kx.shape[-2:]))], axis=1)
    # [C_e; Kx_e] A_e^-1, by one solve of the transposed blocks
    solved = _solve_blocks(local.transpose(0, 2, 1),
                           readers.transpose(0, 2, 1)).transpose(0, 2, 1)
    del readers
    composed = None
    if compose is not None:
        composed = _compose(solved[:, :c], solved[:, c:], from_trace, cols, nt, compose)
    # T - sum_e C_e A_e^-1 B_e, scattered straight into CSC: a column
    # holds T's entries, then those of the blocks' columns in element
    # order, so the duplicates are summed and no zero is dropped
    coupling = from_trace.transpose(0, 2, 1) @ solved[:, :c].transpose(0, 2, 1)
    del solved
    trace, flat = trace.tocsc(), cols.reshape(-1)
    before = c * np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=nt))])
    indptr = trace.indptr + before
    data, rows = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=trace.indices.dtype)
    at = np.arange(trace.nnz) + np.repeat(before[:-1], np.diff(trace.indptr))
    data[at], rows[at] = trace.data, trace.indices
    # the q-th block column in column order follows the T entries of its
    # column and the q block columns before it
    order = np.argsort(flat, kind="stable")
    at = np.empty_like(flat)
    at[order] = trace.indptr[1:][flat[order]] + c * np.arange(flat.size)
    at = at.reshape(-1, c)
    for i in range(c):
        data[at + i], rows[at + i] = -coupling[:, :, i], cols[:, i, None]
    del coupling
    schur = sparse.csc_matrix((data, rows, indptr), shape=(nt, nt))
    schur.sum_duplicates()
    return schur, composed


def _compose(restrict, readout, from_trace, cols, nt, compose):
    """(R, K, Kt') of the ``compose`` maps, from the blocks C A^-1
    (``restrict``) and Kx A^-1 (``readout``) over ``nt`` trace unknowns."""
    lf, lg, _, kt, rows, out_rows, shape = compose
    out = _held(_block_rows(readout if lf is None else readout @ lf, out_rows, rows, shape))
    trace_data = -(restrict if lf is None else restrict @ lf)
    if lg is not None:
        trace_data += lg
    trace_data = _held(_block_rows(trace_data, cols, rows, (nt, shape[1])))
    out_trace = -(readout @ from_trace)
    if kt is not None:
        out_trace += kt
    return trace_data, out, _held(_block_rows(out_trace, out_rows, cols, (shape[0], nt)))


def _held(matrix):
    """``matrix`` storing no more than its entries.  A block scatter that
    dropped zeros may keep views of its full arrays, and a composed
    operator is held for a whole run."""
    if matrix.data.base is not None and matrix.data.base.size > matrix.nnz:
        matrix.data, matrix.indices = matrix.data.copy(), matrix.indices.copy()
    return matrix


def factor_trace(schur):
    """Sparse LU of a trace Schur complement from :func:`condense`.

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

    A failed factorization raises RuntimeError("trace factorization
    failed: ...").
    """
    try:
        return splu(schur, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    except RuntimeError as err:
        raise RuntimeError(f"trace factorization failed: {err}") from None


class CondensedSolver:
    """Direct solver of a hybridized block system for the one-shot init
    solve: :func:`condense` onto the trace, then :func:`factor_trace`.

    The solver keeps references to the caller's blocks, because
    :meth:`solve` reads them: it costs two one-column batched solves, a
    gather and a scatter around one trace LU solve.  The repeated solves
    (the recovery, the stages) are composed by :func:`condense` instead
    and factor after its blocks have died.  A singular A_e or a failed
    trace factorization raises RuntimeError.
    """

    def __init__(self, local, from_trace, to_trace, trace, cols):
        self.cols = cols
        self._local, self._from_trace, self._to_trace = local, from_trace, to_trace
        self.lu = factor_trace(condense(local, from_trace, to_trace, trace, cols)[0])

    def solve(self, f, g):
        """Local and trace parts (x, t) of the solution for data (f, g)."""
        ne, n, _ = self._local.shape
        f = f.reshape(ne, n, 1)
        nt = self.lu.shape[0]
        t = self.lu.solve(g - np.bincount(
            self.cols.reshape(-1), minlength=nt,
            weights=(self._to_trace @ _solve_blocks(self._local, f)).reshape(-1)))
        x = _solve_blocks(self._local, f - self._from_trace @ t[self.cols][..., None])
        return x.reshape(-1), t


class PhiRecovery:
    """Recovery of the height field from the flux, condensed at build and
    factored at its first trace solve.

    Eliminating the element-local block leaves a symmetric positive
    definite system on the trace dofs (the stabilization trace mass minus
    the condensed mixed coupling); its sparse LU ``schur`` is the witness
    that the recovery problem is well posed for the given stabilization.

    The height data of the recovery is linear in the flux w: -D_e^T w_e
    in the local rows of element e and F_e^T w_e in its trace rows, with
    D = div_pair, F = flux_pair and A the local blocks I + S_l.  One
    composition onto the height (the ``compose`` maps of
    :func:`condense`) gives the trace data G and the height map
    p = Pw w + Pt p_hat of :meth:`recover`,

        G = F^T + C A^-1 D^T,    Pw = -A^-1 D^T,    Pt = -A^-1 B,

    with B, C the mixed couplings.  The condensed wave operator is its
    definition F p_hat - D p = Mw w + H p_hat, with Mw = -D Pw (block
    diagonal) and H = F - D Pt.  :meth:`apply` is then one gather, one
    trace LU solve, and one scatter plus a local term, and so is the
    transpose of the height map, :meth:`recover_transpose`, which
    carries a height functional back onto the flux (the bathymetry load).

    Only what a run reads is built.  The build condenses: it keeps G, Pw,
    Pt and the trace Schur complement in CSC, and ``schur`` is None.  The
    first trace solve (:meth:`recover` of an unknown flux, :meth:`apply`
    or :meth:`recover_transpose`) factors it and drops the CSC, and the
    first :meth:`apply` builds H and Mw; :meth:`prepare_apply` does both
    at once, for a stepper that applies the operator every step.  A
    failed factorization raises RuntimeError("recovery factorization
    failed: ...") there.

    The recovery keeps the last pair (w, p_hat(w)) it knows: a copy of w
    and a read-only p_hat, since :meth:`recover` hands that array out.
    The caller may seed it with a pair it knows (``known``, copied): the
    init solve of the flux scheme contains the recovery equations at its
    flux w0, so its height trace is p_hat(w0).  :meth:`recover` and
    :meth:`apply` store the pair of every trace solve they make, and
    :meth:`recover` of the stored flux returns the stored p_hat without a
    solve.  A stepper carries the pair across its substeps through
    :meth:`carry`: an implicit midpoint substep from w to w' solves the
    recovery equations at its midpoint flux (w + w') / 2, and by
    linearity p_hat(w') = 2 t - p_hat(w), with t its trace solution.  So
    a seeded run records its initial flux without a trace solve, the
    record after an implicit flux step, or after an explicit one that
    ends on a kick (seprk1, seprk3), makes none either, and an implicit
    run without bathymetry never factors the recovery; any other flux is
    solved afresh.
    """

    def __init__(self, matrices, known=None):
        mats = matrices
        m = mats.spaces.scalar.dim_local
        coupling = -mats.stab_mixed_blocks
        vdofs = mats.vdofs.reshape(len(mats.wdofs), -1)
        try:
            self._csc, (self._G, self._Pw, self._Pt) = condense(
                mats.stab_local_blocks + np.eye(m), coupling, coupling.transpose(0, 2, 1),
                mats.stab_trace, mats.trace_cols,
                compose=(-mats.div_blocks.transpose(0, 2, 1), mats.flux_blocks.transpose(0, 2, 1),
                         np.eye(m), None, vdofs, mats.wdofs, mats.div_pair.shape[::-1]))
        except RuntimeError as err:
            raise RuntimeError(f"recovery factorization failed: {err}") from None
        self._div_pair, self._flux_pair = mats.div_pair, mats.flux_pair
        self.schur = None
        self._wave = None
        self._known = None
        if known is not None:
            self._store(known[0], np.array(known[1], dtype=float))

    def factor(self):
        """The trace factor ``schur``, factored at the first call."""
        if self.schur is None:
            try:
                self.schur = factor_trace(self._csc)
            except RuntimeError as err:
                raise RuntimeError(f"recovery factorization failed: {err}") from None
            self._csc = None
        return self.schur

    def prepare_apply(self):
        """(H, Mw) of :meth:`apply`, with the recovery factored; both are
        built at the first call."""
        self.factor()
        if self._wave is None:
            self._wave = (self._flux_pair - self._div_pair @ self._Pt,
                          -(self._div_pair @ self._Pw))
        return self._wave

    def _store(self, w, phat):
        phat.flags.writeable = False
        self._known = (np.array(w, dtype=float), phat)

    def _known_trace(self, w):
        """The stored p_hat if w is the stored flux, else None."""
        known = self._known
        if known is not None and np.array_equal(known[0], w):
            return known[1]
        return None

    def _solve(self, w):
        """p_hat(w) by one trace solve, stored as the known pair."""
        phat = self.factor().solve(self._G @ w)
        self._store(w, phat)
        return phat

    def recover(self, w):
        """Height and trace coefficients induced by flux coefficients w;
        the trace part is read-only."""
        phat = self._known_trace(w)
        if phat is None:
            phat = self._solve(w)
        return self._Pw @ w + self._Pt @ phat, phat

    def carry(self, w, w_next, t):
        """Store p_hat(w_next) = 2 t - p_hat(w) when p_hat(w) is known: t
        is the trace solution of the implicit midpoint substep from w to
        w_next, p_hat at its midpoint flux.  Otherwise do nothing."""
        phat = self._known_trace(w)
        if phat is not None:
            self._store(w_next, 2.0 * t - phat)

    def recover_transpose(self, b):
        """Transpose of the height map of :meth:`recover` applied to height
        coefficients b: Pw^T b + G^T S^-T Pt^T b, with S the trace Schur
        complement."""
        return self._Pw.T @ b + self._G.T @ self.factor().solve(self._Pt.T @ b, trans="T")

    def apply(self, w):
        """Action of the condensed wave operator on flux coefficients."""
        H, Mw = self.prepare_apply()
        return H @ self._solve(w) + Mw @ w


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
    gradient ``grad_phi0`` of the height profile, u by L2 projection.

    Without a gradient the surface is flat (w = 0); a height profile
    ``phi0`` given without its gradient is refused (ValueError).
    """
    if grad_phi0 is None:
        if phi0 is not None:
            raise ValueError("initialize_state needs grad_phi0, the gradient of the "
                             "height profile phi0")

        def grad_phi0(x, y):
            return np.zeros_like(x, dtype=float), np.zeros_like(y, dtype=float)

    sol = solve_vector_laplacian(mesh, spaces, grad_phi0, params, matrices=matrices)
    u = spaces.vector.project(u0) if u0 is not None else GridFunction(spaces.vector)
    return InitState(u=u, w=sol.w, init=sol)
