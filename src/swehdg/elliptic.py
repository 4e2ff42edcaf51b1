"""Static condensation onto the trace dofs, potential recovery, the
condensed wave operator, and the stationary vector-Laplacian
initialization solve.

:func:`condense` is the hybridization kernel shared by every implicit
solve: element-local unknowns are eliminated block by block, and only
the remaining trace system is factored, by :func:`factor_trace` once the
call that condensed it has returned, so no element block is held through
a factorization.  The trace system is scattered in CSR, and SuperLU
factors its transpose over the same arrays: SuperLU's transposed solves
are the faster ones on its column-supernodal factor, and with the factor
of S^T they solve with S.  The recovery of the height from the flux is
its simplest instance (the local block is identity plus boundary
stabilization); the implicit stages of both schemes reuse it with larger
local blocks, and the init solve eliminates (rotation, height, flux) per
element onto the (height trace, tangential flux trace) system, with its
gauge multipliers as extra trace unknowns.  Every caller hands
:func:`condense` builders of its element blocks and maps, not the
arrays, so each array dies at its last read inside the call.

A solve that is repeated for data linear in one vector, and whose
caller reads a linear output of the solution, is precomposed by the
``compose`` maps of :func:`condense` into three sparse operators: the
height recovery, its transpose (the bathymetry load), the wave operator
and every implicit stage then run as one gather, one trace LU solve and
one scatter; the wave operator H S^-1 G + Mw holds H as G^T and
Mw = -D Pw, built at its first application.  The one-shot init solve
passes its data to :func:`condense` instead, which reduces it onto the
trace.  Since it solves its trace system once, it factors it in single
precision and refines the solve in double; it builds its element blocks
again for the back-substitution.  The recovery condenses at its first
use and is factored at its first trace solve, which an implicit run
without bathymetry never makes: the init solve gives its initial pair.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import _block_rows, _blocked, _element_columns, _held, _pairing, assemble_all
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


def condense(element_blocks, trace, cols, compose=None, rhs=None):
    """Condense a hybridized block system onto its trace dofs: returns the
    trace Schur complement as the CSR matrix :func:`factor_trace` takes,
    and the composed operators (R, K, Kt') of ``compose``, or the reduced
    trace data of ``rhs``, or None.

    The system couples n element-local unknowns per element (element by
    element, so local dof ``e * n + i``) with the trace unknowns t:

        A x + B t = f
        C x + T t = g

    A is block diagonal with blocks A_e (n x n); B and C couple element e
    only to the trace dofs ``cols[e]`` of its facets, through the blocks
    B_e (n x c) and C_e (c x n); T is sparse on the trace.
    ``element_blocks()`` returns the batched blocks (A_e, B_e, C_e), and
    condense owns them: it calls the builder once and drops each block
    after its last read, so the caller holds none of them.  No A_e is
    inverted or held: one batched LU solve of the transposed blocks
    A_e^T against C_e^T gives C_e A_e^-1, and the Schur complement
    T - sum_e C_e A_e^-1 B_e is scattered by
    :func:`~swehdg.assembly._block_rows` after T, its blocks negated in
    place, its duplicates summed and none of its zeros dropped.  Its CSR
    arrays are the CSC arrays of its transpose, the matrix SuperLU
    factors (see :func:`factor_trace`).  Every dense product is formed
    before the first scatter, and A_e, C_e, B_e and the maps are dropped
    after their last product, so no element block or map is alive while
    the Schur complement and the composed operators are scattered and
    converted, and none is alive after the call, before any
    factorization.  The Schur complement stores only its entries.

    A caller that solves the system many times for data that a fixed
    linear map of some vector y produces, and that reads only a fixed
    linear map of the solution, passes both maps as
    ``compose=(maps, rows, out_rows, shape)``, where ``maps()`` returns
    the batched blocks (Lf, Lg, Kx, Kt).  Element e reads y at
    ``rows[e]``: its local data is Lf_e y[rows[e]], and it adds
    Lg_e y[rows[e]] to the trace data in the rows ``cols[e]``.  Its
    output, in the rows ``out_rows[e]``, is Kx_e x_e + Kt_e t[cols[e]].
    A Lf of None is the identity, a Lg or Kt of None is zero, and
    ``shape`` is (output length, length of y).  The readout rows Kx_e
    join C_e in the same batched solve, and the composed operators, each
    scattered by :func:`~swehdg.assembly._pairing` and held in BSR or CSR
    as :func:`~swehdg.assembly._blocked` chooses, are

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

    A system solved once passes its local data f (ne, n) as ``rhs``
    instead, and gets back the reduced trace data -sum_e C_e A_e^-1 f_e:
    a vector over the trace unknowns, to which the caller adds g, formed
    from the C_e A_e^-1 of the same batched solve.  The caller then
    solves the trace system for t and back-substitutes
    x_e = A_e^-1 (f_e - B_e t[cols[e]]).

    A trace unknown need not sit on a facet.  The init solve adds its
    gauge multipliers as trace unknowns shared by every element: they
    appear in every element's ``cols`` and border T, and the same scatter
    forms their rows, columns and corner of the Schur complement.

    A singular A_e raises RuntimeError.
    """
    local, from_trace, readers = element_blocks()
    nt, c = trace.shape[0], readers.shape[1]
    if compose is not None:
        maps, rows, out_rows, shape = compose
        lf, lg, kx, kt = maps()
        readers = np.concatenate(
            [readers, np.broadcast_to(kx, (len(local), *kx.shape[-2:]))], axis=1)
        del kx
    # [C_e; Kx_e] A_e^-1, by one solve of the transposed blocks
    solved = _solve_blocks(local.transpose(0, 2, 1),
                           readers.transpose(0, 2, 1)).transpose(0, 2, 1)
    del local, readers
    restrict, readout = solved[:, :c], solved[:, c:]
    del solved
    out = None
    if compose is not None:
        # K, R and Kt' blocks; Lf and Lg die after their products
        out_blocks = readout if lf is None else readout @ lf
        trace_data = -(restrict if lf is None else restrict @ lf)
        del lf
        if lg is not None:
            trace_data += lg
        del lg
        out_trace = -(readout @ from_trace)
        if kt is not None:
            out_trace += kt
        del kt
    elif rhs is not None:
        out = -np.bincount(cols.reshape(-1), minlength=nt, weights=np.einsum(
            "eci,ei->ec", restrict, rhs).reshape(-1))
    del readout
    # T - sum_e C_e A_e^-1 B_e, its duplicates summed and no zero dropped
    coupling = restrict @ from_trace
    del restrict, from_trace
    if compose is not None:
        # a K block that is the solve itself keeps it alive until scattered
        K = _composed(out_blocks, out_rows, rows, shape)
        del out_blocks
        R = _composed(trace_data, cols, rows, (nt, shape[1]))
        del trace_data
        out = R, K, _composed(out_trace, out_rows, cols, (shape[0], nt))
        del out_trace
    schur = _block_rows(np.negative(coupling, out=coupling), cols, cols, (nt, nt), head=trace)
    del coupling
    schur.sum_duplicates()
    return _held(schur), out


def _composed(blocks, rows, cols, shape):
    """The composed operator of its element ``blocks`` at ``rows`` x
    ``cols``, scattered by :func:`~swehdg.assembly._pairing` and held in
    the format :func:`~swehdg.assembly._blocked` chooses, so no CSR copy
    outlives the call."""
    return _blocked(_pairing(blocks, rows, cols, shape), rows, cols)


class TraceFactor:
    """Sparse LU of a trace Schur complement S, held as SuperLU's factor
    of S^T: ``solve(b)`` is S^-1 b, by SuperLU's transposed solve, and
    ``solve(b, trans="T")`` is S^-T b, by its forward solve.  ``L`` and
    ``U`` are the triangular factors of S that the factor of S^T gives
    (U^T and L^T), and ``shape`` is that of S."""

    _SWAP = {"N": "T", "T": "N"}

    def __init__(self, lu):
        self._lu = lu
        self.shape = lu.shape

    @property
    def L(self):
        return self._lu.U.T

    @property
    def U(self):
        return self._lu.L.T

    def solve(self, b, trans="N"):
        return self._lu.solve(b, trans=self._SWAP[trans])


def factor_trace(schur):
    """Sparse LU of a CSR trace Schur complement from :func:`condense`, as
    a :class:`TraceFactor`.

    The CSR arrays of S are the CSC arrays of S^T, so SuperLU factors
    S^T (``schur.T``, a CSC view of them) with no copy, and every solve
    with S runs as SuperLU's transposed solve.  SuperLU stores its
    factor in column supernodes, and its transposed triangular solves
    run faster than its forward ones at the same fill.  Measured on a
    2-core Intel Xeon with scipy 1.17, one solve with S took 1.10 ms
    against 1.69-1.74 ms on the level-5, k = 2 recovery (9,408
    unknowns), 0.64 ms against 0.97-1.09 ms on the level-5, k = 1
    midpoint stage (6,272), and 0.48 ms against 0.71 ms on the rotating
    midpoint stage of the holed periodic box (3,576), with the fill
    within 16 entries of the factor of S.

    Every trace Schur complement built here is structurally symmetric,
    and several are indefinite (the init system, the stages), so the
    factor orders the columns by minimum degree on A^T + A and runs
    SuperLU in symmetric mode: pivots stay on the diagonal unless one
    falls below 0.1 times the largest entry of its column (of S^T: its
    row of S).  Both settings are needed.  The minimum-degree ordering
    alone, under partial pivoting, raises the fill of the indefinite
    init systems above COLAMD's, because off-diagonal pivots break the
    symmetric elimination order it was chosen for.  Pure diagonal
    pivoting (threshold 0) breaks down on them: the standing-wave init
    solve at level 5, k = 1 then has a relative residual above 1.  With
    both, the fill is about half of COLAMD's or less on every system.
    A^T + A, and so the ordering, is the same for S and S^T.

    The factor keeps the dtype of ``schur``, and its solves take
    right-hand sides of that dtype.  Every repeated solve factors in
    double; the one-shot init solve factors a float32 copy and refines
    in double (:func:`_refined_solve`).

    A failed factorization raises RuntimeError("trace factorization
    failed: ...").
    """
    try:
        return TraceFactor(splu(schur.T, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.1, options=dict(SymmetricMode=True)))
    except RuntimeError as err:
        raise RuntimeError(f"trace factorization failed: {err}") from None


class PhiRecovery:
    """Recovery of the height field from the flux, condensed at its first
    use and factored at its first trace solve.

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
    diagonal) and H = F - D Pt.  Since A is symmetric and C = B^T,
    H = G^T.  H is stored as the transpose of the held G, so the operator
    H S^-1 G + Mw that the explicit steppers apply is symmetric by
    construction (F - D Pt differs from G^T by rounding, 1.5e-14
    relative at level 5, k = 3).  G, Pw, Pt and Mw are held in the
    format :func:`~swehdg.assembly._blocked` chooses for them (BSR at
    k >= 2 on the uniform meshes), and H in G's.
    :meth:`apply` is then one gather, one trace LU solve, and one
    scatter plus a local term, and so is the transpose of the height
    map, :meth:`recover_transpose`, which carries a height functional
    back onto the flux (the bathymetry load).

    Only what a run reads is built, each piece at its first read.  The
    first :meth:`recover`, :meth:`factor`, :meth:`apply` or
    :meth:`recover_transpose` condenses (G, Pw, Pt and the trace Schur
    complement in CSR), the first trace solve factors it and drops the
    CSR matrix (``schur`` is None until then), and the first
    :meth:`apply` forms H and Mw, the one read of D;
    :meth:`prepare_apply` does all three, for a stepper that applies the
    operator every step.  A failure
    raises RuntimeError("recovery factorization failed: ...") where it
    happens; the condensation fails only on hand-made matrices, since
    I + S_l is positive definite for tau > 0.

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
        self._mats = matrices
        self._G = self._Pw = self._Pt = self._trace_matrix = None
        self.schur = None
        self._wave = None
        self._known = None
        if known is not None:
            self._store(known[0], np.array(known[1], dtype=float))

    def _condense(self):
        """G, Pw, Pt and the trace Schur complement in CSR, condensed at
        the first call."""
        if self._G is not None:
            return
        mats, m = self._mats, self._mats.spaces.scalar.dim_local

        def blocks():
            coupling = -mats.stab_mixed_blocks
            return mats.stab_local_blocks + np.eye(m), coupling, coupling.transpose(0, 2, 1)

        def maps():
            return (-mats.div_blocks.transpose(0, 2, 1), mats.flux_blocks.transpose(0, 2, 1),
                    np.eye(m), None)

        try:
            self._trace_matrix, (self._G, self._Pw, self._Pt) = condense(
                blocks, mats.stab_trace, mats.trace_cols,
                compose=(maps, mats.vdofs.reshape(len(mats.wdofs), -1), mats.wdofs,
                         (mats.wdofs.size, mats.vdofs.size)))
        except RuntimeError as err:
            raise RuntimeError(f"recovery factorization failed: {err}") from None

    def factor(self):
        """The trace factor ``schur``, condensed and factored at the first
        call."""
        if self.schur is None:
            self._condense()
            try:
                self.schur = factor_trace(self._trace_matrix)
            except RuntimeError as err:
                raise RuntimeError(f"recovery factorization failed: {err}") from None
            self._trace_matrix = None
        return self.schur

    def prepare_apply(self):
        """(H, Mw) of :meth:`apply`, with the recovery factored; both are
        built at the first call.  H is G^T in G's format: transposing
        swaps the block shape and keeps the share of nonzero entries, so
        :func:`~swehdg.assembly._blocked` would choose that format for it
        too, and a BSR's transpose is a BSR with transposed blocks."""
        self.factor()
        if self._wave is None:
            mats, G = self._mats, self._G
            rows = mats.vdofs.reshape(len(mats.wdofs), -1)
            self._wave = (G.T.asformat(G.format),
                          _blocked(-(mats.div_pair @ self._Pw), rows, rows))
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
        self._condense()
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
        lu = self.factor()
        return self._Pw.T @ b + self._G.T @ lu.solve(self._Pt.T @ b, trans="T")

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


# the most corrections that refine the single-precision init solve
_INIT_REFINEMENTS = 10


def _refined_solve(schur, b):
    """Solution of schur t = b by a single-precision factor of the CSR
    ``schur``, refined in double (Moler, J. ACM 14, 1967; Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 12).

    The factor is taken of a float32 copy of the values that shares the
    double matrix's ``indices`` and ``indptr``; the factor's values take
    half the bytes of a double factor's.  Each correction solves for the double
    residual b - schur t, scaled to unit maximum so that float32 neither
    overflows nor underflows on it, and is kept while it lowers the
    residual.  Refinement stops once a correction fails to halve it, or
    after ``_INIT_REFINEMENTS`` corrections.  A failed factorization
    raises RuntimeError.
    """
    lu = factor_trace(sparse.csr_matrix(
        (schur.data.astype(np.float32), schur.indices, schur.indptr), shape=schur.shape))

    def solve(r):
        scale = np.abs(r).max()
        if scale == 0.0:
            return np.zeros_like(r)
        return scale * lu.solve((r / scale).astype(np.float32)).astype(float)

    t = solve(b)
    r = b - schur @ t
    norm = np.linalg.norm(r)
    for _ in range(_INIT_REFINEMENTS):
        step = t + solve(r)
        step_r = b - schur @ step
        step_norm = np.linalg.norm(step_r)
        if step_norm < norm:
            t, r = step, step_r
        if not step_norm <= 0.5 * norm:
            break
        norm = step_norm
    return t


def _solve_once(element_blocks, trace, cols, f, g):
    """Solution (x, t) of the system of :func:`condense` for local data f
    (ne, n) and trace data g, with x as (ne, n), and its residual.

    ``element_blocks()`` returns (local, from_trace, to_trace).  It is
    called twice, so that no element block is alive while the trace
    system is factored: :func:`condense` makes the first call and drops
    those blocks as it goes, while it reduces f onto the trace, and the
    blocks of the second back-substitute x_e = A_e^-1 (f_e - B_e t[cols[e]]) by one
    batched solve, once the factor is freed.  The system is solved once,
    so its trace system is factored in single precision and the solve
    refined in double against the double Schur complement
    (:func:`_refined_solve`): a refinement step costs one more trace
    solve, which a repeated solve would pay every time.  The residual is
    measured on the full, uncondensed operator, applied block by block,
    relative to max(1, |(f, g)|).  A singular A_e or a failed trace
    factorization raises RuntimeError.
    """
    schur, reduced = condense(element_blocks, trace, cols, rhs=f)
    t = _refined_solve(schur, g + reduced)
    del schur

    local, from_trace, to_trace = element_blocks()
    coupled = np.einsum("eij,ej->ei", from_trace, t[cols])
    x = _solve_blocks(local, (f - coupled)[..., None])[..., 0]
    out_local = np.einsum("eij,ej->ei", local, x) + coupled - f
    out_trace = trace @ t - g + np.bincount(
        cols.reshape(-1), weights=np.einsum("eij,ej->ei", to_trace, x).reshape(-1),
        minlength=t.size)
    residual = (np.linalg.norm(np.concatenate([out_local.reshape(-1), out_trace]))
                / max(1.0, np.linalg.norm(np.concatenate([f.reshape(-1), g]))))
    return x, t, float(residual)


def _tangent_signs(mats, tangential):
    """(nperp, tdot) per element edge: the outward normal rotated by -90
    degrees, and its dot product with the stored facet tangent."""
    nk = mats.normals_signed
    nperp = np.stack([nk[..., 1], -nk[..., 0]], axis=-1)     # outward n rotated by -90
    return nperp, np.einsum("efd,efd->ef", tangential.tangent[mats.mesh.element_facets], nperp)


def _init_blocks(mats, tangential, alpha, gauge=None):
    """Element blocks (local, from_trace) of the init system, built from
    the shared facet tensors: the local blocks A_e over (sigma_e, phi_e,
    w_e) and the couplings B_e = C_e^T of each element to the (phi_hat,
    psi_hat) dofs of its facets, in the order of :func:`_init_trace`,
    then to the gauge multipliers: ``gauge`` (ne, 4m, r) holds the local
    parts of their columns, written into the last r columns of B_e.
    """
    ne, m = mats.wdofs.shape
    ainv = 1.0 / alpha

    # (z_k, curl phi_i) over elements; curl phi = (dphi/dy, -dphi/dx)
    curl = np.concatenate([mats.vol_dy.transpose(0, 2, 1),
                           -mats.vol_dx.transpose(0, 2, 1)], axis=1)
    div = mats.div_blocks

    nperp, tdot = _tangent_signs(mats, tangential)
    wt = mats.facet_tensor
    tang_pair = _element_columns(tdot[..., None, None] * wt)
    tang_flux = _element_columns(tdot[..., None, None] * np.concatenate(
        [nperp[..., 0, None, None] * wt, nperp[..., 1, None, None] * wt], axis=2))

    # tangential boundary penalty of the flux
    norm_pen = np.einsum("efa,efb,efij->eaibj", nperp, nperp,
                         mats.facet_elem_mass).reshape(ne, 2 * m, 2 * m)
    norm_pen = 0.5 * (norm_pen + norm_pen.transpose(0, 2, 1))

    local = np.zeros((ne, 4 * m, 4 * m))
    local[:, :m, :m] = -np.eye(m)
    local[:, :m, 2 * m:] = curl.transpose(0, 2, 1)
    local[:, m:2 * m, m:2 * m] = -(mats.stab_local_blocks + np.eye(m))
    local[:, m:2 * m, 2 * m:] = -div.transpose(0, 2, 1)
    local[:, 2 * m:, :m] = curl
    local[:, 2 * m:, m:2 * m] = -div
    local[:, 2 * m:, 2 * m:] = ainv * norm_pen

    nc = tang_pair.shape[2]
    r = 0 if gauge is None else gauge.shape[2]
    from_trace = np.zeros((ne, 4 * m, 2 * nc + r))
    from_trace[:, :m, nc:2 * nc] = -tang_pair
    from_trace[:, m:2 * m, :nc] = mats.stab_mixed_blocks
    from_trace[:, 2 * m:, :nc] = mats.flux_blocks
    from_trace[:, 2 * m:, nc:2 * nc] = -ainv * tang_flux
    if r:
        from_trace[:, :, 2 * nc:] = gauge
    return local, from_trace


def _init_trace(mats, tangential, alpha):
    """Trace block and columns (trace, cols) of the init system: the block
    diag(-S_t, Z / alpha) over (phi_hat, psi_hat), with Z the tangential
    boundary penalty of the flux trace, and the (phi_hat, psi_hat) dofs
    ``cols[e]`` of each element's facets."""
    ne = mats.wdofs.shape[0]
    nm = mats.stab_trace.shape[0]
    md = mats.mdofs.shape[1]
    cols_m = mats.mdofs[mats.mesh.element_facets].reshape(3 * ne, md)
    tdot = _tangent_signs(mats, tangential)[1]
    tang_pen = _pairing(((tdot ** 2)[..., None, None] * mats.facet_trace_mass)
                        .reshape(3 * ne, md, md), cols_m, cols_m, (nm, nm))
    trace = sparse.block_diag([-mats.stab_trace, (1.0 / alpha) * tang_pen], format="csr")
    return trace, np.concatenate([mats.trace_cols, nm + mats.trace_cols], axis=1)


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
    solved by static condensation (:func:`_solve_once`): per element the
    local unknowns (sigma, phi, w) are eliminated through

        A_e = [[-I,      0,              curl_e^T],
               [ 0,      -(I + S_l,e),   -D_e^T  ],
               [ curl_e, -D_e,           N_e / alpha]]

    and only the (phi_hat, psi_hat) trace system is factored, once the
    element blocks of the condensation have died; they are built again
    for the back-substitution.  Every A_e is invertible: its (sigma, phi)
    part is negative definite, and the Schur complement left on w,
    N_e / alpha + curl_e curl_e^T + D_e (I + S_l,e)^-1 D_e^T, is positive
    definite.  It is a sum of semidefinite terms, and a w in the kernel
    of all three has zero tangential trace on the element boundary (the
    tangential boundary penalty N_e), zero divergence (D_e) and then,
    integrating the curl pairing by parts, zero rotation (curl_e): the
    gradient of a harmonic polynomial that is constant on the boundary,
    so w = 0.

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
    trace, tcols = _init_trace(mats, tg, params.alpha)
    n_trace = trace.shape[0]

    gauge_local, gauge_trace = _gauge_constraints(mesh, spaces)
    r = gauge_local.shape[2]
    tcols = np.concatenate([tcols, np.broadcast_to(n_trace + np.arange(r), (ne, r))], axis=1)
    trace = sparse.bmat([[trace, gauge_trace], [gauge_trace.T, None]], format="csr")
    rhs = np.zeros((ne, 4 * m))
    rhs[:, 2 * m:] = spaces.vector.project(f).coeffs.reshape(ne, 2 * m)

    def element_blocks():
        local, from_trace = _init_blocks(mats, tg, params.alpha, gauge_local)
        return local, from_trace, from_trace.transpose(0, 2, 1)

    try:
        xe, t, residual = _solve_once(element_blocks, trace, tcols, rhs, np.zeros(n_trace + r))
    except RuntimeError as err:
        raise RuntimeError(f"init solve factorization failed: {err}") from None

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
        residual=residual,
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
