"""Sparse operators of the semidiscrete HDG system.

With elementwise orthonormal bases every mass matrix is an identity, so
the assembled blocks act directly on coefficient vectors.  Facet
couplings are built from one tensor per element edge (element basis
against trace basis), which keeps the recovery, time stepping, and init
paths structurally consistent.  Every sparse operator, here and in the
condensed solves, is scattered from batched element blocks by one
function, :func:`_block_rows`, and every operator composed around a
condensed solve is held in the format :func:`_blocked` chooses.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse


@dataclass
class PhysicalParams:
    """Physical and stabilization constants of the linearized model.

    Attributes
    ----------
    phi : float
        Mean geopotential, positive.
    f0, beta, y_mid : float
        Coriolis law f(x, y) = f0 + beta (y - y_mid).
    tau : float
        HDG stabilization, positive.
    alpha : float
        Stabilization of the stationary init solve, positive.
    """

    phi: float = 1.0
    f0: float = 0.0
    beta: float = 0.0
    y_mid: float = 0.0
    tau: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.phi <= 0.0:
            raise ValueError("mean geopotential phi must be positive")
        if self.tau <= 0.0:
            raise ValueError("stabilization tau must be positive")
        if self.alpha <= 0.0:
            raise ValueError("stabilization alpha must be positive")

    def coriolis(self, x, y):
        return self.f0 + self.beta * (y - self.y_mid)

    @property
    def rotating(self):
        return self.f0 != 0.0 or self.beta != 0.0


@dataclass
class SystemMatrices:
    """Assembled coupling blocks plus the batched local data they came from.

    Sparse blocks (canonical CSR without stored zeros, storing only their
    entries), named by the pairing they represent and scattered from the
    element blocks below:

    - ``div_pair``     (vector x scalar): (phi_i, div z_k) over elements
    - ``stab_local``   (scalar x scalar): <tau phi_j, phi_i> over element boundaries
    - ``stab_mixed``   (scalar x trace): <tau eta_m, phi_i>
    - ``stab_trace``   (trace x trace): <tau eta_n, eta_m>
    - ``coriolis``     (vector x vector): (f z_l-perp, z_k), antisymmetric

    :func:`assemble_all` scatters ``stab_trace``, which the init solve
    reads.  The other four are scattered at their first read and kept
    from then on (each is an attribute of the instance once built), so
    a run holds only the pairings it reads: the init solve reads none of
    them, and a convergence sweep never reads ``stab_local`` or
    ``stab_mixed``.

    The batched arrays keep the per-element facet tensors and local
    masses, and the properties rebuild from them the element blocks of
    every sparse coupling, so solvers can build element-local Schur
    complements without touching the global sparse structure.  The flux
    pairing F, <eta_m, z_k . n> over element boundaries (vector x
    trace), is read only through its element blocks ``flux_blocks``, so
    it is never scattered.  Element blocks against the trace take their
    columns in the order of ``trace_cols``: the k+1 trace dofs of each
    of the element's three facets, facet by facet, and element blocks
    over the flux or velocity take their rows in the order of
    ``vector_rows``.
    """

    stab_local_blocks: np.ndarray      # (ne, m, m), tau included
    coriolis_mass: np.ndarray          # (ne, m, m), (f phi_l, phi_k)
    facet_tensor: np.ndarray           # (ne, 3, m, k+1), no tau
    facet_elem_mass: np.ndarray        # (ne, 3, m, m), no tau
    facet_trace_mass: np.ndarray       # (ne, 3, k+1, k+1), no tau
    normals_signed: np.ndarray         # (ne, 3, 2) outward normal per local edge
    vol_dx: np.ndarray                 # (ne, m, m), (phi_i, dx phi_k)
    vol_dy: np.ndarray

    wdofs: np.ndarray                  # (ne, m)
    vdofs: np.ndarray                  # (ne, 2, m)
    mdofs: np.ndarray                  # (nf, k+1)

    spaces: object = field(repr=False)
    params: PhysicalParams = field(repr=False)

    stab_trace: sparse.csr_matrix

    @property
    def mesh(self):
        return self.spaces.mesh

    @cached_property
    def div_pair(self):
        return _pairing(self.div_blocks, self.vector_rows, self.wdofs,
                        (self.vdofs.size, self.wdofs.size))

    @cached_property
    def stab_local(self):
        return _pairing(self.stab_local_blocks, self.wdofs, self.wdofs,
                        (self.wdofs.size, self.wdofs.size))

    @cached_property
    def stab_mixed(self):
        return _pairing(self.stab_mixed_blocks, self.wdofs, self.trace_cols,
                        (self.wdofs.size, self.stab_trace.shape[0]))

    @cached_property
    def coriolis(self):
        return _pairing(self.coriolis_blocks, self.vector_rows, self.vector_rows,
                        (self.vdofs.size, self.vdofs.size))

    @property
    def vector_rows(self):
        """(ne, 2m) flux or velocity dofs of each element, x block first."""
        return self.vdofs.reshape(self.wdofs.shape[0], -1)

    @property
    def div_blocks(self):
        """(ne, 2m, m) element blocks of ``div_pair``."""
        return np.concatenate([self.vol_dx, self.vol_dy], axis=1)

    @property
    def coriolis_blocks(self):
        """(ne, 2m, 2m) element blocks of ``coriolis``."""
        return _coriolis_blocks(self.coriolis_mass)

    @property
    def flux_blocks(self):
        """(ne, 2m, 3(k+1)) element blocks of the flux pairing F,
        <eta_m, z_k . n> over the element boundary."""
        return _element_columns(_flux_facet_blocks(self.normals_signed, self.facet_tensor))

    @property
    def stab_mixed_blocks(self):
        """(ne, m, 3(k+1)) element blocks of ``stab_mixed``."""
        return _element_columns(self.params.tau * self.facet_tensor)

    @property
    def trace_cols(self):
        """(ne, 3(k+1)) trace dofs of each element, facet by facet."""
        return self.mdofs[self.mesh.element_facets].reshape(self.wdofs.shape[0], -1)


def _coriolis_blocks(fmass):
    m = fmass.shape[1]
    blocks = np.zeros((fmass.shape[0], 2 * m, 2 * m))
    blocks[:, :m, m:] = fmass
    blocks[:, m:, :m] = -fmass
    return blocks


def _flux_facet_blocks(normals_signed, facet_tensor):
    # (ne, 3, 2m, k+1): <eta_m, z_k . n> per element edge
    return np.concatenate([normals_signed[:, :, 0, None, None] * facet_tensor,
                           normals_signed[:, :, 1, None, None] * facet_tensor], axis=2)


def _element_columns(blocks):
    """(ne, 3, a, k+1) per-facet blocks as (ne, a, 3(k+1)) element blocks
    whose columns follow ``SystemMatrices.trace_cols``."""
    ne, _, a, md = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(ne, a, 3 * md)


def _block_rows(blocks, rows, cols, shape, head=None):
    """CSR matrix of batched dense blocks (n, a, b) at rows (n, a) x
    cols (n, b), added to the sparse ``head``: the one scatter of every
    sparse operator.

    A row holds the entries of ``head``, then the block rows at that row
    in element order.  Every entry is stored, zeros and duplicates
    included (the copies add up in any product), and the finishers
    decide what is dropped: :func:`_pairing` drops exact zeros and sums
    the copies, and :func:`~swehdg.elliptic.condense` only sums them, so
    that the fill of a trace factor does not depend on rounding.  Each
    block row is written into the final arrays through a view of the b
    entries from its position on, so no copy of the blocks is made."""
    n, a, b = blocks.shape
    head = sparse.csr_matrix(shape) if head is None else head.tocsr()
    flat = rows.reshape(-1)
    before = b * np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=shape[0]))])
    indptr = head.indptr + before
    index = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    data, indices = np.empty(indptr[-1], dtype=blocks.dtype), np.empty(indptr[-1], dtype=index)
    at = np.arange(head.nnz) + np.repeat(before[:-1], np.diff(head.indptr))
    data[at], indices[at] = head.data, head.indices
    # the q-th block row in row order follows the head entries of its row
    # and the q block rows before it, so the windows below never overlap
    order = np.argsort(flat, kind="stable")
    at = np.empty_like(flat)
    at[order] = head.indptr[1:][flat[order]] + b * np.arange(flat.size)
    at = at.reshape(n, a)
    sliding_window_view(data, b, writeable=True)[at] = blocks
    sliding_window_view(indices, b, writeable=True)[at] = cols[:, None, :]
    return sparse.csr_matrix((data, indices, indptr), shape=shape)


def _pairing(blocks, rows, cols, shape):
    """The operator of its element blocks, scattered by :func:`_block_rows`,
    canonical and storing only its nonzero entries (the derivatives of
    constants and the rotation at f = 0 are exact zeros)."""
    pairing = _block_rows(blocks, rows, cols, shape)
    pairing.eliminate_zeros()
    pairing.sum_duplicates()
    return _held(pairing)


def _run_length(index):
    """Length of the runs that the element index array ``index`` (n, a)
    splits into: the longest b dividing a for which every run of b
    indices is consecutive and starts at a multiple of b.  On the dof
    layout this is k + 1 for the trace dofs of a facet, 2m for the flux
    or velocity dofs of an element and m for its height dofs.  A
    candidate is tried on the first row before the whole array, so only
    the length returned is checked over every row."""
    a = index.shape[1]
    for b in range(a, 1, -1):
        if a % b == 0 and all(not (runs[:, 0] % b).any() and (np.diff(runs, axis=1) == 1).all()
                              for runs in (index[:1].reshape(-1, b), index.reshape(-1, b))):
            return b
    return 1


def _blocked(op, rows, cols):
    """``op``, a canonical CSR operator scattered at element ``rows`` x
    ``cols`` (as :func:`_pairing` returns it), in the format it is
    applied in: the one place where an operator's format is chosen.

    The block shape is the run length (:func:`_run_length`) of ``rows``
    and of ``cols``.  ``op`` is converted to BSR of that block shape when
    both block dimensions are at least 3 and more than half of the
    entries of its element blocks are nonzero (2 nnz > n a b for n
    elements of a rows and b columns); otherwise it is returned
    unchanged, and nothing is converted to decide.  When no two elements
    share a block and no block is all zero, as for every operator
    composed here, the element blocks are the blocks the BSR stores, so
    this is the share of nonzero entries among them.  The conversion
    copies every entry, so the BSR is the same matrix.
    scipy's BSR product streams each dense block through one small
    matrix-vector kernel instead of gathering entry by entry (the
    register blocking of Im, Yelick and Vuduc, SPARSITY, IJHPCA 18,
    2004).  Measured at level 5 on the unit square, one product took,
    CSR against BSR, 88 against 41 µs for the recovery's trace data G at
    k = 2 (3 x 12 blocks, 92% full) and 518 against 267 µs for the flux
    stage's output K at k = 3 (20 x 20, 73% full).  Thin or sparse blocks
    lose, and the rule keeps them: at k = 1, H (6 x 2) took 29 against
    21 µs, the recovery's Mw (6 x 6, 25% full) 18 against 12 µs and its
    height map Pw (3 x 6, half full) 11 against 8 µs.  So without
    rotation every operator at k <= 1 stays CSR; with it, the stage
    outputs K fill their 6 x 6 and 3 x 3 blocks and convert."""
    block = (_run_length(rows), _run_length(cols))
    if min(block) < 3 or 2 * op.nnz <= rows.size * cols.shape[1]:
        return op
    return op.tobsr(blocksize=block)


def _held(matrix):
    """``matrix`` storing no more than its entries.  Dropping zeros or
    summing duplicates may leave its arrays views of longer ones, and
    the assembled pairings and composed operators are held for a whole
    run."""
    if matrix.data.base is not None and matrix.data.base.size > matrix.nnz:
        matrix.data = matrix.data.copy()
    if matrix.indices.base is not None and matrix.indices.base.size > matrix.nnz:
        matrix.indices = matrix.indices.copy()
    return matrix


def assemble_all(spaces, params):
    """Assemble every coupling block of the semidiscrete system.

    Periodic slave facets carry no trace dofs of their own; their
    integrals accumulate onto the master's columns through the trace
    space tabulation, which is what folds the periodic identification
    into the sparse structure.
    """
    mesh, sc, tr = spaces.mesh, spaces.scalar, spaces.trace
    ne = mesh.num_elements
    m = sc.dim_local
    md = tr.dim_local
    tau = params.tau

    wdofs = np.arange(ne * m).reshape(ne, m)
    vdofs = np.arange(ne * 2 * m).reshape(ne, 2, m)
    mdofs = tr.owner_row[:, None] * md + np.arange(md)[None, :]

    # volume integrals
    w = sc.qweights
    vol_dx = np.einsum("eq,eqk,eqi->eki", w, sc.tab_dx, sc.tab)
    vol_dy = np.einsum("eq,eqk,eqi->eki", w, sc.tab_dy, sc.tab)
    fvals = np.broadcast_to(
        np.asarray(params.coriolis(sc.qpoints[..., 0], sc.qpoints[..., 1]), dtype=float),
        w.shape)
    fmass = np.einsum("eq,eqk,eql->ekl", w * fvals, sc.tab, sc.tab)
    fmass = 0.5 * (fmass + fmass.transpose(0, 2, 1))    # keep A + A^T exactly 0

    # facet integrals, one tensor per element edge
    ef = mesh.element_facets
    pts = tr.qpoints[ef.reshape(-1)]
    vals = sc.batch_values(np.repeat(np.arange(ne), 3), pts).reshape(ne, 3, -1, m)
    tvals = tr.tvals[ef]
    wq = tr.qweights[ef]
    facet_tensor = np.einsum("efq,efqi,efqj->efij", wq, vals, tvals)
    facet_elem_mass = np.einsum("efq,efqi,efqj->efij", wq, vals, vals)
    facet_elem_mass = 0.5 * (facet_elem_mass + facet_elem_mass.transpose(0, 1, 3, 2))
    facet_trace_mass = np.einsum("efq,efqi,efqj->efij", wq, tvals, tvals)
    facet_trace_mass = 0.5 * (facet_trace_mass + facet_trace_mass.transpose(0, 1, 3, 2))
    normals_signed = mesh.element_facet_signs[:, :, None] * mesh.facet_normals[ef]

    # the trace mass is scattered from its facet blocks; the other
    # pairings, at their first read, from the element blocks the
    # condensed solves use
    facet_cols = mdofs[ef].reshape(3 * ne, md)
    stab_trace = _pairing(tau * facet_trace_mass.reshape(3 * ne, md, md),
                          facet_cols, facet_cols, (tr.ndof, tr.ndof))
    return SystemMatrices(
        stab_local_blocks=tau * facet_elem_mass.sum(axis=1), coriolis_mass=fmass,
        facet_tensor=facet_tensor, facet_elem_mass=facet_elem_mass,
        facet_trace_mass=facet_trace_mass, normals_signed=normals_signed,
        vol_dx=vol_dx, vol_dy=vol_dy, wdofs=wdofs, vdofs=vdofs, mdofs=mdofs,
        spaces=spaces, params=params, stab_trace=stab_trace)

