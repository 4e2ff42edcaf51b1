"""Sparse operators of the semidiscrete HDG system.

With elementwise orthonormal bases every mass matrix is an identity, so
the assembled blocks act directly on coefficient vectors.  Facet
couplings are built from one tensor per element edge (element basis
against trace basis), which keeps the recovery, time stepping, and init
paths structurally consistent.  Every sparse operator, here and in the
condensed solves, is scattered from batched element blocks by one
function, :func:`_block_rows`.
"""

from dataclasses import dataclass, field

import numpy as np
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

    Sparse blocks (canonical CSR without stored zeros), named by the
    pairing they represent and scattered from the element blocks below:

    - ``div_pair``     (vector x scalar): (phi_i, div z_k) over elements
    - ``flux_pair``    (vector x trace): <eta_m, z_k . n> over element boundaries
    - ``stab_local``   (scalar x scalar): <tau phi_j, phi_i> over element boundaries
    - ``stab_mixed``   (scalar x trace): <tau eta_m, phi_i>
    - ``stab_trace``   (trace x trace): <tau eta_n, eta_m>
    - ``coriolis``     (vector x vector): (f z_l-perp, z_k), antisymmetric

    The batched arrays keep the per-element facet tensors and local
    masses, and the properties rebuild from them the element blocks of
    every sparse coupling, so solvers can build element-local Schur
    complements without touching the global sparse structure.  Element
    blocks against the trace take their columns in the order of
    ``trace_cols``: the k+1 trace dofs of each of the element's three
    facets, facet by facet.
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

    spaces: object = field(repr=False, default=None)
    params: PhysicalParams = field(repr=False, default=None)

    div_pair: sparse.csr_matrix = None
    flux_pair: sparse.csr_matrix = None
    stab_local: sparse.csr_matrix = None
    stab_mixed: sparse.csr_matrix = None
    stab_trace: sparse.csr_matrix = None
    coriolis: sparse.csr_matrix = None

    @property
    def mesh(self):
        return self.spaces.mesh

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
        """(ne, 2m, 3(k+1)) element blocks of ``flux_pair``."""
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


def _block_rows(blocks, rows, cols, shape):
    """CSR matrix of batched dense blocks (n, a, b) at rows (n, a) x
    cols (n, b), the one scatter of every block operator.

    Entries are grouped by row, unsorted, and a (row, column) pair shared
    by several blocks is stored once per block: the copies add up in any
    product, and ``sum_duplicates()`` makes the matrix canonical.  Exact
    zeros are dropped (the derivatives of constants, the rotation at
    f = 0)."""
    n, a, b = blocks.shape
    index = np.int32 if blocks.size < 2 ** 31 else np.int64
    order = np.argsort(rows.reshape(-1), kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(b * np.bincount(rows.reshape(-1), minlength=shape[0]), out=indptr[1:])
    indices = np.take(cols.astype(index), order // a, axis=0)
    data = np.take(blocks.reshape(n * a, b), order, axis=0)
    mat = sparse.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=shape)
    mat.eliminate_zeros()
    return mat


def assemble_all(mesh, spaces, params):
    """Assemble every coupling block of the semidiscrete system.

    Periodic slave facets carry no trace dofs of their own; their
    integrals accumulate onto the master's columns through the trace
    space tabulation, which is what folds the periodic identification
    into the sparse structure.
    """
    sc, tr = spaces.scalar, spaces.trace
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

    mats = SystemMatrices(
        stab_local_blocks=tau * facet_elem_mass.sum(axis=1), coriolis_mass=fmass,
        facet_tensor=facet_tensor, facet_elem_mass=facet_elem_mass,
        facet_trace_mass=facet_trace_mass, normals_signed=normals_signed,
        vol_dx=vol_dx, vol_dy=vol_dy, wdofs=wdofs, vdofs=vdofs, mdofs=mdofs,
        spaces=spaces, params=params)
    # each pairing is scattered from the element blocks the condensed
    # solves use, the trace mass from its facet blocks
    nw, nv, nm = ne * m, 2 * ne * m, tr.ndof
    rows_v, cols = vdofs.reshape(ne, 2 * m), mats.trace_cols
    facet_cols = mdofs[ef].reshape(3 * ne, md)
    mats.div_pair = _block_rows(mats.div_blocks, rows_v, wdofs, (nv, nw))
    mats.coriolis = _block_rows(mats.coriolis_blocks, rows_v, rows_v, (nv, nv))
    mats.stab_local = _block_rows(mats.stab_local_blocks, wdofs, wdofs, (nw, nw))
    mats.stab_mixed = _block_rows(mats.stab_mixed_blocks, wdofs, cols, (nw, nm))
    mats.flux_pair = _block_rows(mats.flux_blocks, rows_v, cols, (nv, nm))
    mats.stab_trace = _block_rows(tau * facet_trace_mass.reshape(3 * ne, md, md),
                                  facet_cols, facet_cols, (nm, nm))
    for pairing in (mats.div_pair, mats.flux_pair, mats.stab_local, mats.stab_mixed,
                    mats.stab_trace, mats.coriolis):
        pairing.sum_duplicates()
    return mats


def central_gradient(func, step):
    """Gradient (d/dx, d/dy) of ``func(x, y)`` by central differences."""
    def grad(x, y):
        return ((func(x + step, y) - func(x - step, y)) / (2.0 * step),
                (func(x, y + step) - func(x, y - step)) / (2.0 * step))
    return grad


def assemble_bathymetry_load(spaces, bathymetry, phi, grad=None):
    """Load vector (phi grad b, z_k) for a bathymetry profile b(x, y).

    The gradient is taken analytically when ``grad`` is supplied,
    otherwise by central differences with step 1e-7 at the quadrature
    points.  Returns a dense vector over the vector-space dofs.
    """
    if grad is None:
        grad = central_gradient(bathymetry, 1e-7)
    return phi * spaces.vector.project(grad).coeffs
