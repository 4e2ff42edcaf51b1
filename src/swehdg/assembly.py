"""Sparse operators of the semidiscrete HDG system.

With elementwise orthonormal bases every mass matrix is an identity, so
the assembled blocks act directly on coefficient vectors.  Facet
couplings are built from one tensor per element edge (element basis
against trace basis), which keeps the recovery, time stepping, and init
paths structurally consistent.
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

    Sparse blocks (CSR), named by the pairing they represent:

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

    div_pair: sparse.csr_matrix
    flux_pair: sparse.csr_matrix
    stab_local: sparse.csr_matrix
    stab_mixed: sparse.csr_matrix
    stab_trace: sparse.csr_matrix
    coriolis: sparse.csr_matrix

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


def _scatter(blocks, rows, cols, shape):
    """COO scatter of batched dense blocks: blocks (n, a, b) at
    rows (n, a) x cols (n, b)."""
    n, a, b = blocks.shape
    r = np.broadcast_to(rows[:, :, None], (n, a, b))
    c = np.broadcast_to(cols[:, None, :], (n, a, b))
    mat = sparse.coo_matrix((blocks.ravel(), (r.ravel(), c.ravel())), shape=shape)
    return mat.tocsr()


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

    # volume pairings
    w = sc.qweights
    vol_dx = np.einsum("eq,eqk,eqi->eki", w, sc.tab_dx, sc.tab)
    vol_dy = np.einsum("eq,eqk,eqi->eki", w, sc.tab_dy, sc.tab)
    div_blocks = np.concatenate([vol_dx, vol_dy], axis=1)          # (ne, 2m, m)
    div_pair = _scatter(div_blocks, vdofs.reshape(ne, 2 * m), wdofs,
                        (2 * ne * m, ne * m))

    fvals = np.broadcast_to(
        np.asarray(params.coriolis(sc.qpoints[..., 0], sc.qpoints[..., 1]), dtype=float),
        w.shape)
    fmass = np.einsum("eq,eqk,eql->ekl", w * fvals, sc.tab, sc.tab)
    fmass = 0.5 * (fmass + fmass.transpose(0, 2, 1))    # keep A + A^T exactly 0
    coriolis = _scatter(_coriolis_blocks(fmass), vdofs.reshape(ne, 2 * m),
                        vdofs.reshape(ne, 2 * m), (2 * ne * m, 2 * ne * m))
    coriolis.eliminate_zeros()      # the zero diagonal blocks; every block if f = 0

    # facet pairings, one tensor per element edge
    ef = mesh.element_facets
    pts = tr.qpoints[ef.reshape(-1)]
    vals = sc.batch_values(np.repeat(np.arange(ne), 3), pts).reshape(ne, 3, -1, m)
    tvals = tr.tvals[ef]
    wq = tr.qweights[ef]
    facet_tensor = np.einsum("efq,efqi,efqj->efij", wq, vals, tvals)
    facet_elem_mass = np.einsum("efq,efqi,efqj->efij", wq, vals, vals)
    facet_elem_mass = 0.5 * (facet_elem_mass + facet_elem_mass.transpose(0, 1, 3, 2))
    normals_signed = mesh.element_facet_signs[:, :, None] * mesh.facet_normals[ef]

    stab_local_blocks = tau * facet_elem_mass.sum(axis=1)
    stab_local = _scatter(stab_local_blocks, wdofs, wdofs, (ne * m, ne * m))

    rows_w = np.broadcast_to(wdofs[:, None, :], (ne, 3, m)).reshape(3 * ne, m)
    cols_m = mdofs[ef].reshape(3 * ne, md)
    stab_mixed = _scatter(tau * facet_tensor.reshape(3 * ne, m, md),
                          rows_w, cols_m, (ne * m, tr.ndof))

    flux_blocks = _flux_facet_blocks(normals_signed, facet_tensor)
    rows_v = np.broadcast_to(vdofs.reshape(ne, 1, 2 * m), (ne, 3, 2 * m))
    flux_pair = _scatter(flux_blocks.reshape(3 * ne, 2 * m, md),
                         rows_v.reshape(3 * ne, 2 * m), cols_m,
                         (2 * ne * m, tr.ndof))

    facet_trace_mass = np.einsum("efq,efqi,efqj->efij", wq, tvals, tvals)
    facet_trace_mass = 0.5 * (facet_trace_mass + facet_trace_mass.transpose(0, 1, 3, 2))
    stab_trace = _scatter(tau * facet_trace_mass.reshape(3 * ne, md, md),
                          cols_m, cols_m, (tr.ndof, tr.ndof))

    return SystemMatrices(
        div_pair=div_pair, flux_pair=flux_pair, stab_local=stab_local,
        stab_mixed=stab_mixed, stab_trace=stab_trace, coriolis=coriolis,
        stab_local_blocks=stab_local_blocks, coriolis_mass=fmass,
        facet_tensor=facet_tensor,
        facet_elem_mass=facet_elem_mass, facet_trace_mass=facet_trace_mass,
        normals_signed=normals_signed,
        vol_dx=vol_dx, vol_dy=vol_dy,
        wdofs=wdofs, vdofs=vdofs, mdofs=mdofs,
        spaces=spaces, params=params,
    )


def assemble_bathymetry_load(spaces, bathymetry, phi, grad=None):
    """Load vector (phi grad b, z_k) for a bathymetry profile b(x, y).

    The gradient is taken analytically when ``grad`` is supplied,
    otherwise by central differences with step 1e-7 at the quadrature
    points.  Returns a dense vector over the vector-space dofs.
    """
    sc = spaces.scalar
    x, y = sc.qpoints[..., 0], sc.qpoints[..., 1]
    if grad is not None:
        gx, gy = grad(x, y)
    else:
        step = 1e-7
        gx = (bathymetry(x + step, y) - bathymetry(x - step, y)) / (2.0 * step)
        gy = (bathymetry(x, y + step) - bathymetry(x, y - step)) / (2.0 * step)
    gx = np.broadcast_to(np.asarray(gx, dtype=float), sc.qweights.shape)
    gy = np.broadcast_to(np.asarray(gy, dtype=float), sc.qweights.shape)
    load = np.stack([
        np.einsum("eq,eq,eqi->ei", gx, sc.qweights, sc.tab),
        np.einsum("eq,eq,eqi->ei", gy, sc.qweights, sc.tab),
    ], axis=1)
    return phi * load.reshape(-1)
