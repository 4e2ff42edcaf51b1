"""Structure preserving HDG solver for the linearized rotating shallow
water equations.

The package discretizes the velocity / flux-potential form of the
linearized equations with a hybridizable discontinuous Galerkin method in
space and symplectic (partitioned or diagonally implicit) Runge-Kutta
methods in time, and ships the drivers used for convergence and long-time
conservation studies.
"""

from .mesh import (
    Mesh,
    generate_uniform_rect,
    generate_uniform_square,
    generate_rect_with_hole,
    pair_periodic,
    load_mesh,
    save_mesh,
)
from .fespace import build_spaces, quadrature
from .assembly import PhysicalParams, assemble_all
from .elliptic import PhiRecovery, initialize_state, solve_vector_laplacian
from .integrators import (
    make_integrator,
    make_sdirk,
    make_seprk,
    check_symplectic,
)
from .swe import (
    ManufacturedSolution,
    PhiuIntegrator,
    build_phiu_system,
    build_uw_system,
    get_preset,
    make_problem,
    phiu_energy,
    step_count,
)
from .diagnostics import (
    ErrorNorms,
    QuantityRecord,
    conserved_quantities,
    eoc,
    init_errors,
    l2_errors,
)

__all__ = [
    "Mesh",
    "generate_uniform_rect",
    "generate_uniform_square",
    "generate_rect_with_hole",
    "pair_periodic",
    "load_mesh",
    "save_mesh",
    "build_spaces",
    "quadrature",
    "PhysicalParams",
    "assemble_all",
    "PhiRecovery",
    "initialize_state",
    "solve_vector_laplacian",
    "make_integrator",
    "make_sdirk",
    "make_seprk",
    "check_symplectic",
    "ManufacturedSolution",
    "PhiuIntegrator",
    "build_phiu_system",
    "build_uw_system",
    "get_preset",
    "make_problem",
    "phiu_energy",
    "step_count",
    "ErrorNorms",
    "QuantityRecord",
    "conserved_quantities",
    "eoc",
    "init_errors",
    "l2_errors",
]

__version__ = "0.1.0"
