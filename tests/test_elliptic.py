"""Recovery solve, condensed wave operator, stationary init solve."""

import numpy as np
import pytest

from swehdg.assembly import PhysicalParams, assemble_all
from swehdg.elliptic import (
    PhiRecovery,
    initialize_state,
    solve_vector_laplacian,
)
from swehdg.fespace import build_spaces
from swehdg.swe import build_uw_system, make_problem
from swehdg.mesh import (
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    pair_periodic,
)

from helpers import flux_pairing, scalar_values, vector_values


def _setup(mesh, k, **kw):
    spaces = build_spaces(mesh, k)
    mats = assemble_all(mesh, spaces, PhysicalParams(**kw))
    return spaces, mats, PhiRecovery(mats)


def _l2_error_scalar(space, coeffs, exact):
    vals = scalar_values(space, coeffs)
    diff = vals - exact(space.qpoints[..., 0], space.qpoints[..., 1])
    return np.sqrt(np.sum(space.qweights * diff ** 2))


def _l2_error_vector(vspace, coeffs, exact):
    sc = vspace.scalar
    vals = vector_values(vspace, coeffs)
    e1, e2 = exact(sc.qpoints[..., 0], sc.qpoints[..., 1])
    diff = (vals[..., 0] - e1) ** 2 + (vals[..., 1] - e2) ** 2
    return np.sqrt(np.sum(sc.qweights * diff))


def test_recover_zero_and_linearity():
    spaces, mats, rec = _setup(generate_uniform_square(2), 1)
    p, phat = rec.recover(np.zeros(spaces.vector.ndof))
    assert np.abs(p).max() == 0.0 and np.abs(phat).max() == 0.0

    rng = np.random.default_rng(0)
    w = rng.standard_normal(spaces.vector.ndof)
    p1, ph1 = rec.recover(w)
    p3, ph3 = rec.recover(3.0 * w)
    assert np.allclose(p3, 3.0 * p1, rtol=1e-13, atol=1e-13)
    assert np.allclose(ph3, 3.0 * ph1, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("periodic", [None, "both"])
def test_recover_residuals_and_mass(periodic):
    mesh = generate_uniform_square(2)
    if periodic:
        mesh = pair_periodic(mesh, periodic)
    spaces, mats, rec = _setup(mesh, 2, tau=1.3)
    sc = spaces.scalar
    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab).reshape(-1)
    rng = np.random.default_rng(17)
    for _ in range(3):
        w = rng.standard_normal(spaces.vector.ndof)
        p, phat = rec.recover(w)
        scale = max(np.linalg.norm(p), 1.0)
        r1 = (mats.stab_local @ p + p) - mats.stab_mixed @ phat + mats.div_pair.T @ w
        r2 = -(mats.stab_mixed.T @ p) + mats.stab_trace @ phat - flux_pairing(mats).T @ w
        assert np.linalg.norm(r1) <= 1e-11 * scale
        assert np.linalg.norm(r2) <= 1e-11 * scale
        # discrete mass of the recovered height vanishes for every flux
        assert abs(moments @ p) <= 1e-12 * scale


def test_recovered_height_matches_manufactured_field():
    mesh = generate_uniform_square(3)
    spaces, mats, rec = _setup(mesh, 3)
    wstar = spaces.vector.project(lambda x, y: (
        -np.sin(np.pi * x) * np.cos(np.pi * y) / (2.0 * np.pi),
        -np.cos(np.pi * x) * np.sin(np.pi * y) / (2.0 * np.pi)))
    p, _ = rec.recover(wstar)
    err = _l2_error_scalar(spaces.scalar,p,
                           lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    assert err <= 1e-3


@pytest.mark.parametrize("nx,ny,k", [(1, 1, 0), (2, 1, 0), (1, 2, 1), (2, 2, 1)])
def test_wave_operator_matches_dense_oracle(nx, ny, k):
    mesh = generate_uniform_rect(nx, ny)
    spaces, mats, rec = _setup(mesh, k, tau=0.8)
    nv = spaces.vector.ndof
    nw = spaces.scalar.ndof
    nm = spaces.trace.ndof

    # brute-force oracle: invert the saddle block densely
    top = np.hstack([np.eye(nw) + mats.stab_local.toarray(), -mats.stab_mixed.toarray()])
    bot = np.hstack([-mats.stab_mixed.T.toarray(), mats.stab_trace.toarray()])
    block = np.vstack([top, bot])
    rhs = np.vstack([-mats.div_pair.T.toarray(), flux_pairing(mats).T.toarray()])
    sol = np.linalg.solve(block, rhs)
    dense = (np.hstack([-mats.div_pair.toarray(), flux_pairing(mats).toarray()]) @ sol)

    applied = np.column_stack([rec.apply(col) for col in np.eye(nv)])
    scale = np.abs(dense).max()
    assert np.abs(applied - dense).max() <= 1e-11 * scale
    assert np.abs(dense - dense.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() >= -1e-12 * scale


def test_wave_operator_quadratic_form():
    spaces, mats, rec = _setup(generate_uniform_square(2), 2)
    rng = np.random.default_rng(23)
    for _ in range(3):
        w = rng.standard_normal(spaces.vector.ndof)
        p, phat = rec.recover(w)
        lhs = w @ rec.apply(w)
        rhs = (p @ p + p @ (mats.stab_local @ p)
               - 2.0 * p @ (mats.stab_mixed @ phat)
               + phat @ (mats.stab_trace @ phat))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_init_zero_data_gives_zero():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 1)
    sol = solve_vector_laplacian(mesh, spaces, lambda x, y: (0.0 * x, 0.0 * y),
                                 PhysicalParams())
    assert sol.residual <= 1e-12
    for field in (sol.sigma, sol.w, sol.phi, sol.phi_hat, sol.w_tangent):
        assert np.abs(field).max() <= 1e-12


def test_init_solve_leaves_the_spaces_unchanged():
    # the tangent of the flux trace is read from the mesh, and nothing is
    # written into the spaces the caller passed
    mesh = pair_periodic(generate_uniform_square(2), "x")
    spaces = build_spaces(mesh, 1)
    before = dict(vars(spaces))
    sol = solve_vector_laplacian(mesh, spaces, lambda x, y: (np.sin(x), np.cos(y)),
                                 PhysicalParams())
    assert sol.residual <= 1e-12
    assert vars(spaces).keys() == before.keys()
    assert all(vars(spaces)[name] is value for name, value in before.items())


def test_init_polynomial_exactness():
    # w = (x - x^2, y^2 - y) satisfies the wall condition on the unit
    # square; its rotation vanishes and the height is 2(x - y), so the
    # driving force is the constant (2, -2) and every field lies in the
    # k = 2 spaces: the discrete solution must reproduce them to roundoff
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    sol = solve_vector_laplacian(
        mesh, spaces, lambda x, y: (2.0 + 0.0 * x, -2.0 + 0.0 * y), PhysicalParams())
    assert sol.residual <= 1e-10
    assert _l2_error_vector(spaces.vector, sol.w,
                            lambda x, y: (x - x ** 2, y ** 2 - y)) <= 1e-10
    assert _l2_error_scalar(spaces.scalar, sol.phi,
                            lambda x, y: 2.0 * (x - y)) <= 1e-10
    assert np.abs(sol.sigma).max() <= 1e-10


def test_init_convergence_against_reference_errors():
    # reference error magnitudes at h = 1/2 and 1/4 for k = 1, with the
    # expected second-order drop between them
    reference = {1: (2.09e-2, 8.28e-2, 7.75e-2), 2: (5.16e-3, 2.15e-2, 2.05e-2)}
    errs = {}
    for levels in (1, 2):
        mesh = generate_uniform_square(levels)
        spaces = build_spaces(mesh, 1)
        sol = solve_vector_laplacian(
            mesh, spaces,
            lambda x, y: (-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                          -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)),
            PhysicalParams())
        e_sigma = _l2_error_scalar(spaces.scalar, sol.sigma, lambda x, y: 0.0 * x)
        e_w = _l2_error_vector(spaces.vector, sol.w, lambda x, y: (
            -np.sin(np.pi * x) * np.cos(np.pi * y) / (2.0 * np.pi),
            -np.cos(np.pi * x) * np.sin(np.pi * y) / (2.0 * np.pi)))
        e_phi = _l2_error_scalar(spaces.scalar, sol.phi,
                                 lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        errs[levels] = (e_sigma, e_w, e_phi)
    for levels in (1, 2):
        for got, ref in zip(errs[levels], reference[levels]):
            assert ref / 2.0 <= got <= ref * 2.0
    for i in range(3):
        eoc = np.log(errs[1][i] / errs[2][i]) / np.log(2.0)
        assert 1.6 <= eoc <= 2.4


def test_init_on_periodic_domain_with_hole():
    mesh = pair_periodic(
        generate_rect_with_hole((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, 2.0),
        "both")
    spaces = build_spaces(mesh, 2)
    mats = assemble_all(mesh, spaces, PhysicalParams(f0=0.5))
    sol = solve_vector_laplacian(
        mesh, spaces,
        lambda x, y: (-(x + 5.0) * np.exp(-0.5 * (x + 5.0) ** 2), 0.0 * y),
        PhysicalParams(f0=0.5), matrices=mats)
    assert sol.residual <= 1e-10

    # the recovery applied to the init flux reproduces the init heights
    rec = PhiRecovery(mats)
    p, phat = rec.recover(sol.w)
    scale = max(1.0, np.linalg.norm(sol.phi))
    assert np.linalg.norm(p - sol.phi) <= 1e-10 * scale
    assert np.linalg.norm(phat - sol.phi_hat) <= 1e-10 * scale

    sc = spaces.scalar
    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab).reshape(-1)
    assert abs(moments @ p) <= 1e-12 * scale


def test_initialize_state_matches_init_fields():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    mats = assemble_all(mesh, spaces, PhysicalParams())
    state = initialize_state(
        mesh, spaces,
        phi0=lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y),
        u0=None, params=PhysicalParams(),
        grad_phi0=lambda x, y: (-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                                -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)),
        matrices=mats)
    assert np.abs(state.u).max() == 0.0

    rec = PhiRecovery(mats)
    p, _ = rec.recover(state.init.w)
    assert np.linalg.norm(p - state.init.phi) <= 1e-10

    err = _l2_error_scalar(spaces.scalar, p,
                           lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    assert err <= 1e-2


def test_initialize_state_needs_the_height_gradient():
    mesh = generate_uniform_square(1)
    spaces = build_spaces(mesh, 1)
    with pytest.raises(ValueError, match="grad_phi0"):
        initialize_state(mesh, spaces, phi0=lambda x, y: np.sin(x) * np.sin(y),
                         u0=None, params=PhysicalParams())


# largest max-norm distance, relative to a fresh solve, of the recovered
# trace the init solve seeds; fixed before measuring
SEEDED_TRACE_RTOL = 1e-10


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mesh", [
    generate_uniform_rect(2, 3),
    pair_periodic(generate_uniform_square(2), "both"),
    generate_rect_with_hole((0.0, 3.0, 0.0, 3.0), (1.5, 1.5), 0.6, 1.2),
], ids=["wall", "periodic", "holed"])
def test_init_seeds_the_recovered_trace(mesh, k):
    # the init system holds the recovery equations at its flux w0, so its
    # height trace is p_hat(w0): recover(w0) makes no solve and agrees
    # with one
    run = build_uw_system(make_problem("standing_wave", mesh, k))
    w0 = run.system.split(run.y0)[0]
    phat = run.recovery.recover(w0)[1]
    assert run.recovery.schur is None
    fresh = PhiRecovery(run.matrices).recover(w0)[1]
    assert np.abs(phat - fresh).max() <= SEEDED_TRACE_RTOL * np.abs(fresh).max()
    assert np.array_equal(phat, run.init.phi_hat)


def test_zero_state_shortcut():
    mesh = generate_uniform_square(1)
    spaces = build_spaces(mesh, 1)
    state = initialize_state(mesh, spaces, phi0=None, u0=None, params=PhysicalParams())
    assert np.abs(state.init.w).max() == 0.0
    assert np.abs(state.u).max() == 0.0
