"""Trace-condensed stage and init solves against monolithic oracles, the
failure contract of the condensed solver, and the shape of the held
factors."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from swehdg import elliptic, integrators
from swehdg.assembly import PhysicalParams, _block_rows, _run_length, assemble_all
from swehdg.elliptic import (
    PhiRecovery,
    _init_blocks,
    _init_trace,
    _solve_once,
    condense,
    factor_trace,
    solve_vector_laplacian,
)
from swehdg.fespace import build_spaces
from swehdg.integrators import (
    SdirkIntegrator,
    SemidiscreteSystem,
    make_integrator,
    make_sdirk,
    uw_stage_blocks,
)
from swehdg.mesh import (
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    pair_periodic,
)
from swehdg.swe import (
    PhiuIntegrator,
    build_phiu_system,
    build_uw_system,
    hamiltonian_load,
    make_problem,
    phiu_stage_blocks,
)

from helpers import (
    SUBSTEP_WEIGHTS,
    flux_pairing,
    midpoint_composition,
    slope_form,
    slope_form_step,
    stage_loop,
    stage_solution,
    straight_schur,
)

PARAMS = dict(phi=1.7, f0=0.3, beta=0.2, y_mid=0.4, tau=1.3)
DT = 0.2


# centre and radius of the hole of each holed mesh kind
HOLES = {"holed": ((1.5, 1.5), 0.6), "holed-periodic": ((3.0, 0.0), 1.0)}


def _mesh(kind):
    if kind == "wall":
        return generate_uniform_rect(2, 3)
    if kind == "periodic":
        return pair_periodic(generate_uniform_square(2), "both")
    if kind == "holed-periodic":
        return pair_periodic(generate_rect_with_hole(
            (-10.0, 10.0, -10.0, 10.0), *HOLES[kind], 2.0), "both")
    return generate_rect_with_hole((0.0, 3.0, 0.0, 3.0), *HOLES["holed"], 1.2)


def _hole_ring(mesh, kind):
    """Boundary facets of the hole of a holed mesh kind, found from the
    centre the mesh was built around, and the sign of each stored tangent
    against the clockwise direction about that centre."""
    (cx, cy), radius = HOLES[kind]
    mid = mesh.facet_midpoints
    ring = np.flatnonzero((mesh.facet_right < 0)
                          & (np.hypot(mid[:, 0] - cx, mid[:, 1] - cy) < radius))
    clockwise = np.column_stack([mid[ring, 1] - cy, cx - mid[ring, 0]])
    return ring, np.sign(np.einsum("fd,fd->f", mesh.facet_tangents[ring], clockwise))


def _matrices(kind, k):
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    return spaces, assemble_all(mesh, spaces, PhysicalParams(**PARAMS))


# monolithic stage systems, factored whole: the oracles of the condensed solves

def _monolithic_uw_stage(m, phi, delta):
    nv = m.div_pair.shape[0]
    eye_v = sparse.identity(nv, format="csr")
    eye_w = sparse.identity(m.stab_local.shape[0], format="csr")
    return splu(sparse.bmat([
        [eye_v, -delta * phi * eye_v, None, None],
        [None, eye_v - delta * m.coriolis, -delta * m.div_pair, delta * flux_pairing(m)],
        [m.div_pair.T, None, eye_w + m.stab_local, -m.stab_mixed],
        [-flux_pairing(m).T, None, -m.stab_mixed.T, m.stab_trace],
    ], format="csc"))


def _monolithic_phiu_stage(m, phi, delta):
    nw, nv = m.div_pair.shape[1], m.div_pair.shape[0]
    eye_w = sparse.identity(nw, format="csr")
    eye_v = sparse.identity(nv, format="csr")
    return splu(sparse.bmat([
        [eye_w + delta * m.stab_local, delta * phi * m.div_pair.T, -delta * m.stab_mixed],
        [-delta * m.div_pair, eye_v - delta * m.coriolis, delta * flux_pairing(m)],
        [m.stab_mixed.T, phi * flux_pairing(m).T, -m.stab_trace],
    ], format="csc"))


def _oracle_uw_step(system, tab, dt, y):
    m, nv = system.matrices, system.nv
    nw, nm = m.stab_local.shape[0], m.stab_trace.shape[0]
    slopes = np.empty((tab.stages, 2 * nv))
    for i in range(tab.stages):
        acc = y + dt * (tab.a[i, :i] @ slopes[:i])
        delta = dt * tab.a[i, i]
        lu = _monolithic_uw_stage(m, system.phi, delta)
        x = lu.solve(np.concatenate([acc[:nv], acc[nv:] + delta * system.forcing,
                                     np.zeros(nw + nm)]))
        u, p, phat = x[nv:2 * nv], x[2 * nv:2 * nv + nw], x[2 * nv + nw:]
        slopes[i, :nv] = system.phi * u
        slopes[i, nv:] = (m.div_pair @ p - flux_pairing(m) @ phat + m.coriolis @ u
                          + system.forcing)
    return y + dt * (tab.b @ slopes)


def _oracle_phiu_stages(run, tab, dt, y):
    m, phi = run.matrices, run.spec.params.phi
    nw, nv = m.div_pair.shape[1], m.div_pair.shape[0]
    stages = []
    slopes = np.empty((tab.stages, nw + nv))
    for i in range(tab.stages):
        acc = y + dt * (tab.a[i, :i] @ slopes[:i])
        delta = dt * tab.a[i, i]
        lu = _monolithic_phiu_stage(m, phi, delta)
        x = lu.solve(np.concatenate([acc[:nw], acc[nw:] + delta * run.forcing,
                                     np.zeros(m.stab_trace.shape[0])]))
        q, u, qhat = x[:nw], x[nw:nw + nv], x[nw + nv:]
        stages.append((q, u, qhat))
        slopes[i, :nw] = -phi * (m.div_pair.T @ u) - m.stab_local @ q + m.stab_mixed @ qhat
        slopes[i, nw:] = (m.div_pair @ q - flux_pairing(m) @ qhat + m.coriolis @ u
                          + run.forcing)
    return y + dt * (tab.b @ slopes), stages


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_uw_stages_match_monolithic_oracle(k, kind, order):
    spaces, mats = _matrices(kind, k)
    rng = np.random.default_rng(100 * k + order)
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats),
                                forcing=rng.standard_normal(spaces.vector.ndof))
    tab = make_sdirk(order)
    stepper = SdirkIntegrator(system, tab, DT)
    if order == 4:
        assert min(stepper.trace_factors) < 0.0       # sdirk4's middle scale
    nv = system.nv
    for delta in stepper.trace_factors:
        acc = rng.standard_normal(2 * nv)
        x = _monolithic_uw_stage(mats, system.phi, delta).solve(
            np.concatenate([acc[:nv], acc[nv:] + delta * system.forcing,
                            np.zeros(spaces.scalar.ndof + spaces.trace.ndof)]))
        u, p, phat = stage_solution(stepper, delta, acc)
        assert _rel(np.concatenate([u, p, phat]), x[nv:]) <= 1e-11
    y = rng.standard_normal(2 * nv)
    y1 = stepper.step(y)
    assert _rel(y1, _oracle_uw_step(system, tab, DT, y)) <= 1e-11
    assert np.array_equal(y1, stage_loop(stepper, y)[0])


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
def test_uw_step_through_the_velocity_matches_the_slope_form(kind, order):
    # rotation (f0 and beta), a forcing, and sdirk4's negative scale: the
    # held velocity output has nv rows and half the slope form's entries,
    # and stepping through it agrees with stepping through the slope
    spaces, mats = _matrices(kind, 2)
    rng = np.random.default_rng(600 + order)
    nv = spaces.vector.ndof
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats),
                                forcing=rng.standard_normal(nv))
    stepper = SdirkIntegrator(system, make_sdirk(order), DT)
    forms = slope_form(stepper)
    assert (min(forms) < 0.0) == (order == 4)
    for delta, (_, _, K_slope, Kt_slope, _, _) in forms.items():
        _, K, Kt, _, k0 = stepper._stages[delta]
        assert K.shape == (nv, 2 * nv) and Kt.shape[0] == k0.size == nv
        assert (2 * K.count_nonzero() <= K_slope.count_nonzero()
                and 2 * Kt.count_nonzero() <= Kt_slope.count_nonzero())
    y = rng.standard_normal(2 * nv)
    for _ in range(3):
        y_next = stepper.step(y)
        assert _rel(y_next, slope_form_step(stepper, y, forms)) <= 1e-12
        y = y_next


@pytest.mark.parametrize("substeps", [2, 4])
@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_phiu_stages_match_monolithic_oracle(k, kind, substeps):
    mesh = _mesh(kind)
    spec = make_problem("moving_bump", mesh, k, **PARAMS)
    run = build_phiu_system(spec)
    rng = np.random.default_rng(200 + 10 * k + substeps)
    run.forcing = rng.standard_normal(run.spaces.vector.ndof)
    tab = midpoint_composition(SUBSTEP_WEIGHTS[substeps])
    y = rng.standard_normal(run.y0.size)
    stepper = PhiuIntegrator(run, tab, DT)
    y1, stages = stage_loop(stepper, y)
    y1_ref, stages_ref = _oracle_phiu_stages(run, tab, DT, y)
    assert _rel(stepper.step(y), y1_ref) <= 1e-11
    assert np.array_equal(stepper.step(y), y1)
    for got, ref in zip(stages, stages_ref):
        assert _rel(np.concatenate(got), np.concatenate(ref)) <= 1e-11


def _old_recover(mats, w):
    # the recovery as first written: condensed blocks from the facet
    # tensors, one block scatter, and two local solves around the trace solve
    ne, m = mats.div_blocks.shape[0], mats.div_blocks.shape[2]
    md = mats.spaces.trace.dim_local
    nm = mats.stab_trace.shape[0]
    local_inv = np.linalg.inv(mats.stab_local_blocks + np.eye(m))
    big = (mats.params.tau * mats.facet_tensor).transpose(0, 2, 1, 3).reshape(ne, m, 3 * md)
    blocks = np.einsum("eia,eij,ejb->eab", big, local_inv, big)
    cols = mats.mdofs[mats.mesh.element_facets].reshape(ne, 3 * md)
    schur = splu((mats.stab_trace - _block_rows(blocks, cols, cols, (nm, nm))).tocsc())

    def local_solve(r):
        return np.einsum("eij,ej->ei", local_inv, r.reshape(ne, m)).reshape(-1)

    r_local, r_trace = -(mats.div_pair.T @ w), flux_pairing(mats).T @ w
    phat = schur.solve(r_trace + mats.stab_mixed.T @ local_solve(r_local))
    return local_solve(r_local + mats.stab_mixed @ phat), phat


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_zero_scale_stage_is_the_recovery(k, kind):
    spaces, mats = _matrices(kind, k)
    rec = PhiRecovery(mats)
    system = SemidiscreteSystem(matrices=mats, recovery=rec)
    stepper = SdirkIntegrator(system, make_sdirk(2), 0.0)
    assert list(stepper.trace_factors) == [0.0]
    rng = np.random.default_rng(300 + k)
    acc = rng.standard_normal(2 * system.nv)
    p_ref, phat_ref = _old_recover(mats, acc[:system.nv])
    ref = np.concatenate([p_ref, phat_ref])
    u, p, phat = stage_solution(stepper, 0.0, acc)
    assert np.array_equal(u, acc[system.nv:])
    assert _rel(np.concatenate([p, phat]), ref) <= 1e-11
    assert _rel(np.concatenate(rec.recover(acc[:system.nv])), ref) <= 1e-11


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_one_pass_apply_matches_recovery(k, kind):
    # the precomposed wave operator against F p_hat - D p from recover()
    spaces, mats = _matrices(kind, k)
    rec = PhiRecovery(mats)
    rng = np.random.default_rng(400 + k)
    for w in rng.standard_normal((3, spaces.vector.ndof)):
        p, phat = rec.recover(w)
        assert _rel(rec.apply(w), flux_pairing(mats) @ phat - mats.div_pair @ p) <= 1e-13


def _row_blocks(blocks, cols, ncols):
    # CSR whose row e * n + i holds blocks[e, i] at the columns cols[e]
    ne, n, c = blocks.shape
    indices = np.broadcast_to(cols[:, None, :], (ne, n, c)).reshape(-1)
    return sparse.csr_matrix((blocks.reshape(-1), indices, np.arange(0, ne * n * c + 1, c)),
                             shape=(ne * n, ncols))


def _hand_written_wave_operator(mats):
    # G, H and Mw as global sparse products of the recovery's element
    # blocks, each A_e inverted explicitly, the way the recovery first
    # composed them
    mixed = mats.stab_mixed_blocks
    local_inv = np.linalg.inv(mats.stab_local_blocks + np.eye(mixed.shape[1]))
    nm = mats.stab_trace.shape[0]
    div_t, flux_t = mats.div_pair.T.tocsr(), flux_pairing(mats).T.tocsr()
    lift = _row_blocks(local_inv @ -mixed, mats.trace_cols, nm)                    # A^-1 B
    restrict = _row_blocks((-mixed.transpose(0, 2, 1) @ local_inv).transpose(0, 2, 1),
                           mats.trace_cols, nm).T.tocsr()                          # C A^-1
    local_inv = _row_blocks(local_inv, mats.wdofs, mats.wdofs.size)
    return (flux_t + restrict @ div_t, flux_pairing(mats) + mats.div_pair @ lift,
            mats.div_pair @ local_inv @ div_t)


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_composed_wave_operator_matches_hand_written_products(k, kind):
    spaces, mats = _matrices(kind, k)
    rec = PhiRecovery(mats)
    wave = rec.prepare_apply()      # condenses the recovery, then forms H and Mw
    for got, ref in zip((rec._G, *wave), _hand_written_wave_operator(mats)):
        assert got.shape == ref.shape
        assert abs(got - ref).max() <= 1e-13 * abs(ref).max()
        # a BSR keeps the zeros inside its blocks, but no block is all
        # zero and at least half the stored entries are not; a CSR (one
        # entry per block) stores no zero
        blocks = got.data if got.format == "bsr" else got.data[:, None, None]
        assert blocks.any(axis=(1, 2)).all()
        assert 2 * np.count_nonzero(got.data) >= got.data.size


def _held_operators(mats, k, params):
    """Every composed operator a run holds, by name: G, Pw, Pt, H and Mw
    of the recovery and (R, K, Kt') of a flux and a height-scheme stage."""
    rec = PhiRecovery(mats)
    H, Mw = rec.prepare_apply()
    held = dict(G=rec._G, Pw=rec._Pw, Pt=rec._Pt, H=H, Mw=Mw)
    system = SemidiscreteSystem(matrices=mats, recovery=rec)
    phiu = build_phiu_system(make_problem("moving_bump", mats.mesh, k, **params),
                             matrices=mats)
    for scheme, stepper in (("uw", SdirkIntegrator(system, make_sdirk(2), DT)),
                            ("phiu", PhiuIntegrator(phiu, make_sdirk(2), DT))):
        R, K, Kt, _, _ = next(iter(stepper._stages.values()))
        held.update({f"{scheme} R": R, f"{scheme} K": K, f"{scheme} Kt": Kt})
    return held


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_held_operators_equal_their_csr_scatter(k, kind, monkeypatch):
    # the format changes no entry: each operator, built again with the
    # format rule switched off, is the same matrix entry for entry
    _, mats = _matrices(kind, k)
    held = _held_operators(mats, k, PARAMS)
    monkeypatch.setattr(elliptic, "_blocked", lambda op, rows, cols: op)
    scattered = _held_operators(mats, k, PARAMS)
    for name, op in held.items():
        csr = scattered[name]
        assert csr.format == "csr", name
        assert op.shape == csr.shape, name
        assert np.array_equal(op.toarray(), csr.toarray()), name


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_block_format_from_degree_two_on(k):
    # without rotation every operator at k <= 1 stays CSR, and every one
    # at k >= 2 is a BSR of the element blocks of its rows and columns:
    # k + 1 trace dofs per facet, 2m flux or velocity dofs and m height
    # dofs per element
    mesh = generate_uniform_square(3)
    spaces = build_spaces(mesh, k)
    held = _held_operators(assemble_all(mesh, spaces, PhysicalParams()), k, {})
    if k <= 1:
        assert {op.format for op in held.values()} == {"csr"}
        return
    t, v, p = k + 1, 2 * spaces.scalar.dim_local, spaces.scalar.dim_local
    expected = {"G": (t, v), "Pw": (p, v), "Pt": (p, t), "H": (v, t), "Mw": (v, v),
                "uw R": (t, v), "uw K": (v, v), "uw Kt": (v, t),
                "phiu R": (t, p), "phiu K": (p, p), "phiu Kt": (p, t)}
    assert set(held) == set(expected)
    for name, op in held.items():
        assert op.format == "bsr" and op.blocksize == expected[name], name


def _converting_run_length(index):
    # every divisor tested over the whole index array
    a = index.shape[1]
    for b in range(a, 1, -1):
        if a % b == 0:
            runs = index.reshape(-1, b)
            if not (runs[:, 0] % b).any() and (np.diff(runs, axis=1) == 1).all():
                return b
    return 1


def _converting_format(op, rows, cols):
    """(format, block size) of the rule that converts first: a BSR of the
    run lengths of rows and cols, kept when both are at least 3 and more
    than half of its stored entries are nonzero."""
    block = (_converting_run_length(rows), _converting_run_length(cols))
    if min(block) >= 3 and 2 * op.nnz > op.tobsr(blocksize=block).data.size:
        return "bsr", block
    return "csr", None


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed-periodic"])
@pytest.mark.parametrize("rotating", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_block_format_is_chosen_before_converting(k, rotating, kind, monkeypatch):
    # every composed operator: G, Pw, Pt, Mw and (R, K, Kt') of a flux and
    # a height-scheme stage; the run lengths and the format equal those
    # of the rule that converts every candidate and reads the copy
    chosen = []
    real = elliptic._blocked

    def spy(op, rows, cols):
        held = real(op, rows, cols)
        chosen.append((op, rows, cols, held))
        return held

    monkeypatch.setattr(elliptic, "_blocked", spy)
    params = PARAMS if rotating else {}
    mesh = _mesh(kind)
    _held_operators(assemble_all(mesh, build_spaces(mesh, k), PhysicalParams(**params)),
                    k, params)
    assert len(chosen) == 10
    for op, rows, cols, held in chosen:
        assert (_run_length(rows), _run_length(cols)) == \
            (_converting_run_length(rows), _converting_run_length(cols))
        assert (held.format, getattr(held, "blocksize", None)) == \
            _converting_format(op, rows, cols)


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_bathymetry_load_is_the_transposed_height_map(k, kind):
    # the height map of recover(), from the dense recovery system solved
    # for every flux basis vector; the load is minus its transpose
    spaces, mats = _matrices(kind, k)
    nw = spaces.scalar.ndof
    saddle = sparse.bmat([[sparse.identity(nw) + mats.stab_local, -mats.stab_mixed],
                          [-mats.stab_mixed.T, mats.stab_trace]]).toarray()
    data = sparse.vstack([-mats.div_pair.T, flux_pairing(mats).T]).toarray()
    height_map = np.linalg.solve(saddle, data)[:nw]
    rec = PhiRecovery(mats)
    rng = np.random.default_rng(500 + k)
    w, b = rng.standard_normal(spaces.vector.ndof), rng.standard_normal(nw)
    assert _rel(rec.recover(w)[0], height_map @ w) <= 1e-12
    assert _rel(hamiltonian_load(rec, b), -(height_map.T @ b)) <= 1e-12


def test_step_and_recover_never_call_the_general_solve(monkeypatch):
    # every per-step solve and the bathymetry load go through the
    # precomposed operators: no condensation and no element block solve
    spaces, mats = _matrices("periodic", 1)
    rec = PhiRecovery(mats)
    system = SemidiscreteSystem(matrices=mats, recovery=rec)
    run = build_phiu_system(make_problem("moving_bump", mats.mesh, 1, **PARAMS))
    steppers = [SdirkIntegrator(system, make_sdirk(4), DT),
                PhiuIntegrator(run, make_sdirk(2), DT)]
    rec.factor()        # the recovery condenses at its first read

    def forbidden(*args, **kwargs):
        raise AssertionError("condense or _solve_blocks called")

    for module, name in ((elliptic, "condense"), (integrators, "condense"),
                         (elliptic, "_solve_blocks")):
        monkeypatch.setattr(module, name, forbidden)
    rng = np.random.default_rng(12)
    w = rng.standard_normal(spaces.vector.ndof)
    rec.recover(w)
    rec.apply(w)
    steppers[0].step(rng.standard_normal(2 * system.nv))
    steppers[1].step(rng.standard_normal(run.y0.size))
    hamiltonian_load(rec, rng.standard_normal(spaces.scalar.ndof))


def test_init_residual_where_diagonal_pivoting_breaks_down(monkeypatch):
    # the standing-wave init system at level 5, k = 1: a purely diagonal
    # pivot order leaves a residual above 1 there, the threshold-0.1
    # symmetric-mode factorization a residual at rounding level
    spec = make_problem("standing_wave", generate_uniform_square(5), 1)
    assert build_uw_system(spec).init.residual <= 1e-12

    real = elliptic.splu

    def diagonal_only(matrix, **kwargs):
        return real(matrix, **dict(kwargs, diag_pivot_thresh=0.0))

    monkeypatch.setattr(elliptic, "splu", diagonal_only)
    assert build_uw_system(spec).init.residual > 1e-10


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
def test_uw_local_blocks_invertible_for_any_scale(kind):
    # the p rows scaled by 1/phi give symmetric part diag(I, (I + S_l) / phi)
    spaces, mats = _matrices(kind, 2)
    phi = mats.params.phi
    ne, nu, m = mats.div_blocks.shape
    expected = np.zeros((ne, nu + m, nu + m))
    expected[:, :nu, :nu] = np.eye(nu)
    expected[:, nu:, nu:] = (np.eye(m) + mats.stab_local_blocks) / phi
    rng = np.random.default_rng(7)
    for delta in np.concatenate([rng.uniform(-50.0, 50.0, 8), [-1e6, 1e6]]):
        local = uw_stage_blocks(mats, phi, delta)[0]
        local[:, nu:] /= phi
        sym = 0.5 * (local + local.transpose(0, 2, 1))
        assert np.abs(sym - expected).max() <= 1e-12 * max(1.0, abs(delta))
        assert np.linalg.eigvalsh(sym).min() > 0.0
        assert np.all(np.isfinite(np.linalg.inv(local)))


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
def test_phiu_local_blocks_invertible_for_nonnegative_scale(kind):
    # the u rows scaled by phi give symmetric part diag(I + delta S_l, phi I)
    spaces, mats = _matrices(kind, 2)
    phi = mats.params.phi
    ne, nu, m = mats.div_blocks.shape
    rng = np.random.default_rng(8)
    for delta in np.concatenate([[0.0], rng.uniform(0.0, 50.0, 8), [1e6]]):
        local = phiu_stage_blocks(mats, phi, delta)[0]
        local[:, m:] *= phi
        sym = 0.5 * (local + local.transpose(0, 2, 1))
        expected = np.zeros_like(sym)
        expected[:, :m, :m] = np.eye(m) + delta * mats.stab_local_blocks
        expected[:, m:, m:] = phi * np.eye(nu)
        assert np.abs(sym - expected).max() <= 1e-12 * max(1.0, delta)
        assert np.linalg.eigvalsh(sym).min() > 0.0


def test_singular_local_block_names_the_element():
    rng = np.random.default_rng(5)
    local = np.repeat(np.eye(3)[None], 4, axis=0) + 0.1 * rng.standard_normal((4, 3, 3))
    local[2, :, 1] = 0.0
    local[3] = 0.0
    cols = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    with pytest.raises(RuntimeError, match="element 2 is singular"):
        condense(lambda: (local, np.zeros((4, 3, 2)), np.zeros((4, 2, 3))),
                 sparse.identity(4, format="csr"), cols)


def test_init_solve_holds_no_block_inverse_or_products():
    # traced (numpy) peak of the L4, k = 2 standing-wave init solve against
    # a bound fixed before measuring: the local and coupling blocks, which
    # the condensation and the back-substitution each build, twice the
    # trace Schur complement in CSC (its scatter and the matrix SuperLU
    # takes), and 25% for the rest.  Holding A_e^-1, A^-1 B or C A^-1
    # beside them does not fit.  SuperLU's own factor is not traced.
    spec = make_problem("standing_wave", generate_uniform_square(4), 2)
    spaces = build_spaces(spec.mesh, 2)
    mats = assemble_all(spec.mesh, spaces, spec.params)
    local, from_trace = _init_blocks(mats, spec.params.alpha)
    trace, cols = _init_trace(mats, spec.params.alpha)
    ne, c = cols.shape
    pattern = abs(trace) + _block_rows(np.ones((ne, c, c)), cols, cols, trace.shape)
    pattern.sum_duplicates()
    schur_bytes = pattern.nnz * (8 + 4) + 4 * (trace.shape[0] + 1)
    bound = 1.25 * (local.nbytes + from_trace.nbytes + 2 * schur_bytes)
    del local, from_trace, trace, pattern

    tracemalloc.start()
    try:
        sol = solve_vector_laplacian(spec.mesh, spaces, spec.grad_phi0, spec.params,
                                     matrices=mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.residual <= 1e-12
    assert peak <= bound, f"init solve peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def _nbytes(matrix):
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def test_stage_blocks_die_before_the_factorization(monkeypatch):
    # traced (numpy) memory live when the L4, k = 2 midpoint stage of the
    # flux scheme is factored, against a bound fixed before measuring:
    # the Schur complement in CSC that SuperLU takes and the composed
    # R, K, Kt' the stepper keeps, and 25% for the rest.  The element
    # blocks and maps of the stage do not fit beside them.
    spec = make_problem("standing_wave", generate_uniform_square(4), 2)
    spaces = build_spaces(spec.mesh, 2)
    mats = assemble_all(spec.mesh, spaces, spec.params)
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
    live, factored = [], []
    real = elliptic.splu

    def spy(schur, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        factored.append(schur)
        return real(schur, **kwargs)

    monkeypatch.setattr(elliptic, "splu", spy)
    tracemalloc.start()
    try:
        stepper = SdirkIntegrator(system, make_sdirk(2), DT)
    finally:
        tracemalloc.stop()
    (R, K, Kt, _, _), = stepper._stages.values()
    bound = 1.25 * (_nbytes(factored[0]) + _nbytes(R) + _nbytes(K) + _nbytes(Kt))
    assert len(live) == 1
    assert live[0] <= bound, \
        f"live at the factorization {live[0] / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def _condensed_solve(kind):
    """A builder of one condensed solve on the L4, k = 2 standing wave,
    with its matrices assembled: the midpoint stage of the flux scheme,
    the recovery or the init solve."""
    spec = make_problem("standing_wave", generate_uniform_square(4), 2)
    spaces = build_spaces(spec.mesh, 2)
    mats = assemble_all(spec.mesh, spaces, spec.params)
    if kind == "stage":
        system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
        return lambda: SdirkIntegrator(system, make_sdirk(2), DT)
    if kind == "recovery":
        return PhiRecovery(mats).factor
    return lambda: solve_vector_laplacian(spec.mesh, spaces, spec.grad_phi0, spec.params,
                                          matrices=mats)


@pytest.mark.parametrize("kind", ["stage", "recovery", "init"])
def test_element_blocks_die_before_the_schur_scatter(kind, monkeypatch):
    # traced (numpy) memory live when condense scatters the trace Schur
    # complement, against a bound fixed before measuring: the coupling
    # blocks being scattered, the Schur complement condense returns and
    # what it returns beside it (the composed operators, or the reduced
    # init data), and 25% for the rest.  The element blocks and maps do
    # not fit beside them.
    build = _condensed_solve(kind)
    live, coupling, returned = [], [], []
    real_scatter, real_condense = elliptic._block_rows, elliptic.condense

    def scatter(blocks, rows, cols, shape, head=None):
        if head is not None:
            live.append(tracemalloc.get_traced_memory()[0])
            coupling.append(blocks.nbytes)
        return real_scatter(blocks, rows, cols, shape, head=head)

    def condensed(*args, **kwargs):
        returned.append(real_condense(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(elliptic, "_block_rows", scatter)
    monkeypatch.setattr(elliptic, "condense", condensed)
    monkeypatch.setattr(integrators, "condense", condensed)
    tracemalloc.start()
    try:
        build()
    finally:
        tracemalloc.stop()
    (schur, out), = returned
    beside = out.nbytes if kind == "init" else sum(map(_nbytes, out))
    bound = 1.25 * (coupling[0] + _nbytes(schur) + beside)
    assert len(live) == 1
    assert live[0] <= bound, \
        f"live at the Schur scatter {live[0] / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_init_blocks_die_before_the_factorization(monkeypatch):
    # traced (numpy) memory live when the L4, k = 2 standing-wave init
    # system is factored, against a bound fixed before measuring: the
    # Schur complement in CSC that SuperLU takes and half of the element
    # blocks (local and coupling).  The blocks themselves do not fit
    # beside it: they are built again for the back-substitution.
    spec = make_problem("standing_wave", generate_uniform_square(4), 2)
    spaces = build_spaces(spec.mesh, 2)
    mats = assemble_all(spec.mesh, spaces, spec.params)
    local, from_trace = _init_blocks(mats, spec.params.alpha)
    block_bytes = local.nbytes + from_trace.nbytes
    del local, from_trace
    live, factored = [], []
    real = elliptic.splu

    def spy(schur, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        factored.append(schur)
        return real(schur, **kwargs)

    monkeypatch.setattr(elliptic, "splu", spy)
    tracemalloc.start()
    try:
        sol = solve_vector_laplacian(spec.mesh, spaces, spec.grad_phi0, spec.params,
                                     matrices=mats)
    finally:
        tracemalloc.stop()
    bound = _nbytes(factored[0]) + 0.5 * block_bytes
    assert sol.residual <= 1e-12
    assert len(live) == 1
    assert live[0] <= bound, \
        f"live at the factorization {live[0] / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_init_holds_only_what_it_reads_at_the_factorization(monkeypatch):
    # traced (numpy) memory live when the L4, k = 2 standing-wave init
    # system is factored, assembly included, against a bound fixed before
    # measuring: the batched arrays of the assembled matrices, the trace
    # mass, the init trace block, the Schur complement in CSC with the
    # single-precision copy of its values, and 15% for the rest.  The
    # pairings the init does not read do not fit beside them.
    spec = make_problem("standing_wave", generate_uniform_square(4), 2)
    spaces = build_spaces(spec.mesh, 2)
    live, factored = [], []
    real = elliptic.splu

    def spy(schur, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        factored.append(schur)
        return real(schur, **kwargs)

    monkeypatch.setattr(elliptic, "splu", spy)
    tracemalloc.start()
    try:
        mats = assemble_all(spec.mesh, spaces, spec.params)
        sol = solve_vector_laplacian(spec.mesh, spaces, spec.grad_phi0, spec.params,
                                     matrices=mats)
    finally:
        tracemalloc.stop()
    trace = _init_trace(mats, spec.params.alpha)[0]
    schur = factored[0]
    arrays = sum(v.nbytes for v in vars(mats).values() if isinstance(v, np.ndarray))
    bound = 1.15 * (arrays + _nbytes(mats.stab_trace) + _nbytes(trace)
                    + schur.nnz * (8 + 4 + 4) + schur.indptr.nbytes)
    assert sol.residual <= 1e-12
    assert len(live) == 1
    assert live[0] <= bound, \
        f"live at the factorization {live[0] / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def _init_trace_solve(kind, k, monkeypatch):
    """(solution, Schur complement, data) of the init trace system on a
    mesh kind at degree k, captured from the refined solve."""
    captured = []
    real = elliptic._refined_solve

    def capture(schur, b):
        t = real(schur, b)
        captured.append((t, schur, b))
        return t

    monkeypatch.setattr(elliptic, "_refined_solve", capture)
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    sol = solve_vector_laplacian(mesh, spaces, _init_data, PhysicalParams(**INIT_PARAMS))
    assert len(captured) == 1
    return sol, *captured[0]


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_refined_init_solve_matches_a_double_factor(k, kind, monkeypatch):
    # against a double-precision splu solve of the same Schur complement
    sol, t, schur, b = _init_trace_solve(kind, k, monkeypatch)
    assert schur.dtype == np.float64
    assert _rel(t, splu(schur.tocsc()).solve(b)) <= 1e-12
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
def test_unrefined_init_solve_misses_the_double_factor(kind, monkeypatch):
    # the single-precision factor alone is accurate to float32 only
    monkeypatch.setattr(elliptic, "_INIT_REFINEMENTS", 0)
    _, t, schur, b = _init_trace_solve(kind, 2, monkeypatch)
    assert _rel(t, splu(schur.tocsc()).solve(b)) > 1e-12


def test_bordered_solve_matches_dense_system():
    # nonsymmetric blocks, a repeated trace column, and two multipliers as
    # extra trace unknowns: one coupled to every element's local rows (and
    # one trace row), one bordering the trace block only; against the
    # dense bordered system
    rng = np.random.default_rng(11)
    ne, n, nt, r = 4, 3, 5, 2
    local = 3.0 * np.eye(n) + rng.standard_normal((ne, n, n))
    from_trace = rng.standard_normal((ne, n, 2))
    to_trace = rng.standard_normal((ne, 2, n))
    cols = np.array([[0, 1], [1, 2], [2, 3], [4, 4]])
    trace = sparse.csr_matrix(5.0 * np.eye(nt) + rng.standard_normal((nt, nt)))
    border = np.zeros((ne * n + nt, r))
    border[:ne * n, 0] = rng.standard_normal(ne * n)
    border[ne * n + 2, 0] = 1.0
    border[ne * n + np.array([0, 3]), 1] = rng.standard_normal(2)

    dense = np.zeros((ne * n + nt + r, ne * n + nt + r))
    for e in range(ne):
        rows = e * n + np.arange(n)
        dense[np.ix_(rows, rows)] = local[e]
        for j, c in enumerate(cols[e]):
            dense[rows, ne * n + c] += from_trace[e, :, j]
            dense[ne * n + c, rows] += to_trace[e, j]
    dense[ne * n:ne * n + nt, ne * n:ne * n + nt] = trace.toarray()
    dense[:ne * n + nt, ne * n + nt:] = border
    dense[ne * n + nt:, :ne * n + nt] = border.T

    gauge = border[:ne * n, :1].reshape(ne, n, 1)
    b_trace = border[ne * n:]
    blocks = (local, np.concatenate([from_trace, gauge], axis=2),
              np.concatenate([to_trace, gauge.transpose(0, 2, 1)], axis=1))
    rhs = rng.standard_normal(dense.shape[0])
    x, t, residual = _solve_once(
        lambda: blocks, sparse.bmat([[trace, b_trace], [b_trace.T, None]], format="csr"),
        np.concatenate([cols, np.full((ne, 1), nt)], axis=1),
        rhs[:ne * n].reshape(ne, n), rhs[ne * n:])
    assert _rel(np.concatenate([x.reshape(-1), t]), np.linalg.solve(dense, rhs)) <= 1e-12
    assert residual <= 1e-12


def test_stage_failures_name_the_scale():
    spaces, mats = _matrices("wall", 1)
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
    m = spaces.scalar.dim_local

    # I + S_l of element 3 made zero: singular local block at scale 0
    blocks = mats.stab_local_blocks.copy()
    blocks[3] = -np.eye(m)
    broken = replace(system, matrices=replace(mats, stab_local_blocks=blocks))
    with pytest.raises(RuntimeError, match=r"stage scale 0\.0: local block of element 3 is singular"):
        SdirkIntegrator(broken, make_sdirk(2), 0.0)

    # no trace coupling and no trace block: the trace factorization fails
    zero = replace(mats, stab_trace=0.0 * mats.stab_trace,
                   facet_tensor=0.0 * mats.facet_tensor)
    spec = make_problem("standing_wave", mats.mesh, 1)
    run = replace(build_phiu_system(spec, spaces=spaces, matrices=mats), matrices=zero)
    with pytest.raises(RuntimeError, match=r"stage scale 0\.025: trace factorization failed"):
        PhiuIntegrator(run, make_sdirk(2), 0.05)
    # the recovery condenses at its first read and factors at its first solve
    rec = PhiRecovery(zero)
    with pytest.raises(RuntimeError, match="recovery factorization failed: trace"):
        rec.recover(np.ones(zero.vdofs.size))


@pytest.mark.parametrize("first", ["recover", "apply", "recover_transpose", "factor"])
def test_recovery_condenses_at_its_first_read(first):
    # I + S_l of element 3 made zero: the build condenses nothing, so it
    # succeeds; the first read condenses and names the singular block
    spaces, mats = _matrices("wall", 1)
    blocks = mats.stab_local_blocks.copy()
    blocks[3] = -np.eye(spaces.scalar.dim_local)
    rec = PhiRecovery(replace(mats, stab_local_blocks=blocks))
    assert rec.schur is None and rec._G is None
    args = {"recover": (np.ones(spaces.vector.ndof),), "apply": (np.ones(spaces.vector.ndof),),
            "recover_transpose": (np.ones(spaces.scalar.ndof),), "factor": ()}[first]
    with pytest.raises(RuntimeError, match="^recovery factorization failed: local block "
                                           "of element 3 is singular$"):
        getattr(rec, first)(*args)
    assert rec.schur is None


def _held_factors(holder):
    found = []
    for value in vars(holder).values():
        items = value.values() if isinstance(value, dict) else (value,)
        found.extend(f for f in items if hasattr(f, "L") and hasattr(f, "U"))
    return found


def test_every_held_factor_is_on_the_trace():
    mesh = pair_periodic(generate_uniform_square(2), "both")
    spec = make_problem("moving_bump", mesh, 2)
    run = build_phiu_system(spec)
    nm = run.spaces.trace.ndof
    rec = PhiRecovery(run.matrices)
    system = SemidiscreteSystem(matrices=run.matrices, recovery=rec)
    assert rec.factor().shape == (nm, nm)
    four_substeps = midpoint_composition(SUBSTEP_WEIGHTS[4])
    for stepper, scales in ((SdirkIntegrator(system, make_sdirk(2), 0.05), 1),
                            (SdirkIntegrator(system, make_sdirk(4), 0.05), 2),
                            (PhiuIntegrator(run, make_sdirk(2), 0.05), 1),
                            (PhiuIntegrator(run, four_substeps, 0.05), 2)):
        factors = _held_factors(stepper)
        assert len(factors) == len(stepper.trace_factors) == scales
        assert all(f.shape == (nm, nm) for f in factors)


# the init solve as first written: the five-block system in (sigma, phi,
# w, phi_hat, psi_hat) assembled whole, bordered, and factored by one LU

def _monolithic_init_couplings(mats):
    mesh = mats.mesh
    sc, tr = mats.spaces.scalar, mats.spaces.trace
    ne, m, md = mesh.num_elements, sc.dim_local, tr.dim_local
    ef = mesh.element_facets
    nw, nv, nm = sc.ndof, 2 * sc.ndof, tr.ndof

    dc_blocks = np.concatenate([mats.vol_dy.transpose(0, 2, 1),
                                -mats.vol_dx.transpose(0, 2, 1)], axis=1)
    curl_pair = _block_rows(dc_blocks, mats.vdofs.reshape(ne, 2 * m), mats.wdofs, (nv, nw))

    nk = mats.normals_signed
    nperp = np.stack([nk[..., 1], -nk[..., 0]], axis=-1)
    # psi_hat multiplies the unit tangent of the facet owning its dofs
    tdot = np.einsum("efd,efd->ef", mesh.facet_tangents[tr.owner[ef]], nperp)

    wt = mats.facet_tensor
    rows_w = np.broadcast_to(mats.wdofs[:, None, :], (ne, 3, m)).reshape(3 * ne, m)
    rows_v = np.broadcast_to(mats.vdofs.reshape(ne, 1, 2 * m), (ne, 3, 2 * m))
    cols_m = mats.mdofs[ef].reshape(3 * ne, md)

    t_blocks = tdot[..., None, None] * wt
    tang_pair = _block_rows(t_blocks.reshape(3 * ne, m, md), rows_w, cols_m, (nw, nm))
    y_blocks = tdot[..., None, None] * np.concatenate(
        [nperp[..., 0, None, None] * wt, nperp[..., 1, None, None] * wt], axis=2)
    tang_flux = _block_rows(y_blocks.reshape(3 * ne, 2 * m, md),
                            rows_v.reshape(3 * ne, 2 * m), cols_m, (nv, nm))
    xw = np.einsum("efa,efb,efij->eaibj", nperp, nperp,
                   mats.facet_elem_mass).reshape(ne, 2 * m, 2 * m)
    xw = 0.5 * (xw + xw.transpose(0, 2, 1))
    norm_pen = _block_rows(xw, mats.vdofs.reshape(ne, 2 * m),
                           mats.vdofs.reshape(ne, 2 * m), (nv, nv))
    z_blocks = (tdot ** 2)[..., None, None] * mats.facet_trace_mass
    tang_pen = _block_rows(z_blocks.reshape(3 * ne, md, md), cols_m, cols_m, (nm, nm))
    return curl_pair, tang_pair, tang_flux, norm_pen, tang_pen


def _monolithic_gauge(mesh, kind, spaces, off_w, off_psi, total):
    sc, tr = spaces.scalar, spaces.trace
    cols, dense = [], []
    moments = np.einsum("eq,eqi->ei", sc.qweights, sc.tab)
    m = sc.dim_local
    for axis, active in ((0, mesh.periodic_x), (1, mesh.periodic_y)):
        if not active:
            continue
        col = np.zeros(total)
        col[off_w + axis * m + np.arange(m)] = moments[0]
        cols.append(col / np.linalg.norm(col))
        full = np.zeros(total)
        dofs = off_w + (np.arange(mesh.num_elements) * 2 * m)[:, None] \
            + axis * m + np.arange(m)[None, :]
        full[dofs.reshape(-1)] = moments.reshape(-1)
        dense.append(full / np.linalg.norm(full))
    if kind in HOLES:
        # the circulation of psi_hat, clockwise about the hole centre
        ring, signs = _hole_ring(mesh, kind)
        col = np.zeros(total)
        col[off_psi + tr.owner_row[ring] * tr.dim_local] = signs * np.sqrt(mesh.facet_lengths[ring])
        cols.append(col / np.linalg.norm(col))
        dense.append(None)
    return cols, dense


def _monolithic_init(mesh, kind, spaces, f, params, mats):
    """(sigma, phi, w, phi_hat, psi_hat, multipliers) and the residual of
    the monolithic bordered solve."""
    nw, nv, nm = spaces.scalar.ndof, spaces.vector.ndof, spaces.trace.ndof
    curl_pair, tang_pair, tang_flux, norm_pen, tang_pen = \
        _monolithic_init_couplings(mats)
    ainv = 1.0 / params.alpha
    eye_w = sparse.identity(nw, format="csr")
    system = sparse.bmat([
        [-eye_w, None, curl_pair.T, None, -tang_pair],
        [None, -(mats.stab_local + eye_w), -mats.div_pair.T, mats.stab_mixed, None],
        [curl_pair, -mats.div_pair, ainv * norm_pen, flux_pairing(mats), -ainv * tang_flux],
        [None, mats.stab_mixed.T, flux_pairing(mats).T, -mats.stab_trace, None],
        [-tang_pair.T, None, -ainv * tang_flux.T, None, ainv * tang_pen],
    ], format="csr")
    total = 2 * nw + nv + 2 * nm
    cols, dense_cols = _monolithic_gauge(mesh, kind, spaces, 2 * nw, total - nm, total)
    w_mat = None
    if cols:
        border = sparse.csr_matrix(np.column_stack(cols))
        system = sparse.bmat([[system, border], [border.T, None]], format="csr")
        fixes = []
        for slot, (col, full) in enumerate(zip(cols, dense_cols)):
            if full is not None:
                delta = np.zeros(system.shape[0])
                delta[:total] = full - col
                picker = np.zeros(system.shape[0])
                picker[total + slot] = 1.0
                fixes.append((delta, picker))
        if fixes:
            r = len(fixes)
            w_mat = np.column_stack([d for d, _ in fixes] + [p for _, p in fixes])
            c_mat = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(r))
    rhs = np.zeros(system.shape[0])
    rhs[2 * nw:2 * nw + nv] = spaces.vector.project(f)
    lu = splu(system.tocsc())
    x = lu.solve(rhs)
    if w_mat is not None:
        y_mat = lu.solve(w_mat)
        small = c_mat + w_mat.T @ y_mat
        x = x - y_mat @ np.linalg.solve(small, w_mat.T @ x)
        applied = system @ x + w_mat @ (c_mat @ (w_mat.T @ x))
    else:
        applied = system @ x
    residual = np.linalg.norm(applied - rhs) / max(1.0, np.linalg.norm(rhs))
    bounds = np.cumsum([0, nw, nw, nv, nm, nm])
    return [x[a:b] for a, b in zip(bounds[:-1], bounds[1:])] + [x[total:]], residual


def _init_data(x, y):
    # a nonzero mean in both components gives the gauge multipliers work
    return np.sin(x) + 0.3 * y + 0.2, x * np.cos(y) - 0.1


INIT_PARAMS = dict(PARAMS, alpha=0.7)
INIT_KINDS = ["wall", "periodic", "holed", "holed-periodic"]


@pytest.mark.parametrize("kind", INIT_KINDS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_init_solve_matches_monolithic_oracle(k, kind):
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    params = PhysicalParams(**INIT_PARAMS)
    mats = assemble_all(mesh, spaces, params)
    sol = solve_vector_laplacian(mesh, spaces, _init_data, params, matrices=mats)
    ref, ref_residual = _monolithic_init(mesh, kind, spaces, _init_data, params, mats)
    got = [sol.sigma, sol.phi, sol.w, sol.phi_hat, sol.w_tangent, sol.multipliers]
    expected_gauges = {"wall": 0, "periodic": 2, "holed": 1, "holed-periodic": 3}[kind]
    assert sol.multipliers.size == expected_gauges
    for field, expected in zip(got, ref):
        assert field.shape == expected.shape
        if expected.size:
            assert _rel(field, expected) <= 1e-11
    assert sol.residual <= 1e-12 and ref_residual <= 1e-12


@pytest.mark.parametrize("kind", list(HOLES))
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_init_solve_pins_the_circulation_round_the_hole(k, kind):
    # the gauge removes the hole's harmonic field: the clockwise
    # circulation of psi_hat round the hole vanishes
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    sol = solve_vector_laplacian(mesh, spaces, _init_data, PhysicalParams(**INIT_PARAMS))
    ring, signs = _hole_ring(mesh, kind)
    tr = spaces.trace
    first = sol.w_tangent.reshape(-1, tr.dim_local)[tr.owner_row[ring], 0]
    circulation = np.sum(signs * np.sqrt(mesh.facet_lengths[ring]) * first)
    assert abs(circulation) <= 1e-12 * np.linalg.norm(sol.w_tangent)


@pytest.mark.parametrize("kind", INIT_KINDS)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_init_local_blocks_invertible(k, kind):
    # (sigma, phi) part negative definite; the w Schur complement
    # N/alpha + curl curl^T + D (I + S_l)^-1 D^T positive definite
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    params = PhysicalParams(**INIT_PARAMS)
    mats = assemble_all(mesh, spaces, params)
    local = _init_blocks(mats, params.alpha)[0]
    m = spaces.scalar.dim_local
    assert np.abs(local - local.transpose(0, 2, 1)).max() == 0.0
    head, cross, tail = local[:, :2 * m, :2 * m], local[:, 2 * m:, :2 * m], local[:, 2 * m:, 2 * m:]
    assert np.linalg.eigvalsh(head).max() < 0.0
    schur = tail - cross @ np.linalg.solve(head, cross.transpose(0, 2, 1))
    curl, div = cross[:, :, :m], -cross[:, :, m:]
    expected = (tail + curl @ curl.transpose(0, 2, 1)
                + div @ np.linalg.solve(np.eye(m) + mats.stab_local_blocks,
                                        div.transpose(0, 2, 1)))
    assert np.abs(schur - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.linalg.eigvalsh(0.5 * (schur + schur.transpose(0, 2, 1))).min() > 0.0
    assert np.all(np.isfinite(np.linalg.inv(local)))


@pytest.mark.parametrize("kind", ["wall", "periodic", "holed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_schur_complements_equal_the_straight_scatter(k, kind, monkeypatch):
    # every trace Schur complement condense returns (the init system with
    # its gauge multipliers, the recovery, the flux stages at sdirk4's two
    # scales and the height stage) against the straight scatter of the
    # coupling blocks it scattered, array for array
    calls, couplings = [], []
    real_condense, real_scatter = elliptic.condense, elliptic._block_rows

    def condensed(*args, **kwargs):
        out = real_condense(*args, **kwargs)
        calls.append((args[1], args[2], out[0]))
        return out

    def scatter(blocks, rows, cols, shape, head=None):
        if head is not None:
            couplings.append(-blocks)
        return real_scatter(blocks, rows, cols, shape, head=head)

    monkeypatch.setattr(elliptic, "condense", condensed)
    monkeypatch.setattr(integrators, "condense", condensed)
    monkeypatch.setattr(elliptic, "_block_rows", scatter)
    mesh = _mesh(kind)
    spaces = build_spaces(mesh, k)
    params = PhysicalParams(**INIT_PARAMS)
    mats = assemble_all(mesh, spaces, params)
    solve_vector_laplacian(mesh, spaces, _init_data, params, matrices=mats)
    PhiRecovery(mats).factor()
    SdirkIntegrator(SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats)),
                    make_sdirk(4), DT)
    PhiuIntegrator(build_phiu_system(make_problem("moving_bump", mesh, k, **INIT_PARAMS),
                                     spaces=spaces, matrices=mats), make_sdirk(2), DT)

    assert len(calls) == len(couplings) == 5
    gauges = calls[0][2].shape[0] - 2 * spaces.trace.ndof
    assert gauges == {"wall": 0, "periodic": 2, "holed": 1}[kind]
    for (trace, cols, schur), coupling in zip(calls, couplings):
        expected = straight_schur(trace, coupling, cols)
        assert schur.shape == expected.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(schur, part), getattr(expected, part)), part


def _perturbed(value, rng):
    """A copy of a float array or sparse matrix with every value moved by
    at most 1e-15 relative; anything else unchanged."""
    if sparse.issparse(value):
        value = value.tocsr(copy=True)
        value.data = _perturbed(value.data, rng)
        return value
    if isinstance(value, np.ndarray) and value.dtype == float:
        return value * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, value.shape))
    return value


def test_fill_does_not_depend_on_rounding(monkeypatch):
    # the init solve and the midpoint stage on the benchmark's holed
    # periodic box; the bound on the fill's move is fixed at 0.1%
    calls = []

    def capture(element_blocks, trace, cols, **kwargs):
        blocks = element_blocks()
        calls.append((*blocks, trace, cols))
        return condense(lambda: blocks, trace, cols, **kwargs)

    monkeypatch.setattr(elliptic, "condense", capture)
    monkeypatch.setattr(integrators, "condense", capture)
    mesh = pair_periodic(generate_rect_with_hole((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0),
                                                 1.0, 1.0), "both")
    run = build_uw_system(make_problem("moving_bump", mesh, 2))
    init = calls[0]
    make_integrator("midpoint", run.system, 0.05)
    stage = calls[-1]
    assert init[3].shape[0] > run.spaces.trace.ndof and stage[3] is run.matrices.stab_trace

    rng = np.random.default_rng(1)
    for args in (init, stage):
        fills = []
        for *blocks, trace, cols in (args, [_perturbed(a, rng) for a in args]):
            lu = factor_trace(condense(lambda: blocks, trace, cols)[0])
            fills.append(lu.L.nnz + lu.U.nnz)
        assert abs(fills[1] - fills[0]) <= 1e-3 * fills[0]


@pytest.fixture(scope="module")
def bump_stage():
    """Trace Schur complement of the midpoint stage on the benchmark's
    rotating holed periodic box, as :func:`condense` returns it; rotation
    makes it nonsymmetric."""
    captured = []

    def capture(*args, **kwargs):
        out = condense(*args, **kwargs)
        captured.append(out[0])
        return out

    mesh = pair_periodic(generate_rect_with_hole((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0),
                                                 1.0, 1.0), "both")
    run = build_uw_system(make_problem("moving_bump", mesh, 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrators, "condense", capture)
        make_integrator("midpoint", run.system, 0.05)
    schur, = captured
    assert abs(schur - schur.T).max() > 1e-6 * abs(schur).max()
    return schur


def test_trace_factor_solves_with_the_schur_complement(bump_stage):
    # against a plain double-precision splu solve with S
    b = np.random.default_rng(12).standard_normal(bump_stage.shape[0])
    t = factor_trace(bump_stage).solve(b)
    assert _rel(t, splu(bump_stage.tocsc()).solve(b)) <= 1e-12


def test_trace_factor_transposed_solve_is_with_the_transpose(bump_stage):
    # the solve of recover_transpose: against a splu solve with S^T
    b = np.random.default_rng(13).standard_normal(bump_stage.shape[0])
    t = factor_trace(bump_stage).solve(b, trans="T")
    assert _rel(t, splu(bump_stage.T.tocsc()).solve(b)) <= 1e-12


def test_trace_factor_copies_no_schur_complement(bump_stage, monkeypatch):
    # SuperLU factors S^T over the arrays condense returned
    factored = []
    real = elliptic.splu

    def spy(matrix, **kwargs):
        factored.append(matrix)
        return real(matrix, **kwargs)

    monkeypatch.setattr(elliptic, "splu", spy)
    factor_trace(bump_stage)
    matrix, = factored
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(matrix, name), getattr(bump_stage, name)), name
