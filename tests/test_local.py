"""Optimality-criteria and projected-gradient solvers on the reference frames."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from frameopt import local, problems
from frameopt.analysis import compliance, compliance_gradient
from frameopt.local import (
    BracketError,
    OcConfig,
    kkt_residual,
    oc_b_factors,
    oc_multiplier,
    oc_step,
    project_design,
    run_local_nlp,
    run_oc,
)
from frameopt.model import (
    CIRCLE_SECTION,
    Element,
    FrameAssembly,
    GroundStructure,
    NodalForce,
    NodalMoment,
    Node,
    Support,
    uniform_design,
)
from frameopt.nsdp import run_nsdp_local

from conftest import closed_form_tip_compliance, make_cantilever, make_girder, make_ten_beam, rng

# Converged designs, frozen from runs cross-checked against the closed-form
# cantilever compliance and the statically determinate girder.
CANT3_AREAS = np.array([0.141767, 0.102424, 0.055809])
CANT3_COMPLIANCE = 80.302240
GIRDER_AREAS = np.array([0.009546, 0.017145, 0.022004, 0.024951, 0.026354])
GIRDER_COMPLIANCE = 1372.254653
TENBEAM_AREAS = np.array(
    [0.069501, 0.0, 0.185909, 0.0, 0.042544, 0.0, 0.097948, 0.0, 0.063522, 0.0]
)
TENBEAM_COMPLIANCE = 959.318399


# -- optimality criteria pieces ---------------------------------------------

def test_b_factor_formula_and_clamp():
    num = np.array([4.0, 0.0, -3.0])
    lengths = np.array([2.0, 1.0, 1.0])
    b = oc_b_factors(num, lengths, mu=2.0)
    assert np.allclose(b, [1.0, 0.0, 0.0])
    # Scaling mu scales b inversely.
    assert np.allclose(oc_b_factors(num, lengths, 0.5) * 0.25, b)
    with pytest.raises(ValueError):
        oc_b_factors(num, lengths, 0.0)


def test_oc_step_fixpoint_and_move_limit():
    cfg = OcConfig()
    a = np.array([0.3, 1.0, 0.5])
    assert np.allclose(oc_step(a, np.ones(3), cfg), a)  # b = 1 leaves a alone
    # b = 0 hits the (1 - zeta) move limit, not zero.
    stepped = oc_step(np.array([1.0]), np.array([0.0]), cfg)
    assert stepped[0] == pytest.approx(0.8)
    # The floor wins once the move limit would dip below eps.
    assert oc_step(np.array([1e-6]), np.array([0.0]), cfg)[0] == cfg.eps


def test_oc_step_growth_exponent():
    cfg = OcConfig()
    a = np.array([0.1])
    b = np.array([2.0])
    assert oc_step(a, b, cfg)[0] == pytest.approx(0.1 * 2.0**cfg.eta)


def test_oc_multiplier_meets_volume_target():
    gs = make_cantilever(3)
    cfg = OcConfig()
    asm = gs.assembly
    a = uniform_design(gs)
    res = compliance(gs, a)
    num = res.energy_stiffness - res.energy_load
    mu = oc_multiplier(a, num, asm.lengths, gs.volume_bound, cfg)
    resized = oc_step(a, oc_b_factors(num, asm.lengths, mu), cfg)
    assert asm.lengths @ resized == pytest.approx(gs.volume_bound, rel=1e-12)


def test_oc_multiplier_meets_volume_target_on_random_cases():
    # Non-positive numerators, elements at the floor and budgets from the
    # move-limited minimum up to three times it.
    gen = rng(11)
    cfg = OcConfig()
    for _ in range(200):
        n = int(gen.integers(1, 40))
        lengths = gen.uniform(0.3, 3.0, n)
        a = np.where(gen.random(n) < 0.2, cfg.eps, gen.uniform(1e-4, 1.0, n))
        num = gen.normal(1.0, 1.0, n) * 10.0 ** gen.uniform(-3.0, 3.0)
        num[0] = abs(num[0]) + 1e-3
        floor_volume = lengths @ np.maximum((1.0 - cfg.zeta) * a, cfg.eps)
        vbar = floor_volume * gen.uniform(1.0, 3.0)
        mu = oc_multiplier(a, num, lengths, vbar, cfg)
        assert mu > 0.0
        resized = oc_step(a, oc_b_factors(num, lengths, mu), cfg)
        assert lengths @ resized == pytest.approx(vbar, rel=1e-12)


def test_oc_multiplier_rejects_unattainable_volume():
    cfg = OcConfig()
    a = np.array([0.5, 0.2, 0.1])
    lengths = np.array([1.0, 2.0, 1.0])
    num = np.array([1.0, 2.0, 0.5])
    with pytest.raises(BracketError, match="numerators"):
        oc_multiplier(a, np.array([0.0, -1.0, 0.0]), lengths, 1.0, cfg)
    # The move limit keeps each area at 0.8 a_i or more: volume 0.8 * 1.0.
    with pytest.raises(BracketError, match="minimum"):
        oc_multiplier(a, num, lengths, 0.79, cfg)
    assert oc_multiplier(a, num, lengths, 0.81, cfg) > 0.0
    # A budget equal to that minimum puts every element at its move limit.
    floor_volume = lengths @ np.maximum((1.0 - cfg.zeta) * a, cfg.eps)
    mu = oc_multiplier(a, num, lengths, floor_volume, cfg)
    resized = oc_step(a, oc_b_factors(num, lengths, mu), cfg)
    assert lengths @ resized == pytest.approx(floor_volume, rel=1e-12)
    for eta in (0.0, -0.3):
        with pytest.raises(ValueError):
            oc_multiplier(a, num, lengths, 1.0, dataclasses.replace(cfg, eta=eta))


def test_budget_below_floor_raises():
    gs = dataclasses.replace(make_cantilever(3), volume_bound=1e-8)  # below eps * total length
    with pytest.raises(BracketError):
        run_oc(gs)
    with pytest.raises(BracketError):
        run_local_nlp(gs)


# -- optimality criteria runs -----------------------------------------------

def test_oc_single_element_cantilever():
    r = run_oc(make_cantilever(1))
    assert r.status == "converged"
    assert r.areas[0] == pytest.approx(0.1, abs=1e-12)
    assert r.compliance == pytest.approx(closed_form_tip_compliance(0.1), rel=1e-12)


def test_oc_cantilever3_reference_design(cantilever3):
    r = run_oc(cantilever3)
    assert r.status == "converged"
    assert r.stationarity <= 1e-4
    assert r.compliance == pytest.approx(CANT3_COMPLIANCE, rel=1e-6)
    assert np.allclose(r.areas, CANT3_AREAS, atol=2e-6)
    # Tapered moment arms: area decreases toward the tip.
    assert r.areas[0] > r.areas[1] > r.areas[2]


def test_oc_history_feasible_and_descending(cantilever3):
    r = run_oc(cantilever3)
    volumes = np.array([h[0] for h in r.history])
    values = np.array([h[1] for h in r.history])
    assert np.all(volumes <= cantilever3.volume_bound * (1.0 + 1e-9))
    assert np.all(np.diff(values) <= 1e-6 * values[:-1])


def test_oc_girder_reference_design(girder):
    r = run_oc(girder)
    assert r.status == "converged"
    assert r.compliance == pytest.approx(GIRDER_COMPLIANCE, rel=1e-6)
    assert np.allclose(r.areas, GIRDER_AREAS, atol=2e-6)
    # Self-weight and midspan symmetry push material toward the guide end.
    assert np.all(np.diff(r.areas) > 0.0)


def test_oc_ten_beam_reference_design(ten_beam):
    r = run_oc(ten_beam)
    assert r.status == "converged"
    assert r.compliance == pytest.approx(TENBEAM_COMPLIANCE, rel=1e-6)
    # Alternating members vanish to the floor.
    assert np.all(r.areas[1::2] <= 1.1e-6)
    assert np.allclose(r.areas, TENBEAM_AREAS, atol=2e-6)


# -- projection ---------------------------------------------------------------

def test_projection_matches_qp_oracle():
    gen = rng(7)
    lengths = gen.uniform(0.5, 2.0, 6)
    vbar = 1.0
    floor = 1e-6
    for _ in range(10):
        z = gen.uniform(-1.0, 1.5, 6)
        p = project_design(z, lengths, vbar, floor)
        assert np.all(p >= floor - 1e-15)
        assert lengths @ p <= vbar * (1.0 + 1e-12)
        ref = scipy.optimize.minimize(
            lambda x: 0.5 * np.sum((x - z) ** 2),
            np.clip(z, floor, None),
            jac=lambda x: x - z,
            bounds=[(floor, None)] * 6,
            constraints=[{"type": "ineq", "fun": lambda x: vbar - lengths @ x,
                          "jac": lambda x: -lengths}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 200},
        )
        assert np.allclose(p, ref.x, atol=5e-7)


def exact_projection(z, lengths, vbar, floor):
    """Projection in exact rational arithmetic: the root t >= 0 of the
    piecewise-linear V(t) = l' max(z - t l, floor) = vbar, by interpolation
    between consecutive kinks; the floor design where vbar is below the
    floor volume."""
    zq = [Fraction(x) for x in z]
    lq = [Fraction(x) for x in lengths]
    fq, vq = Fraction(floor), Fraction(vbar)

    def areas(t):
        return [max(zi - t * li, fq) for zi, li in zip(zq, lq)]

    def volume(t):
        return sum(li * ai for li, ai in zip(lq, areas(t)))

    t = Fraction(0)
    if volume(t) > vq:
        points = sorted({(zi - fq) / li for zi, li in zip(zq, lq)} | {t})
        points = [p for p in points if p >= 0]
        t = points[-1]
        for lo, hi in zip(points, points[1:]):
            v_lo, v_hi = volume(lo), volume(hi)
            if v_hi <= vq <= v_lo:
                t = lo + (v_lo - vq) * (hi - lo) / (v_lo - v_hi)
                break
    return np.array([float(ai) for ai in areas(t)]), t


def assert_exact_projection(z, lengths, vbar, floor):
    p = project_design(z, lengths, vbar, floor)
    # Feasible as computed, not only to a tolerance.
    assert lengths @ p <= vbar
    assert np.all(p >= floor)
    scale = max(float(np.max(np.abs(z))), floor, 1e-300)
    tol = 64.0 * np.finfo(float).eps * scale
    # p = max(z - t l, floor) for one t >= 0, read off the elements above
    # the floor; with none above it, any t past the largest kink.
    above = p > floor
    if np.any(above):
        t = float(np.mean((z[above] - p[above]) / lengths[above]))
    else:
        t = max(float(np.max((z - floor) / lengths)), 0.0)
    assert t >= -tol
    assert np.allclose(p, np.maximum(z - t * lengths, floor), rtol=0.0, atol=tol)
    ref, _ = exact_projection(z, lengths, vbar, floor)
    assert np.allclose(p, ref, rtol=0.0, atol=tol)
    return p


def test_projection_exact_on_random_cases():
    gen = rng(5)
    for trial in range(300):
        n = int(gen.integers(1, 12))
        lengths = gen.uniform(0.3, 3.0, n)
        floor = (0.0, 1e-6, 1e-2)[trial % 3]
        z = gen.normal(0.3, 0.5, n)
        if trial % 4 == 0:
            # Tied kinks: a group of elements that reach the floor together.
            k = int(gen.integers(1, n + 1))
            z[:k] = floor + 0.4 * lengths[:k]
        floor_volume = floor * float(np.sum(lengths))
        top = float(lengths @ np.maximum(z, floor))
        vbar = floor_volume + gen.uniform(0.01, 1.2) * (top - floor_volume)
        assert_exact_projection(z, lengths, vbar, floor)


def test_projection_all_at_floor():
    lengths = np.array([1.0, 0.7, 2.5, 1.3])
    floor = 1e-3
    z = np.array([0.4, 0.9, 0.1, 0.25])
    # A budget that only the floor design meets, computed as the solver
    # computes volumes.
    vbar = float(lengths @ np.full(4, floor))
    p = assert_exact_projection(z, lengths, vbar, floor)
    assert np.all(p == floor)
    # Everything below the floor: the floor design, returned as is.
    below = np.array([-1.0, 0.0, 5e-4, -2.0])
    assert np.all(project_design(below, lengths, 1.0, floor) == floor)


def test_projection_recovers_from_roundoff_excess():
    # At the exact root, rounded to the nearest float, this design's volume
    # still comes out above vbar; the projection has to move t further.
    z = np.array([0.536, 0.614, 0.072, 1.049])
    lengths = np.array([0.855, 1.702, 1.373, 0.641])
    vbar = 0.291
    _, t_exact = exact_projection(z, lengths, vbar, 0.0)
    assert lengths @ np.maximum(z - float(t_exact) * lengths, 0.0) > vbar
    assert_exact_projection(z, lengths, vbar, 0.0)


def test_projection_idempotent_and_identity_inside():
    lengths = np.array([1.0, 2.0])
    inside = np.array([0.1, 0.2])
    assert np.allclose(project_design(inside, lengths, 1.0, 1e-6), inside)
    out = project_design(np.array([5.0, 5.0]), lengths, 1.0, 1e-6)
    assert np.allclose(project_design(out, lengths, 1.0, 1e-6), out, atol=1e-12)


# -- projected gradient runs --------------------------------------------------

def test_nlp_single_element_cantilever():
    r = run_local_nlp(make_cantilever(1))
    assert r.status == "converged"
    assert r.compliance == pytest.approx(closed_form_tip_compliance(0.1), rel=1e-10)


@pytest.mark.parametrize("n_e", [1, 3, 5, 7])
def test_nlp_cantilever_family_reaches_stationarity(n_e):
    r = run_local_nlp(make_cantilever(n_e))
    assert r.status == "converged"
    assert r.stationarity <= 1e-6
    # Agrees with the resizing solver on the same basin.
    oc = run_oc(make_cantilever(n_e))
    assert r.compliance == pytest.approx(oc.compliance, rel=1e-5)


def test_nlp_cantilever3_reference_design(cantilever3):
    r = run_local_nlp(cantilever3)
    assert r.compliance == pytest.approx(CANT3_COMPLIANCE, rel=1e-6)
    assert np.allclose(r.areas, CANT3_AREAS, atol=1e-5)


def test_nlp_girder_reference_design(girder):
    r = run_local_nlp(girder)
    assert r.status == "converged"
    assert r.compliance == pytest.approx(GIRDER_COMPLIANCE, rel=1e-6)
    assert np.allclose(r.areas, GIRDER_AREAS, atol=2e-4)


def test_nlp_ten_beam_same_basin(ten_beam):
    r = run_local_nlp(ten_beam)
    assert r.status == "converged"
    assert r.compliance == pytest.approx(TENBEAM_COMPLIANCE, rel=1e-5)


def test_nlp_history_feasible_and_stationarity_drops(cantilever3):
    r = run_local_nlp(cantilever3)
    volumes = np.array([h[0] for h in r.history])
    stats = np.array([h[2] for h in r.history])
    assert np.all(volumes <= cantilever3.volume_bound * (1.0 + 1e-9))
    assert stats[-1] <= 1e-6
    assert stats[-1] < stats[0]


def test_nlp_kkt_multiplier_consistency(cantilever3):
    # At the solution the negative gradient is a positive multiple of the
    # length vector on the active (volume-bound) face.
    r = run_local_nlp(cantilever3)
    asm = cantilever3.assembly
    res = compliance(cantilever3, r.areas)
    g = compliance_gradient(res)
    mu = -(g @ asm.lengths) / (asm.lengths @ asm.lengths)
    assert mu > 0.0
    assert np.linalg.norm(g + mu * asm.lengths, np.inf) <= 1e-4 * np.linalg.norm(g, np.inf)


def test_kkt_residual_vanishes_only_at_kkt_points():
    lengths = np.array([1.0, 2.0, 0.5, 1.0])
    a = np.array([0.3, 0.1, 0.2, 1e-6])
    # -dc/da = mu l on the active members, below mu l on the floored one.
    grad = -3.0 * lengths * np.array([1.0, 1.0, 1.0, 0.5])
    assert kkt_residual(grad, a, lengths, 1e-6) == pytest.approx(0.0, abs=1e-15)
    # A floored member that would grow, and an unbalanced active one.
    grad_up = grad.copy()
    grad_up[3] = -3.0 * lengths[3] * 1.25
    assert kkt_residual(grad_up, a, lengths, 1e-6) == pytest.approx(0.25)
    grad_off = grad * np.array([1.0, 1.0, 1.1, 1.0])
    assert 0.0 < kkt_residual(grad_off, a, lengths, 1e-6) < 0.1
    # Scale-free: the residual ignores the units of the compliance.
    assert kkt_residual(1e6 * grad_off, a, lengths, 1e-6) == \
        pytest.approx(kkt_residual(grad_off, a, lengths, 1e-6), rel=1e-12)
    # No active member, or no positive multiplier: no KKT point.
    assert kkt_residual(grad, np.full(4, 1e-6), lengths, 1e-6) == math.inf
    assert kkt_residual(-grad, a, lengths, 1e-6) == math.inf


@pytest.mark.parametrize("gs, max_iter", [
    (problems.cantilever(100), 600),
    (make_girder(n_e=11, volume=0.44), 100),
], ids=["cantilever-100", "girder-11"])
def test_nlp_stops_at_float_floor_on_kkt_residual(gs, max_iter):
    # The projected-gradient measure floors above STAT_TOL in these units
    # (1.1e-7 and 1.4e-6); the scale-free KKT residual still certifies
    # the design, which is oc's optimum.
    r = run_local_nlp(gs)
    assert (r.status, r.reason) == ("converged", "kkt residual met")
    assert r.iterations <= max_iter
    assert r.stationarity > local.STAT_TOL
    assert r.diagnostics["kkt_residual"] <= local.KKT_TOL
    oc = run_oc(gs)
    assert r.compliance == pytest.approx(oc.compliance, rel=1e-8)


def make_grid_cell(volume: float, loads: list) -> GroundStructure:
    """One unit cell of circular beams with both diagonals, clamped along
    its left edge (nodes 1 and 3)."""
    nodes = [Node(1, 0.0, 0.0), Node(2, 1.0, 0.0), Node(3, 0.0, 1.0), Node(4, 1.0, 1.0)]
    pairs = [(1, 2), (3, 4), (2, 4), (1, 4), (2, 3)]
    elements = [Element(k + 1, a, b, 1.0, CIRCLE_SECTION) for k, (a, b) in enumerate(pairs)]
    supports = [Support(1, True, True, True), Support(3, True, True, True)]
    return GroundStructure(nodes, elements, supports, loads, volume, "grid-cell")


# Grid cells on which the penalty method used to end a few 1e-9 relative
# above the volume bound.
GRID_CELLS = {
    "grid-cell-a": (0.197575444232, [
        NodalForce(2, 1.381051786898, 1.549679514649), NodalMoment(2, -1.059995523531),
        NodalForce(4, -0.375635292406, -0.17538335494), NodalMoment(4, -1.949967565297)]),
    "grid-cell-b": (0.220611857798, [
        NodalForce(2, -0.855633137886, 0.286971389094), NodalMoment(2, 0.901071281438),
        NodalForce(4, -0.743674030679, -0.926353574002), NodalMoment(4, -0.86664971034)]),
}


@pytest.mark.parametrize("case", ["cantilever-1", "cantilever-3", *GRID_CELLS])
def test_nsdp_converged_design_meets_volume_bound(case):
    if case in GRID_CELLS:
        gs = make_grid_cell(*GRID_CELLS[case])
    else:
        gs = make_cantilever(int(case.split("-")[1]))
    r = run_nsdp_local(gs)
    assert r.status == "converged"
    assert r.reason == "criterion met"
    assert gs.assembly.lengths @ r.areas <= gs.volume_bound
    assert np.all(r.areas >= 0.0)
    # The reported value is the FEM compliance of the reported design.
    assert r.compliance == compliance(gs, r.areas).compliance


def test_local_results_name_their_stop_reason(girder, monkeypatch):
    assert run_oc(make_cantilever(3)).reason == "criterion met"
    nlp = run_local_nlp(make_cantilever(3))
    assert nlp.reason == "criterion met"
    assert nlp.diagnostics["kkt_residual"] <= 1e-6
    monkeypatch.setattr(local, "OC_MAX_ITER", 2)
    assert run_oc(make_cantilever(3)).reason == "iteration limit"
    monkeypatch.setattr(local, "NLP_MAX_ITER", 3)
    capped = run_local_nlp(make_cantilever(3))
    assert (capped.status, capped.reason, capped.iterations) == ("iter-limit", "iteration limit", 3)
    infeasible = run_nsdp_local(girder)
    assert infeasible.reason == "infeasible point"


def test_nlp_early_stop_reports_its_reason(monkeypatch):
    # A line search that can never accept ends the run before the cap; the
    # status stays iter-limit and the reason names the line search.
    real = local.compliance
    calls = []

    def worse_after_start(gs, a):
        res = real(gs, a)
        calls.append(1)
        if len(calls) > 1:
            return dataclasses.replace(res, compliance=math.inf)
        return res

    monkeypatch.setattr(local, "compliance", worse_after_start)
    r = run_local_nlp(make_cantilever(3))
    assert r.status == "iter-limit"
    assert r.reason == "line search failed"
    assert r.iterations < local.NLP_MAX_ITER


@pytest.mark.parametrize("runner", [run_oc, run_local_nlp, run_nsdp_local])
def test_local_solve_assembles_once(runner, monkeypatch):
    # Each solver reuses the assembly its validation built.
    calls = []
    original = FrameAssembly.__init__

    def counting_init(self, gs):
        calls.append(gs)
        original(self, gs)

    monkeypatch.setattr(FrameAssembly, "__init__", counting_init)
    result = runner(make_cantilever(1))
    assert len(calls) == 1
    # Every local result splits its wall time into FEM solves and the rest.
    phases = result.diagnostics["phase_s"]
    assert set(phases) == {"fem", "rest"}
    assert phases["fem"] > 0.0 and phases["rest"] > 0.0
