"""Optimality-criteria and projected-gradient solvers on the reference frames."""

import dataclasses

import numpy as np
import pytest
import scipy.optimize

from frameopt.analysis import compliance, compliance_gradient
from frameopt.local import (
    BracketError,
    NlpConfig,
    OcConfig,
    oc_b_factors,
    oc_bisect_mu,
    oc_step,
    project_design,
    run_local_nlp,
    run_oc,
)
from frameopt.model import FrameAssembly, uniform_design
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


def test_bisection_meets_volume_target():
    gs = make_cantilever(3)
    cfg = OcConfig()
    asm = gs.assembly
    a = uniform_design(gs)
    res = compliance(gs, a)
    num = res.energy_stiffness - res.energy_load
    mu = oc_bisect_mu(a, num, asm.lengths, gs.volume_bound, cfg)
    resized = oc_step(a, oc_b_factors(num, asm.lengths, mu), cfg)
    assert asm.lengths @ resized == pytest.approx(gs.volume_bound, rel=1e-9)


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


@pytest.mark.parametrize("runner", [run_oc, run_local_nlp, run_nsdp_local])
def test_local_solve_assembles_once(runner, monkeypatch):
    # Each solver reuses the assembly its validation built.
    calls = []
    original = FrameAssembly.__init__

    def counting_init(self, gs):
        calls.append(gs)
        original(self, gs)

    monkeypatch.setattr(FrameAssembly, "__init__", counting_init)
    runner(make_cantilever(1))
    assert len(calls) == 1
