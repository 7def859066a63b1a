"""Equilibrium, compliance, and sensitivity checks against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
import sympy

from frameopt.analysis import (
    DanglingLoadError,
    ReducedSystem,
    compliance,
    compliance_gradient,
    reduce,
    solve_displacements,
    uniform_upper_bound,
)
from frameopt.model import (
    Element,
    FrameAssembly,
    GroundStructure,
    NodalForce,
    Node,
    Support,
    uniform_design,
)

from conftest import closed_form_tip_compliance, make_cantilever, make_girder, make_ten_beam, rng


def test_axial_rod_tip_displacement():
    nodes = [Node(1, 0.0, 0.0), Node(2, 1.0, 0.0)]
    gs = GroundStructure(nodes, [Element(1, 1, 2)], [Support(1, True, True, True)],
                         [NodalForce(2, fx=1.0)], 0.1)
    res = compliance(gs, np.array([0.1]))
    assert res.u[3] == pytest.approx(10.0, rel=1e-12)  # u = F l / (E A)
    assert res.compliance == pytest.approx(10.0, rel=1e-12)


def test_cantilever_closed_form_107_50():
    gs = make_cantilever(1)
    res = compliance(gs, np.array([0.1]))
    expected = closed_form_tip_compliance(0.1)
    assert expected == pytest.approx(107.5, abs=1e-12)
    assert res.compliance == pytest.approx(expected, rel=1e-9)


def test_uniform_cantilever_compliance_mesh_independent():
    # The uniform design is a prismatic beam; Hermite elements reproduce the
    # exact tip-loaded solution, so every discretization returns 107.50.
    for n in (1, 3, 5, 7):
        c_hat, a = uniform_upper_bound(make_cantilever(n))
        assert np.allclose(a, 0.1 / 1.0)
        assert c_hat == pytest.approx(107.5, rel=1e-9)


def test_zero_load_zero_displacement(cantilever3):
    unloaded = dataclasses.replace(cantilever3, loads=())
    res = compliance(unloaded, np.full(3, 0.1))
    assert res.compliance == 0.0
    assert np.count_nonzero(res.u) == 0


def test_compliance_identities(ten_beam):
    a = rng(5).uniform(0.02, 0.2, 10)
    asm = ten_beam.assembly
    res = compliance(ten_beam, a)
    K = asm.stiffness(a)
    f = asm.loads(a)
    u_hat = res.u[asm.free]
    assert res.compliance >= 0.0
    assert res.compliance == pytest.approx(f @ res.u, rel=1e-12)
    assert res.compliance == pytest.approx(u_hat @ K @ u_hat, rel=1e-10)
    # Supported DOFs carry exact zeros.
    assert not np.any(np.delete(res.u, asm.free))


def test_random_spd_residual():
    gen = rng(6)
    m = gen.normal(size=(5, 5))
    K = m @ m.T + 5.0 * np.eye(5)
    f = gen.normal(size=5)
    rs = ReducedSystem(free=np.arange(5), K=K, f=f, n_dof=5)
    u = solve_displacements(rs)
    assert np.linalg.norm(K @ u - f) <= 1e-9 * np.linalg.norm(f)


def test_dangling_dof_with_load_rejected():
    gs = make_cantilever(3)
    with pytest.raises(DanglingLoadError):
        compliance(gs, np.array([0.3, 0.0, 0.0]))


def test_dangling_reduction_keeps_loaded_substructure():
    gs = dataclasses.replace(
        make_cantilever(3),
        loads=[NodalForce(2, fx=math.cos(math.pi / 6), fy=-math.sin(math.pi / 6))])
    asm = FrameAssembly(gs)
    a = np.array([0.3, 0.0, 0.0])
    rs = reduce(asm, a, asm.loads(a))
    assert rs.free.size == 3
    assert rs.n_dangling == 6
    res = compliance(gs, a)
    # Identical to the one-element substructure of length 1/3.
    sub = GroundStructure(gs.nodes[:2], gs.elements[:1], gs.supports,
                          [NodalForce(2, fx=math.cos(math.pi / 6), fy=-math.sin(math.pi / 6))], 0.1)
    res_sub = compliance(sub, np.array([0.3]))
    assert res.compliance == pytest.approx(res_sub.compliance, rel=1e-12)
    assert res.compliance == pytest.approx(closed_form_tip_compliance(0.3, 1.0 / 3.0), rel=1e-9)


def test_uniform_upper_bound_girder_matches_beam_theory():
    # Uniform half-girder: EI constant, line load q = 1 + rho*a.  Solve the
    # Euler-Bernoulli ODE symbolically with v(0)=0, v''(0)=0 (pin) and
    # v'(L)=0, v'''(L)=0 (symmetry); consistent nodal loads make the FEM
    # nodal displacements exact, and compliance only samples nodal values.
    c_hat, areas = uniform_upper_bound(make_girder("consistent"))
    assert np.allclose(areas, 0.02)

    x = sympy.symbols("x")
    a_val = sympy.Rational(1, 50)
    e_mod = 10**4
    inertia = sympy.Rational(58, 27) * a_val**2
    q = 1 + 3 * a_val  # downward
    span = 10
    c1, c2, c3, c4 = sympy.symbols("c1:5")
    v = -q * x**4 / 24 + c1 * x**3 / 6 + c2 * x**2 / 2 + c3 * x + c4
    v = v / (e_mod * inertia)
    sol = sympy.solve(
        [
            v.subs(x, 0),
            sympy.diff(v, x, 2).subs(x, 0),
            sympy.diff(v, x, 1).subs(x, span),
            sympy.diff(v, x, 3).subs(x, span),
        ],
        [c1, c2, c3, c4],
        dict=True,
    )[0]
    v = v.subs(sol)
    ell = 2
    # Work of the consistent loads on the exact nodal displacements: interior
    # nodes carry q*ell, end nodes q*ell/2; end moments q*ell^2/12 act on the
    # free rotation at the pin (+) and cancel at interior nodes.
    work = 0
    for node_i in range(6):
        xi = 2 * node_i
        factor = 1 if node_i in (0, 5) else 2
        work += -q * ell / 2 * factor * v.subs(x, xi)
    # theta DOF at the pin: load -q l^2/12, rotation v'(0); midspan rotation is fixed.
    work += -q * ell**2 / 12 * sympy.diff(v, x).subs(x, 0)
    expected = float(work)
    assert c_hat == pytest.approx(expected, rel=1e-9)


def test_uniform_upper_bound_girder_lumped_matches_statics(girder):
    # Under lumped loads the half-girder carries pure point loads and is
    # statically determinate (pin carries all shear, the symmetry guide the
    # end moment), so c = int M(x)^2 / (EI) dx with piecewise-linear M.
    c_hat, areas = uniform_upper_bound(girder)
    assert np.allclose(areas, 0.02)

    q = 1.0 + 3.0 * 0.02        # line load intensity incl. self-weight
    ell = 2.0
    e_i = 1.0e4 * (58.0 / 27.0) * 0.02**2
    p_int, p_end = q * ell, q * ell / 2.0
    reaction = p_end * 2 + p_int * 4
    moments = [0.0]
    shear = reaction - p_end
    for seg in range(5):
        moments.append(moments[-1] + shear * ell)
        shear -= p_int
    expected = 0.0
    for seg in range(5):
        m0, m1 = moments[seg], moments[seg + 1]
        expected += ell * (m0 * m0 + m0 * m1 + m1 * m1) / 3.0 / e_i
    assert c_hat == pytest.approx(expected, rel=1e-9)


def test_adjoint_gradient_matches_central_differences():
    # 20 random instances across geometries with and without self-weight.
    cases = [make_cantilever(3), make_ten_beam(), make_girder()]
    gen = rng(7)
    checked = 0
    while checked < 20:
        gs = cases[checked % len(cases)]
        ne = gs.n_elements
        a = gen.uniform(0.02, 0.12, ne)
        res = compliance(gs, a)
        grad = compliance_gradient(res)
        i = int(gen.integers(ne))
        h = 1e-6 * max(a[i], 1e-3)
        e = np.zeros(ne)
        e[i] = h
        c_plus = compliance(gs, a + e).compliance
        c_minus = compliance(gs, a - e).compliance
        fd = (c_plus - c_minus) / (2 * h)
        assert fd == pytest.approx(grad[i], rel=1e-4)
        checked += 1


def test_compliance_monotone_without_self_weight(cantilever3):
    a = np.full(3, 0.05)
    base = compliance(cantilever3, a).compliance
    for i in range(3):
        e = np.zeros(3)
        e[i] = 0.01
        assert compliance(cantilever3, a + e).compliance < base


def test_energies_zero_load_term_without_self_weight(ten_beam):
    a = np.full(10, 0.05)
    res = compliance(ten_beam, a)
    assert np.count_nonzero(res.energy_load) == 0
    assert np.all(res.energy_stiffness >= -1e-12)


def test_girder_energy_load_term_nonzero(girder):
    res = compliance(girder, np.full(5, 0.02))
    assert np.any(res.energy_load != 0.0)
