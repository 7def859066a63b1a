"""Equilibrium, compliance, and sensitivity checks against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
import sympy

from frameopt.analysis import (
    DANGLING_LOAD_TOL,
    DANGLING_ROW_TOL,
    DanglingLoadError,
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
from frameopt.problems import build_benchmarks

from conftest import (
    closed_form_tip_compliance,
    make_cantilever,
    make_girder,
    make_grid,
    make_long_girder,
    make_skew_frame,
    make_ten_beam,
    reduced_system_from_dense,
    rng,
    scramble_nodes,
)

# Every shipped case, local-sweep-style grids and girders, and a cantilever
# whose node order gives a full band.
BANDED_CASES = {
    **{case.name: case.build for case in build_benchmarks()},
    "grid-18": lambda: make_grid(2, 2, rng(21)),
    "grid-52": lambda: make_grid(5, 2, rng(22)),
    "grid-85": lambda: make_grid(5, 4, rng(23)),
    "girder-11": lambda: make_long_girder(11, rng(24)),
    "girder-30": lambda: make_long_girder(30, rng(25)),
    "cantilever-20-scrambled": lambda: scramble_nodes(make_cantilever(20), rng(26)),
}


def dense_reference(asm, a, f):
    """The dense counterpart of ``reduce`` and ``solve_displacements``.

    Returns the kept DOFs, the dense kept K, whether a dropped (dangling)
    DOF carries load, and the displacements by ``numpy.linalg.solve``; those
    are None when a dangling DOF is loaded or when the kept K is singular (a
    mechanism), where no solution exists to compare.
    """
    K = asm.stiffness(a)
    floor = DANGLING_ROW_TOL * max(asm.stiffness_trace(a), 0.0)
    keep = np.max(np.abs(K), axis=1, initial=0.0) > floor
    kept = asm.free[keep]
    K = K[np.ix_(keep, keep)]
    loaded = bool(np.any(np.abs(f[asm.free[~keep]]) > DANGLING_LOAD_TOL * np.linalg.norm(f)))
    w = np.linalg.eigvalsh(K)
    if loaded or (w.size and w[0] <= 1e-13 * w[-1]):
        return kept, K, loaded, None
    u = np.zeros(asm.n_dof)
    u[kept] = np.linalg.solve(K, f[kept])
    return kept, K, loaded, u


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
    u = solve_displacements(reduced_system_from_dense(K, f))
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
    # 24 random instances across geometries with and without self-weight;
    # the skew frame's members lie at general angles.
    cases = [make_cantilever(3), make_ten_beam(), make_girder(), make_skew_frame(rng(8))]
    gen = rng(7)
    checked = 0
    while checked < 24:
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


@pytest.mark.parametrize("name", list(BANDED_CASES))
def test_banded_solve_matches_dense_reference(name):
    gs = BANDED_CASES[name]()
    asm = gs.assembly
    gen = rng(27)
    ne = gs.n_elements
    for trial in range(10):
        a = gen.uniform(0.01, 0.2, ne)
        if trial % 2:
            a[gen.random(ne) < 0.3] = 0.0
        f = asm.loads(a)
        kept, K, loaded, u_ref = dense_reference(asm, a, f)
        if loaded:
            with pytest.raises(DanglingLoadError):
                reduce(asm, a, f)
            continue
        rs = reduce(asm, a, f)
        assert np.array_equal(rs.free, kept)
        assert rs.n_dangling == asm.free.size - kept.size
        if u_ref is None:
            continue
        u = solve_displacements(rs)
        # Backward error against the dense K: independent of conditioning.
        residual = np.linalg.norm(K @ u[kept] - f[kept])
        assert residual <= 1e-14 * (np.linalg.norm(K) * np.linalg.norm(u) + np.linalg.norm(f))
        # Two backward-stable solvers agree to about eps * cond(K), more
        # than 1e-10 on the long chains (cond(K) is 4e12 on cantilever-300).
        err = np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)
        assert err <= max(1e-10, np.finfo(float).eps * np.linalg.cond(K))


@pytest.mark.parametrize("name", ["cantilever-150", "grid-85", "cantilever-20-scrambled"])
def test_dangling_rows_match_dense_on_tiny_areas(name):
    # Areas down to 1e-13 put rows on both sides of the dangling floor, some
    # with a tiny diagonal but a larger coupling that only the mirrored
    # lower part of the band shows.
    gs = BANDED_CASES[name]()
    asm = gs.assembly
    gen = rng(28)
    f = np.zeros(asm.n_dof)
    for _ in range(10):
        a = 10.0 ** gen.uniform(-13.0, -1.0, gs.n_elements)
        a[gen.random(gs.n_elements) < 0.1] = 0.0
        kept = dense_reference(asm, a, f)[0]
        assert np.array_equal(reduce(asm, a, f).free, kept)
