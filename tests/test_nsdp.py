"""Matrix-inequality builders, the Schur-complement oracle, and the penalty solver."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from frameopt import problems
from frameopt.analysis import compliance
from frameopt.cli import EXIT_OK, run_method
from frameopt.model import (
    Element,
    FrameAssembly,
    GroundStructure,
    NodalForce,
    Node,
    Support,
    uniform_design,
)
from frameopt.nsdp import (
    PSD_RTOL,
    RHO_GROWTH,
    IncompatibleLoadError,
    NsdpPenalty,
    ScaledLmi,
    build_compliance_lmi,
    check_schur_equivalence,
    run_nsdp_local,
    smallest_eigenpair,
)

from conftest import make_cantilever, make_girder, make_skew_frame, rng

PSD_TOL = 1e-8


def min_eig_rel(g):
    lam = eigvalsh(g)
    return lam[0] / max(abs(lam[0]), abs(lam[-1]), 1.0)


def stiffness_lmi(gs, a, s):
    """K(a) - s f f' on the support-reduced DOF set (design-independent loads)."""
    asm = FrameAssembly(gs)
    f_hat = asm.loads(a)[asm.free]
    return asm.stiffness(a) - s * np.outer(f_hat, f_hat)


# -- compliance-form LMI ------------------------------------------------------

def test_lmi_layout_matches_reduced_system(cantilever3):
    a = uniform_design(cantilever3)
    asm = FrameAssembly(cantilever3)
    n = asm.free.size
    g = build_compliance_lmi(cantilever3, a, 5.0)
    assert g.shape == (1 + n, 1 + n)
    assert g[0, 0] == 5.0
    assert np.allclose(g[0, 1:], -asm.loads(a)[asm.free])
    assert np.allclose(g[1:, 1:], asm.stiffness(a))
    assert np.allclose(g, g.T)


def test_lmi_boundary_cases_at_equilibrium(cantilever3):
    a = uniform_design(cantilever3)
    c_star = compliance(cantilever3, a).compliance
    g = build_compliance_lmi(cantilever3, a, c_star)
    lam = eigvalsh(g)
    scale = max(abs(lam[0]), abs(lam[-1]))
    # PSD and singular at the exact compliance...
    assert lam[0] >= -PSD_TOL * scale
    assert min(abs(lam)) < 1e-8 * scale
    # ... strictly definite 10% above, indefinite 10% below.
    assert eigvalsh(build_compliance_lmi(cantilever3, a, 1.1 * c_star))[0] > 0.0
    assert min_eig_rel(build_compliance_lmi(cantilever3, a, 0.9 * c_star)) < -PSD_TOL


# -- stiffness-form LMI -------------------------------------------------------

def test_stiffness_lmi_zero_s_is_stiffness(cantilever3):
    a = uniform_design(cantilever3)
    asm = FrameAssembly(cantilever3)
    g = stiffness_lmi(cantilever3, a, 0.0)
    assert np.allclose(g, asm.stiffness(a))
    assert eigvalsh(g)[0] >= -PSD_TOL


def test_stiffness_lmi_singular_at_inverse_compliance(cantilever3):
    a = uniform_design(cantilever3)
    c_star = compliance(cantilever3, a).compliance
    g = stiffness_lmi(cantilever3, a, 1.0 / c_star)
    lam = eigvalsh(g)
    scale = max(abs(lam[0]), abs(lam[-1]))
    assert lam[0] >= -PSD_TOL * scale
    assert min(abs(lam)) < 1e-8 * scale


def test_formulations_agree_without_self_weight(cantilever3):
    # [[c, -f'], [-f, K]] >= 0 iff K - (1/c) f f' >= 0 for c > 0.  A 10%
    # compliance violation shows up orders of magnitude above the eigenvalue
    # noise floor (~1e-15 of scale), so the sign test is decisive here even
    # though the flexible samples squash it relative to lambda_max.
    gen = rng(11)
    a_typ = uniform_design(cantilever3)
    for _ in range(20):
        a = gen.uniform(0.2, 2.0, 3) * a_typ
        c_star = compliance(cantilever3, a).compliance
        for factor in (0.5, 0.9, 1.1, 2.0):
            c = factor * c_star
            first = min_eig_rel(build_compliance_lmi(cantilever3, a, c)) >= -1e-11
            second = min_eig_rel(stiffness_lmi(cantilever3, a, 1.0 / c)) >= -1e-11
            assert first == second == (factor > 1.0)


# -- Schur-complement oracle --------------------------------------------------

def test_schur_oracle_50_random_trials(cantilever3):
    gen = rng(23)
    a_typ = uniform_design(cantilever3)
    for _ in range(50):
        a = gen.uniform(0.05, 2.0, 3) * a_typ
        c_star = compliance(cantilever3, a).compliance
        c = c_star * gen.uniform(0.3, 3.0)
        check = check_schur_equivalence(cantilever3, a, c)
        assert check.agree
        assert check.lmi_psd == (c >= c_star)


def test_schur_oracle_zero_area_dangling(ten_beam):
    # Remove every element touching node 6: that node dangles, so K is
    # singular, but the moment loads at nodes 2 and 3 stay carried by the
    # rest.  The pseudo-inverse branch must still agree with the eigen test.
    a = np.full(10, 0.05)
    dropped = [k for k, e in enumerate(ten_beam.elements) if 6 in (e.node_a, e.node_b)]
    a[dropped] = 0.0
    keep = [e for e in ten_beam.elements if 6 not in (e.node_a, e.node_b)]
    sub = GroundStructure(ten_beam.nodes[:5], keep, ten_beam.supports,
                          ten_beam.loads, ten_beam.volume_bound)
    c_star = compliance(sub, np.full(len(keep), 0.05)).compliance
    for c, want in ((0.5 * c_star, False), (2.0 * c_star, True)):
        check = check_schur_equivalence(ten_beam, a, c)
        assert check.agree
        assert check.lmi_psd is want


def test_schur_oracle_zero_compliance_both_false(cantilever3):
    check = check_schur_equivalence(cantilever3, uniform_design(cantilever3), 0.0)
    assert not check.lmi_psd and not check.schur_ok and check.agree


def test_schur_oracle_incompatible_load(cantilever3):
    # All areas zero: K = 0 but the tip force remains, so f is not in range(K).
    with pytest.raises(IncompatibleLoadError):
        check_schur_equivalence(cantilever3, np.zeros(3), 10.0)


# -- banded smallest eigenpair ------------------------------------------------

def assert_banded_eigenpair_matches_dense(gs, a, c):
    """The banded secular solve against eigvalsh of the dense D G D, with D
    the Jacobi scaling a penalty run started at (a, c) uses."""
    lmi = NsdpPenalty(gs, a, c).lmi
    parts = lmi.parts(a, c)
    lam, v, factorizations = smallest_eigenpair(*parts)
    g = build_compliance_lmi(gs, a, c) * np.outer(lmi.d, lmi.d)
    dense = eigvalsh(g)
    norm = max(1.0, abs(dense[0]), abs(dense[-1]))
    scale = max(abs(dense[0]), abs(dense[-1]), 1.0)
    assert lmi.norm_bound(*parts) >= max(abs(dense[0]), abs(dense[-1]))
    assert (lam >= -PSD_RTOL * scale) == (dense[0] >= -PSD_RTOL * scale)
    assert abs(lam - min(dense[0], 0.0)) <= 1e-12 * norm
    assert factorizations >= 1
    if v is None:
        assert lam == 0.0
    else:
        assert lam < 0.0
        assert np.linalg.norm(g @ v - lam * v) <= 1e-10 * norm
    return lam


def test_scaled_lmi_parts_equal_dense_entries():
    # The banded pieces are the dense D G D's entries, bit for bit.
    for gs in (make_cantilever(5), make_girder(), make_girder("consistent")):
        a = uniform_design(gs) * rng(3).uniform(0.5, 1.5, gs.n_elements)
        lmi = NsdpPenalty(gs, a, 7.0).lmi
        c, f, band = lmi.parts(a, 7.0)
        g = build_compliance_lmi(gs, a, 7.0) * np.outer(lmi.d, lmi.d)
        u, n = gs.assembly.half_bandwidth, f.size
        assert c == g[0, 0]
        assert np.array_equal(f, -g[1:, 0])
        for j in range(n):
            for i in range(max(0, j - u), j + 1):
                assert band[u + i - j, j] == g[1 + i, 1 + j]


SHIPPED = [case.name for case in problems.build_benchmarks()]


@pytest.mark.parametrize("name", SHIPPED)
def test_banded_eigenpair_on_shipped_cases(name):
    gs = problems.benchmark_case(name).build()
    a = uniform_design(gs)
    c_star = compliance(gs, a).compliance
    signs = [assert_banded_eigenpair_matches_dense(gs, a, factor * c_star) < 0.0
             for factor in (0.5, 0.9, 1.1, 2.0)]
    assert signs == [True, True, False, False]


@pytest.mark.parametrize("name", [case.name for case in problems.build_benchmarks()
                                  if "nsdp" in case.methods])
def test_banded_eigenpair_with_zero_areas(name):
    # About 30% exact zeros leave K singular: dangling DOFs and mechanisms.
    # Steps from lambda = 0 that only see the nearest poles would creep
    # there; the fitted pole and the bracket must still reach the root.
    gs = problems.benchmark_case(name).build()
    gen = rng(41)
    a_typ = uniform_design(gs)
    c_ref = compliance(gs, a_typ).compliance
    negative = 0
    for _ in range(10):
        a = a_typ * gen.uniform(0.05, 2.0, gs.n_elements)
        a[gen.random(gs.n_elements) < 0.3] = 0.0
        for factor in (0.5, 0.9, 1.1, 2.0):
            negative += assert_banded_eigenpair_matches_dense(gs, a, factor * c_ref) < 0.0
    assert negative > 0


def test_banded_eigenpair_dangling_ten_beam(ten_beam):
    # The design of test_schur_oracle_zero_area_dangling: node 6 dangles.
    a = np.full(10, 0.05)
    a[[k for k, e in enumerate(ten_beam.elements) if 6 in (e.node_a, e.node_b)]] = 0.0
    c_ref = compliance(ten_beam, np.full(10, 0.05)).compliance
    for factor in (0.5, 0.9, 1.1, 2.0):
        assert_banded_eigenpair_matches_dense(ten_beam, a, factor * c_ref)


def test_banded_eigenpair_self_weight_girder():
    gs = make_girder("consistent")
    a = uniform_design(gs)
    c_star = compliance(gs, a).compliance
    for factor in (0.5, 0.9, 1.1, 2.0):
        lam = assert_banded_eigenpair_matches_dense(gs, a, factor * c_star)
        assert (lam < 0.0) == (factor < 1.0)


def test_banded_eigenpair_block_diagonal():
    # f = 0: the only negative eigenvalue is c itself, with no factorization.
    band = np.asfortranarray(np.array([[0.0, 0.5], [1.0, 2.0]]))
    lam, v, factorizations = smallest_eigenpair(-0.25, np.zeros(2), band)
    assert (lam, factorizations) == (-0.25, 0)
    assert np.array_equal(v, [1.0, 0.0, 0.0])
    assert smallest_eigenpair(0.25, np.zeros(2), band)[:2] == (0.0, None)


@pytest.mark.parametrize("gs", [make_cantilever(3), make_girder(), make_skew_frame(rng(8))],
                         ids=["cantilever-3", "girder", "skew-frame"])
def test_penalty_gradient_matches_central_differences(gs):
    # An infeasible point: c below the FEM compliance, so G has a negative
    # eigenvalue, and the volume above its bound, so both penalties act.
    a0 = uniform_design(gs)
    c0 = compliance(gs, a0).compliance
    phi = NsdpPenalty(gs, a0, 1.1 * c0)
    a = a0 * rng(5).uniform(0.9, 1.2, gs.n_elements)
    x = np.concatenate([a, [0.7 * c0]])
    args = (100.0, 1e-3, 1.0)
    _, grad = phi(x, *args)
    g = build_compliance_lmi(gs, a, x[-1]) * np.outer(phi.lmi.d, phi.lmi.d)
    assert eigvalsh(g)[0] < 0.0
    assert gs.assembly.lengths @ a > gs.volume_bound
    fd = np.empty_like(x)
    for i in range(x.size):
        h = 1e-6 * abs(x[i])
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (phi(up, *args)[0] - phi(down, *args)[0]) / (2.0 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(fd)))


# -- penalty solver -----------------------------------------------------------

def test_nsdp_single_element_cantilever():
    r = run_nsdp_local(make_cantilever(1))
    assert r.status == "converged"
    assert r.compliance == pytest.approx(107.50, rel=5e-3)
    assert r.areas[0] == pytest.approx(0.100, abs=1e-3)


def test_nsdp_cantilever5():
    r = run_nsdp_local(make_cantilever(5))
    assert r.status == "converged"
    assert r.compliance == pytest.approx(77.19, rel=1e-2)


def test_nsdp_cantilever7_gentle_schedule():
    # The default x10 penalty growth stalls on this instance; halving the
    # log-steps recovers the same design the other local methods reach.
    r = run_nsdp_local(make_cantilever(7), rho_growth=math.sqrt(RHO_GROWTH))
    assert r.status == "converged"
    assert r.compliance == pytest.approx(76.23, rel=1e-2)


def test_nsdp_ten_beam_finds_local_valley(ten_beam):
    # From the near-uniform start the penalty path ends in the same local
    # valley as the reference local methods, not at the global optimum.
    r = run_nsdp_local(ten_beam)
    assert r.status == "converged"
    assert r.compliance == pytest.approx(1042.2, rel=1e-2)
    assert r.areas[4] <= 1e-4 and r.areas[6] <= 1e-4
    assert r.areas[1] <= 1e-4


def test_nsdp_girder_terminates_infeasible(girder):
    r = run_nsdp_local(girder)
    assert r.status == "infeasible-point"
    assert r.compliance is None
    assert r.diagnostics["min_eigenvalue"] < 0.0


def test_nsdp_deterministic(cantilever3):
    r1 = run_nsdp_local(cantilever3)
    r2 = run_nsdp_local(cantilever3)
    assert np.array_equal(r1.areas, r2.areas)
    assert r1.compliance == r2.compliance


def test_nsdp_counts_evaluations_and_factorizations(cantilever3):
    r = run_nsdp_local(cantilever3)
    evaluations, eig_solves = r.diagnostics["evaluations"], r.diagnostics["eig_solves"]
    # At least the one decision factor per evaluation, and each L-BFGS
    # iteration costs at least one evaluation.
    assert evaluations >= sum(nit for _, nit, _ in r.diagnostics["stages"])
    assert evaluations <= eig_solves <= 100 * evaluations


def test_nsdp_without_free_dof_ends_at_zero_compliance():
    # Every DOF supported: validate accepts the structure, K is empty and
    # G(a, c) = [c], so the least compliance is 0, as nlp reports too.
    clamp = dict(ux=True, uy=True, rot=True)
    gs = GroundStructure([Node(1, 0.0, 0.0), Node(2, 1.0, 0.0)], [Element(1, 1, 2)],
                         [Support(1, **clamp), Support(2, **clamp)],
                         [NodalForce(2, 0.0, -1.0)], 0.1)
    assert gs.assembly.free.size == 0
    r = run_nsdp_local(gs)
    assert (r.status, r.compliance) == ("converged", 0.0)
    assert gs.assembly.lengths @ r.areas <= gs.volume_bound
    assert run_method(gs, "nsdp").exit_code == EXIT_OK
    # The norm bound of an empty band is that of G = [c].
    lmi = ScaledLmi(gs.assembly, np.ones(1))
    assert lmi.norm_bound(*lmi.parts(r.areas, -2.0)) == 2.0
