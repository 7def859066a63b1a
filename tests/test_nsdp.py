"""Matrix-inequality builders, the Schur-complement oracle, and the penalty solver."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from frameopt.analysis import compliance
from frameopt.model import FrameAssembly, GroundStructure, uniform_design
from frameopt.nsdp import (
    IncompatibleLoadError,
    NsdpConfig,
    build_compliance_lmi,
    check_schur_equivalence,
    run_nsdp_local,
)

from conftest import make_cantilever, rng

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
    cfg = NsdpConfig(rho_growth=math.sqrt(10.0))
    r = run_nsdp_local(make_cantilever(7), cfg)
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
