"""Moment-hierarchy behavior: scaling, bases, relaxation blocks, certificates."""

import json
import math

import numpy as np
import pytest

from conftest import (
    make_cantilever,
    make_girder,
    make_ten_beam,
    moment_matrix_oracle,
    pmi_at,
    relaxation_blocks_oracle,
    rng,
    run_python,
    substitute_y0,
)
from frameopt import moments
from frameopt.analysis import compliance
from frameopt.model import GroundStructure
from frameopt.moments import (
    Relaxation,
    build_relaxation,
    extract_design,
    gap_certificate,
    lower_bound,
    moment_matrix,
    moment_vector,
    monomial_basis,
    rank_certificate,
    run_hierarchy,
    scale_problem,
    solve_relaxation,
)
from frameopt import sdp
from frameopt.sdp import SdpBlock, _Presolve, solve_sdp

PSD_TOL = 1e-8
# Frozen local-solver reference for the three-element cantilever.
CANT3_AREAS = (0.141767, 0.102424, 0.055809)
CANT3_COMPLIANCE = 80.302240


def _poly_value(poly, x):
    return sum(c * np.prod(np.asarray(x, float) ** np.array(alpha))
               for alpha, c in poly.items())


def _block_value(blk, y):
    """Dense value of one SDP block at the moment vector y."""
    s = np.zeros((blk.n, blk.n))
    np.add.at(s, (blk.row, blk.col), blk.val * y[blk.var])
    return s + np.triu(s, 1).T - blk.c


def _feasible_point(sp, gen):
    """Random x = (c_sc, a_sc) satisfying every scaled constraint."""
    gs = sp.gs
    for _ in range(200):
        raw = gen.uniform(0.4, 1.0, gs.n_elements)
        a = raw * gs.volume_bound / float(sp.lengths @ raw)
        a *= gen.uniform(0.7, 1.0)
        c_a = compliance(gs, a).compliance
        if c_a < sp.c_hat:
            c = gen.uniform(c_a, sp.c_hat)
            return np.concatenate(([sp.scaled_from_compliance(c)],
                                   sp.scaled_from_areas(a)))
    raise AssertionError("rejection sampling found no feasible point")


def test_basis_counts_and_order():
    b = monomial_basis(2, 1)
    assert b.exponents == ((0, 0), (1, 0), (0, 1))
    assert len(monomial_basis(2, 2)) == 6
    assert len(monomial_basis(11, 2)) == 78
    for basis in (b, monomial_basis(11, 2)):
        assert basis.exponents[0] == (0,) * basis.n
        assert basis.index[basis.exponents[0]] == 0


def test_basis_prefix_property():
    small = monomial_basis(4, 2)
    large = monomial_basis(4, 4)
    assert large.exponents[:len(small)] == small.exponents


def test_basis_overflow_guard():
    with pytest.raises(ValueError, match="exceeds"):
        monomial_basis(50, 8)
    with pytest.raises(ValueError):
        monomial_basis(0, 2)


def test_scaling_round_trip(cantilever3):
    sp = scale_problem(cantilever3)
    gen = rng(3)
    caps = cantilever3.volume_bound / sp.lengths
    areas = gen.uniform(0.01, 1.0, 3) * caps
    back = sp.areas_from_scaled(sp.scaled_from_areas(areas))
    assert np.allclose(back, areas, rtol=1e-14, atol=0.0)
    c = 0.37 * sp.c_hat
    assert sp.compliance_from_scaled(sp.scaled_from_compliance(c)) == pytest.approx(c, rel=1e-14)


def test_scaling_endpoints(cantilever3):
    sp = scale_problem(cantilever3)
    assert np.allclose(sp.areas_from_scaled(-np.ones(3)), 0.0)
    assert np.allclose(sp.areas_from_scaled(np.ones(3)),
                       cantilever3.volume_bound / sp.lengths)


def test_uniform_design_activates_volume_polynomial(cantilever3):
    # Equal element lengths: the uniform full-volume design sits at
    # a_sc_i = 2/n_e - 1 and the scaled volume polynomial vanishes there.
    sp = scale_problem(cantilever3)
    x = np.concatenate(([0.0], np.full(3, 2.0 / 3.0 - 1.0)))
    name, poly = sp.scalar_constraints[0]
    assert name == "volume"
    assert abs(_poly_value(poly, x)) < 1e-12


def test_cantilever1_compliance_seed():
    sp = scale_problem(make_cantilever(1))
    assert sp.c_hat == pytest.approx(107.50, rel=1e-6)
    assert sp.scaled_from_compliance(sp.c_hat) == pytest.approx(1.0)


def test_block_layout_single_element_cantilever():
    sp = scale_problem(make_cantilever(1))
    rel = build_relaxation(sp, 1)
    assert [blk.n for blk in rel.problem.blocks] == [3, 1, 1, 1, 4]
    assert rel.block_names == ["moment-M1", "localizer-volume",
                               "localizer-ball-a1", "localizer-ball-c",
                               "localizer-pmi"]
    assert rel.n_moments == 6
    # Normalization: the constant monomial is variable 0 and is pinned to 1.
    assert rel.problem.e.shape == (1, 6)
    assert rel.problem.e[0, 0] == 1.0 and rel.problem.d[0] == 1.0
    moment = rel.problem.blocks[0]
    first = (moment.row == 0) & (moment.col == 0)
    assert moment.var[first].tolist() == [0]
    with pytest.raises(ValueError, match="order"):
        build_relaxation(sp, 0)


def _assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.n == w.n, k
        for name in ("c", "var", "row", "col", "val"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (k, name)


@pytest.mark.parametrize("gs, r_max", [
    (make_cantilever(1), 3), (make_cantilever(3), 3), (make_cantilever(5), 3),
    (make_cantilever(7), 2), (make_ten_beam(), 2), (make_girder(), 3)],
    ids=lambda v: getattr(v, "name", None))
def test_blocks_equal_the_triplet_oracle(gs, r_max):
    # One localizing-matrix builder makes every block with the arrays, entry
    # order included, of the triplet-at-a-time reference, so the solver and
    # the bound's sums see the same SDP bit for bit.  The moment matrix is
    # read off the moment block.
    sp = scale_problem(gs)
    for r in range(1, r_max + 1):
        rel = build_relaxation(sp, r)
        _assert_blocks_equal(rel.problem.blocks, relaxation_blocks_oracle(sp, r))
        y = rng(r).standard_normal(rel.n_moments)
        assert np.array_equal(moment_matrix(rel, y), moment_matrix_oracle(sp, r, y))


def test_zero_coefficients_leave_no_entries():
    # The two-element cantilever's volume constant 2 - n_e is exactly 0: its
    # localizer drops the zero-valued entries the triplet reference keeps,
    # one per cell, and nothing else differs.
    sp = scale_problem(make_cantilever(2))
    assert sp.scalar_constraints[0][1][(0,) * sp.n_vars] == 0.0
    for r in (1, 2):
        got, want = build_relaxation(sp, r).problem.blocks, relaxation_blocks_oracle(sp, r)
        volume = want[1]
        nonzero = volume.val != 0.0
        assert np.count_nonzero(~nonzero) == volume.n * (volume.n + 1) // 2
        want[1] = SdpBlock(volume.n, volume.c, volume.var[nonzero], volume.row[nonzero],
                           volume.col[nonzero], volume.val[nonzero])
        _assert_blocks_equal(got, want)


def test_solve_relaxation_leaves_y0_to_the_solver(cantilever3, girder, monkeypatch):
    # solve_relaxation hands the solver its problem unchanged, y_0 = 1
    # included; the solver's presolve removes that equality with exactly the
    # arithmetic of the hand substitution, so the Newton system never sees it.
    rel = build_relaxation(scale_problem(cantilever3), 1)
    seen = []

    def spy(problem, callback):
        seen.append(problem)
        return solve_sdp(problem, callback)

    monkeypatch.setattr(moments, "solve_sdp", spy)
    rsol = solve_relaxation(rel)
    assert len(seen) == 1 and seen[0] is rel.problem
    assert rsol.y.shape == (rel.n_moments,) and rsol.y[0] == 1.0
    assert rsol.lower <= rsol.sdp.dual_objective

    for gs, r in ((cantilever3, 2), (girder, 1)):
        problem = build_relaxation(scale_problem(gs), r).problem
        got, want = _Presolve(problem).problem, substitute_y0(problem)
        assert got.e.shape == (0, problem.m - 1)
        assert np.array_equal(got.b, want.b)
        _assert_blocks_equal(got.blocks, want.blocks)


@pytest.mark.parametrize("fixture", ["cantilever3", "ten_beam", "girder"])
def test_dirac_moments_satisfy_relaxation(fixture, request):
    # Moments of a Dirac measure at any feasible point must satisfy every
    # block, and the SDP objective must equal the compliance at that point.
    gs = request.getfixturevalue(fixture)
    sp = scale_problem(gs)
    rel = build_relaxation(sp, 1)
    gen = rng(11)
    for _ in range(10):
        x = _feasible_point(sp, gen)
        y = moment_vector(rel.y_basis, x)
        for name, blk in zip(rel.block_names, rel.problem.blocks):
            val = _block_value(blk, y)
            lam = np.linalg.eigvalsh(val)
            scale = max(1.0, abs(lam[-1]))
            assert lam[0] >= -PSD_TOL * scale, (name, lam[0])
        pmi_val = _block_value(rel.problem.blocks[-1], y)
        assert np.allclose(pmi_val, pmi_at(sp, x), rtol=1e-12, atol=1e-12)
        assert rel.problem.b @ y == pytest.approx(
            sp.compliance_from_scaled(x[0]), rel=1e-12)


def test_extract_design_recovers_dirac(cantilever3):
    sp = scale_problem(cantilever3)
    rel = build_relaxation(sp, 1)
    areas_in = np.array(CANT3_AREAS)
    c_in = compliance(cantilever3, areas_in).compliance
    x = np.concatenate(([sp.scaled_from_compliance(c_in)],
                        sp.scaled_from_areas(areas_in)))
    areas, upper = extract_design(rel, moment_vector(rel.y_basis, x))
    assert np.allclose(areas, areas_in, atol=1e-8)
    assert upper == pytest.approx(c_in, rel=1e-12)


def test_extract_design_repairs_violations(cantilever3):
    # Pseudo-moments outside the box get clamped and rescaled onto the
    # volume budget, so the extracted design is always feasible.
    sp = scale_problem(cantilever3)
    rel = build_relaxation(sp, 1)
    x = np.array([0.0, 1.4, 0.9, -0.5])
    areas, upper = extract_design(rel, moment_vector(rel.y_basis, x))
    assert np.all(areas >= 0.0)
    assert sp.lengths @ areas <= cantilever3.volume_bound * (1 + 1e-12)
    assert upper == pytest.approx(compliance(cantilever3, areas).compliance)


def test_rank_certificate_dirac_is_flat():
    sp = scale_problem(make_cantilever(3))
    rel = build_relaxation(sp, 2)
    x = _feasible_point(sp, rng(5))
    report = rank_certificate(rel, moment_vector(rel.y_basis, x))
    assert (report.rank_full, report.rank_reduced) == (1, 1)
    assert report.flat


def test_rank_certificate_two_atoms():
    sp = scale_problem(make_cantilever(3))
    rel = build_relaxation(sp, 2)
    gen = rng(6)
    x1, x2 = _feasible_point(sp, gen), _feasible_point(sp, gen)
    y = 0.5 * (moment_vector(rel.y_basis, x1) + moment_vector(rel.y_basis, x2))
    report = rank_certificate(rel, y)
    assert (report.rank_full, report.rank_reduced) == (2, 2)
    assert report.flat


def test_rank_certificate_non_flat():
    # A spread-out measure fills the degree-2 rows that the degree-1 block
    # cannot see, so the two ranks differ and nothing is certified.
    sp = scale_problem(make_cantilever(3))
    rel = build_relaxation(sp, 2)
    gen = rng(7)
    y = np.mean([moment_vector(rel.y_basis, _feasible_point(sp, gen))
                 for _ in range(8)], axis=0)
    report = rank_certificate(rel, y)
    assert report.rank_reduced == 5
    assert report.rank_full > report.rank_reduced
    assert not report.flat
    # The graded basis puts M_1(y) in the leading block of M_2(y).
    m1 = moment_matrix(rel, y)[:5, :5]
    assert np.array_equal(m1[0, 1:], y[1:5]) and np.array_equal(m1[1:, 0], y[1:5])
    assert m1[0, 0] == pytest.approx(1.0)


def test_gap_certificate_boundaries():
    cert = gap_certificate(80.30, 80.30, 1e-4)
    assert cert.certified and cert.gap == 0.0
    cert = gap_certificate(35.81, 80.72, 1e-4)
    assert cert.verdict == "bounded"
    assert cert.gap == pytest.approx(44.91)
    # Lower bound slightly above the upper bound: tolerated at a loose gap
    # tolerance, flagged as failure at a tight one.
    assert gap_certificate(100.0, 99.99, 1e-3).certified
    assert gap_certificate(100.0, 99.99, 1e-6).verdict == "failed"
    assert gap_certificate(math.nan, 50.0, 1e-4).verdict == "failed"
    report = gap_certificate(1.0, 2.0, 1e-4, order=2).report()
    assert set(report) == {"r", "c_lower", "c_upper", "gap", "rank_Mr",
                           "rank_Mr_minus_d", "certified", "extracted_areas"}
    assert report["r"] == 2 and report["certified"] is False


def test_hierarchy_single_element_certifies_first_order():
    res = run_hierarchy(make_cantilever(1), r_max=1)
    assert res.status == "certified-optimal"
    assert res.compliance == pytest.approx(107.50, rel=5e-3)
    assert res.lower == pytest.approx(107.50, rel=5e-3)
    assert res.areas[0] == pytest.approx(0.100, abs=1e-3)
    cert = res.certificates[0]
    assert cert.certified and cert.rank_full == cert.rank_reduced


def test_hierarchy_three_element_cantilever(cantilever3):
    res = run_hierarchy(cantilever3, r_max=2)
    first, second = res.certificates
    assert first.verdict == "bounded"
    assert first.lower == pytest.approx(35.81, rel=1e-2)
    assert first.upper == pytest.approx(80.72, rel=1e-2)
    assert np.allclose(first.areas, (0.147, 0.097, 0.056), atol=5e-3)
    assert second.certified
    assert second.lower == pytest.approx(80.30, rel=5e-3)
    assert second.upper == pytest.approx(80.30, rel=5e-3)
    assert np.allclose(second.areas, CANT3_AREAS, atol=2e-3)
    # Lower bounds are monotone across orders up to solver slack.
    assert second.lower >= first.lower - 1e-7 * max(1.0, abs(first.lower))
    assert res.status == "certified-optimal"
    assert res.compliance == pytest.approx(CANT3_COMPLIANCE, rel=5e-3)
    assert res.lower == second.lower
    assert res.diagnostics["monotonicity_violations"] == []


def test_hierarchy_records_solver_failure(cantilever3, monkeypatch):
    # Starving the SDP solver of iterations records why it stopped; the
    # order is still bounded, by what its Z proves, not dropped.
    monkeypatch.setattr(sdp, "MAX_ITER", 1)
    res = run_hierarchy(cantilever3, r_max=1)
    assert res.status == "bounded"
    cert = res.certificates[0]
    assert cert.verdict == "bounded"
    assert math.isfinite(cert.lower) and cert.lower <= cert.upper
    order = res.diagnostics["orders"][0]
    assert order["status"] == "numerical-failure"
    assert order["reason"] == "iteration limit"
    assert set(order["phase_s"]) == {"scaling", "schur", "factor", "step", "metrics"}
    assert order["schur_gflop"] > 0.0
    assert res.areas is not None and res.compliance == cert.upper


def test_lower_bound_holds_at_every_iteration_cap(cantilever3, monkeypatch):
    # Whatever iterate the solver stops on, the reported lower bound is
    # finite and below both the FEM upper bound and the order-1 optimum,
    # read here as the dual objective of a full solve.
    dual = solve_relaxation(build_relaxation(scale_problem(cantilever3), 1)).sdp.dual_objective
    for cap in range(1, 31):
        monkeypatch.setattr(sdp, "MAX_ITER", cap)
        cert = run_hierarchy(cantilever3, r_max=1).certificates[0]
        assert math.isfinite(cert.lower), cap
        assert cert.lower <= cert.upper and cert.lower <= dual, (cap, cert.lower)


def test_hierarchy_deterministic(cantilever3):
    first = run_hierarchy(cantilever3, r_max=2)
    second = run_hierarchy(cantilever3, r_max=2)
    assert first.compliance == second.compliance
    assert np.array_equal(first.areas, second.areas)
    assert [c.lower for c in first.certificates] == [c.lower for c in second.certificates]


def _bounds_along_path(rel, stop):
    """Proven bound of every iterate up to `stop`, from a solve that keeps
    no bound of its own and ends there."""
    bounds = []

    def watch(y, z):
        bounds.append(lower_bound(rel, z))
        return "enough" if len(bounds) == stop else None

    solve_sdp(rel.problem, watch)
    return bounds


def test_every_order_reports_its_kept_bound_and_proof(girder):
    for gs in (girder, make_cantilever(7)):
        res = run_hierarchy(gs, r_max=2)
        orders = res.diagnostics["orders"]
        for cert, order in zip(res.certificates, orders):
            rel = build_relaxation(scale_problem(gs), cert.order)
            path = _bounds_along_path(rel, order["sdp_iterations"])
            # The kept bound is the best one proven up to the stop, by the
            # iterate the order names.
            assert 1 <= order["lower_iteration"] <= order["sdp_iterations"]
            assert cert.lower == max(path) == path[order["lower_iteration"] - 1]
    # cantilever-7 order 2 proves its best bound before the iterate it stops
    # on (33 of 34), at one BLAS thread and at two.
    assert orders[1]["lower_iteration"] < orders[1]["sdp_iterations"]


def test_kept_bound_is_at_least_the_final_iterates(cantilever3, girder):
    for gs, r in ((cantilever3, 1), (cantilever3, 2), (girder, 1), (girder, 2)):
        rel = build_relaxation(scale_problem(gs), r)
        rsol = solve_relaxation(rel)
        assert rsol.lower >= lower_bound(rel, rsol.sdp.z)
        assert rsol.sdp.diagnostics["reason"] in ("certified and flat", "bound plateaued",
                                                  "tolerances met")


def test_plateau_waits_for_the_gate(monkeypatch):
    # The plateau test counts only once the bound lies within PLATEAU_GATE of
    # b'y.  Girder order 1 reaches its optimum 297.3 without pausing: far from
    # b'y its bound rises by 5% or more over any two iterates.  A rise
    # tolerance of 10% makes that stretch look flat; ungated, the order then
    # stops on it, far from b'y and below where the gate lets it stop.
    rel = build_relaxation(scale_problem(make_girder()), 1)

    def gap(sol):
        obj = float(rel.problem.b @ sol.y)
        return abs(obj - sol.lower) / (1 + abs(obj) + abs(sol.lower))

    rsol = solve_relaxation(rel)
    assert rsol.lower == pytest.approx(297.34, rel=1e-4)
    assert gap(rsol) < moments.PLATEAU_GATE
    assert rsol.sdp.diagnostics["history"][-1]["rel_gap_abs"] < 1e-3
    monkeypatch.setattr(moments, "PLATEAU_RTOL", 0.1)
    gated = solve_relaxation(rel)
    assert gated.sdp.diagnostics["reason"] == "bound plateaued"
    assert gap(gated) < moments.PLATEAU_GATE
    monkeypatch.setattr(moments, "PLATEAU_GATE", math.inf)
    ungated = solve_relaxation(rel)
    assert ungated.sdp.diagnostics["reason"] == "bound plateaued"
    assert gap(ungated) >= 1e-3
    assert ungated.sdp.iterations < gated.sdp.iterations and ungated.lower < gated.lower < 297.3


def test_certified_orders_stop_flat(cantilever3):
    # An order stops on certification only with a flat moment matrix, so the
    # rank report still means what it says.
    rel = build_relaxation(scale_problem(cantilever3), 2)
    rsol = solve_relaxation(rel, upper=CANT3_COMPLIANCE)
    assert rsol.sdp.diagnostics["reason"] == "certified and flat"
    assert rank_certificate(rel, rsol.y).flat
    assert gap_certificate(rsol.lower, CANT3_COMPLIANCE).certified


ORDER_ENDS = """
import json
from frameopt.moments import run_hierarchy
from frameopt.problems import benchmark_case
ends = {}
for name in ("cantilever-3", "cantilever-5", "girder"):
    res = run_hierarchy(benchmark_case(name).build(), r_max=2)
    ends[name] = [(o["sdp_iterations"], c.lower)
                  for o, c in zip(res.diagnostics["orders"], res.certificates)]
print(json.dumps(ends))
"""


def test_orders_end_alike_at_one_and_two_blas_threads():
    # Where an order ends is decided by its bound, not by roundoff.  The
    # threaded BLAS moves every iterate by roundoff, and the step fraction
    # follows the predictor's continuous step lengths, yet every order of
    # each case with an order-2 solve that fits here stops on the same
    # iterate at both thread counts.
    ends = []
    for threads in ("1", "2"):
        run = run_python("-c", ORDER_ENDS, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run.check_returncode()
        ends.append(json.loads(run.stdout))
    assert ends[0].keys() == ends[1].keys() == {"cantilever-3", "cantilever-5", "girder"}
    for name, orders in ends[0].items():
        assert len(orders) == len(ends[1][name]) == 2
        for (it1, low1), (it2, low2) in zip(orders, ends[1][name]):
            assert it1 == it2, name
            assert abs(low1 - low2) <= 2e-6 * abs(low1), name
