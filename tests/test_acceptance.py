"""End-to-end reference checks, one test per release criterion.

Each test reruns the relevant solvers on the shipped benchmark problems,
compares against the frozen reference values at the stated tolerances, and
prints one PASS/FAIL line (plus the individual checks on failure).  Solver
runs are cached module-wide so overlapping criteria never recompute them,
and every wall-time budget is charged against the run that produced it.
"""

import math
import time

import numpy as np

from conftest import (
    closed_form_tip_compliance,
    make_cantilever,
    make_girder,
    make_ten_beam,
    rng,
)
from frameopt.analysis import compliance, compliance_gradient
from frameopt.model import uniform_design
from frameopt.moments import (
    build_relaxation,
    moment_vector,
    run_hierarchy,
    scale_problem,
)
from frameopt.nsdp import RHO_GROWTH, check_schur_equivalence, run_nsdp_local
from frameopt.local import run_local_nlp, run_oc
from frameopt.problems import benchmark_case
from frameopt.sdp import check_kkt, solve_sdp
from test_moments import _block_value, _feasible_point
from test_sdp import constructed_problem

_HIERARCHY: dict = {}
_LOCAL: dict = {}


def hierarchy(name):
    """Hierarchy result and wall time for a case, computed once."""
    if name not in _HIERARCHY:
        case = benchmark_case(name)
        start = time.perf_counter()
        result = run_hierarchy(case.build(), r_max=case.po_order)
        _HIERARCHY[name] = (result, time.perf_counter() - start)
    return _HIERARCHY[name]


def local(name, method):
    """Local-method result and wall time for a case, computed once."""
    key = (name, method)
    if key not in _LOCAL:
        case = benchmark_case(name)
        gs = case.build()
        start = time.perf_counter()
        if method == "oc":
            result = run_oc(gs)
        elif method == "nlp":
            result = run_local_nlp(gs)
        elif case.nsdp_gentle:
            result = run_nsdp_local(gs, rho_growth=math.sqrt(RHO_GROWTH))
        else:
            result = run_nsdp_local(gs)
        _LOCAL[key] = (result, time.perf_counter() - start)
    return _LOCAL[key]


def close(value, target, rel):
    return value is not None and math.isfinite(value) \
        and abs(value - target) <= rel * abs(target)


def finish(number, description, checks):
    ok = all(flag for _, flag in checks)
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    for label, flag in checks:
        print(f"    [{'ok' if flag else 'FAIL'}] {label}")
    assert ok, "; ".join(label for label, flag in checks if not flag)


def test_criterion_1_single_element_cantilever():
    checks = []
    elapsed = 0.0
    for method in ("oc", "nlp", "nsdp"):
        res, seconds = local("cantilever-1", method)
        elapsed += seconds
        checks.append((f"{method} compliance 107.50 within 0.5%",
                       close(res.compliance, 107.50, 5e-3)))
        checks.append((f"{method} area 0.100 within 1e-3",
                       abs(res.areas[0] - 0.100) <= 1e-3))
    hres, seconds = hierarchy("cantilever-1")
    elapsed += seconds
    checks.append(("po compliance 107.50 within 0.5%",
                   close(hres.compliance, 107.50, 5e-3)))
    checks.append(("po area 0.100 within 1e-3",
                   hres.areas is not None
                   and abs(hres.areas[0] - 0.100) <= 1e-3))
    gs = make_cantilever(1)
    fem = compliance(gs, np.array([0.1])).compliance
    oracle = closed_form_tip_compliance(0.1)
    checks.append(("closed form 100 + 7.5 matches analysis to 1e-9",
                   abs(fem - oracle) <= 1e-9 * oracle))
    checks.append((f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0))
    finish(1, "single-element cantilever, all four methods", checks)


def test_criterion_2_three_element_cantilever():
    checks = []
    elapsed = 0.0
    reference = (0.142, 0.102, 0.056)
    for method in ("oc", "nlp"):
        res, seconds = local("cantilever-3", method)
        elapsed += seconds
        checks.append((f"{method} compliance 80.30 within 0.5%",
                       close(res.compliance, 80.30, 5e-3)))
        worst = float(np.max(np.abs(res.areas - np.array(reference))))
        checks.append((f"{method} areas within 0.002 (worst {worst:.4f})",
                       worst <= 2e-3))
    hres, seconds = hierarchy("cantilever-3")
    elapsed += seconds
    first, second = hres.certificates[0], hres.certificates[1]
    checks.append(("order-1 lower bound 35.81 within 2%",
                   close(first.lower, 35.81, 2e-2)))
    checks.append(("order-1 upper bound 80.72 within 2%",
                   close(first.upper, 80.72, 2e-2)))
    checks.append(("order 2 certified", second.certified))
    checks.append(("order-2 value 80.30 within 0.5%",
                   close(second.upper, 80.30, 5e-3)))
    rel_gap = second.gap / max(1.0, abs(second.upper))
    checks.append((f"order-2 relative gap {rel_gap:.2e} <= 1e-3",
                   rel_gap <= 1e-3))
    checks.append((f"runtime {elapsed:.1f}s < 120s", elapsed < 120.0))
    finish(2, "three-element cantilever, local rows and both orders", checks)


def test_criterion_3_five_and_seven_element_cantilevers():
    checks = []
    h5, seconds5 = hierarchy("cantilever-5")
    order2, order3 = h5.certificates[1], h5.certificates[2]
    checks.append(("five-element order-2 lower 76.34 within 1%",
                   close(order2.lower, 76.34, 1e-2)))
    checks.append(("five-element order-2 upper 77.37 within 1%",
                   close(order2.upper, 77.37, 1e-2)))
    checks.append(("five-element order 3 certified", order3.certified))
    checks.append(("five-element value 77.19 within 0.5%",
                   close(order3.upper, 77.19, 5e-3)))
    reference = np.array((0.151, 0.128, 0.103, 0.075, 0.043))
    worst = float(np.max(np.abs(h5.areas - reference)))
    checks.append((f"five-element areas within 0.002 (worst {worst:.4f})",
                   worst <= 2e-3))
    # The order-3 relaxation of the seven-element case outgrows this
    # machine's budget, so its deepest shipped order is 2 and the bounds
    # are checked instead of a certificate.
    h7, seconds7 = hierarchy("cantilever-7")
    bounds = h7.certificates[1]
    checks.append(("seven-element order-2 lower 71.69 within 1%",
                   close(bounds.lower, 71.69, 1e-2)))
    checks.append(("seven-element order-2 upper 77.02 within 1%",
                   close(bounds.upper, 77.02, 1e-2)))
    elapsed = seconds5 + seconds7
    checks.append((f"runtime {elapsed:.0f}s < 1800s", elapsed < 1800.0))
    finish(3, "five- and seven-element cantilever hierarchies", checks)


def test_criterion_4_ten_beam_local_and_global():
    checks = []
    res, seconds_local = local("tenbeam", "nsdp")
    checks.append(("a local method reaches 1042.2 within 1%",
                   close(res.compliance, 1042.2, 1e-2)))
    checks.append(("its members 5 and 7 vanish",
                   res.areas[4] <= 1e-3 and res.areas[6] <= 1e-3))
    hres, seconds_po = hierarchy("tenbeam")
    cert = hres.certificates[-1]
    checks.append(("order 2 certified", cert.certified))
    checks.append(("certified value 959.32 within 0.5%",
                   close(cert.upper, 959.32, 5e-3)))
    rel_gap = cert.gap / max(1.0, abs(cert.upper))
    checks.append((f"order-2 relative gap {rel_gap:.2e} <= 1e-3",
                   rel_gap <= 1e-3))
    zero_set = (2, 4, 6, 8, 10)
    worst = max(float(hres.areas[i - 1]) for i in zero_set)
    checks.append((f"members {zero_set} below 0.01 (worst {worst:.4f})",
                   worst <= 1e-2))
    improvement = (res.compliance - cert.upper) / res.compliance
    checks.append((f"global improves on local by {improvement:.1%} (about 8%)",
                   0.06 <= improvement <= 0.10))
    elapsed = seconds_local + seconds_po
    checks.append((f"runtime {elapsed:.0f}s < 1800s", elapsed < 1800.0))
    finish(4, "ten-beam local row and certified global optimum", checks)


def test_criterion_5_girder():
    checks = []
    res, seconds_oc = local("girder", "oc")
    checks.append(("oc compliance 1372.25 within 0.5%",
                   close(res.compliance, 1372.25, 5e-3)))
    reference = np.array((0.010, 0.017, 0.022, 0.025, 0.026))
    worst = float(np.max(np.abs(res.areas - reference)))
    checks.append((f"oc areas within 0.001 (worst {worst:.4f})",
                   worst <= 1e-3))
    hres, seconds_po = hierarchy("girder")
    first, second, third = hres.certificates[:3]
    checks.append(("order-1 bounds (297.34, 1456.75) within 2%",
                   close(first.lower, 297.34, 2e-2)
                   and close(first.upper, 1456.75, 2e-2)))
    checks.append(("order-2 bounds (1286.44, 1426.05) within 2%",
                   close(second.lower, 1286.44, 2e-2)
                   and close(second.upper, 1426.05, 2e-2)))
    checks.append(("order 3 certified", third.certified))
    checks.append(("certified value 1372.25 within 0.5%",
                   close(third.upper, 1372.25, 5e-3)))
    elapsed = seconds_oc + seconds_po
    checks.append((f"runtime {elapsed:.0f}s < 1800s", elapsed < 1800.0))
    finish(5, "girder local row and all three hierarchy orders", checks)


def test_criterion_6_property_suites():
    checks = []
    start = time.perf_counter()

    # Adjoint gradient against central differences, 20 random instances.
    structures = [make_cantilever(3), make_ten_beam(), make_girder()]
    gen = rng(101)
    worst = 0.0
    for trial in range(20):
        gs = structures[trial % 3]
        ne = gs.n_elements
        a = gen.uniform(0.02, 0.12, ne)
        grad = compliance_gradient(compliance(gs, a))
        i = int(gen.integers(ne))
        h = 1e-6 * max(a[i], 1e-3)
        step = np.zeros(ne)
        step[i] = h
        fd = (compliance(gs, a + step).compliance
              - compliance(gs, a - step).compliance) / (2.0 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(grad[i]), 1e-12))
    checks.append((f"adjoint vs central differences (worst {worst:.1e})",
                   worst < 1e-4))

    # Schur-complement oracle, 50 random (a, c) trials, zero disagreements.
    gs = make_cantilever(3)
    a_typ = uniform_design(gs)
    gen = rng(23)
    disagreements = 0
    for _ in range(50):
        a = gen.uniform(0.05, 2.0, 3) * a_typ
        c = compliance(gs, a).compliance * gen.uniform(0.3, 3.0)
        if not check_schur_equivalence(gs, a, c).agree:
            disagreements += 1
    checks.append((f"schur oracle disagreements {disagreements} of 50",
                   disagreements == 0))

    # Bound sandwich and lower-bound monotonicity on every benchmark.
    names = ("cantilever-1", "cantilever-3", "cantilever-5", "cantilever-7",
             "tenbeam", "girder")
    sandwich_ok = True
    monotone_ok = True
    proven_ok = True
    for name in names:
        result, _ = hierarchy(name)
        proven_ok &= all(c.lower <= c.upper + 1e-12 * max(1.0, abs(c.upper))
                         for c in result.certificates)
        lowers = [c.lower for c in result.certificates
                  if math.isfinite(c.lower)]
        uppers = [c.upper for c in result.certificates
                  if math.isfinite(c.upper)]
        slack = 1e-4 * max(1.0, abs(min(uppers)))
        sandwich_ok &= max(lowers) <= min(uppers) + slack
        monotone_ok &= all(b >= a - 1e-6 * max(1.0, abs(a))
                           for a, b in zip(lowers, lowers[1:]))
    checks.append(("lower bounds below upper bounds on all benchmarks",
                   sandwich_ok))
    checks.append(("lower bounds monotone across orders", monotone_ok))
    checks.append(("every order's lower bound below its own upper bound",
                   proven_ok))

    # Dirac-measure feasibility: 10 random feasible points per benchmark.
    gen = rng(31)
    psd_ok = True
    for name in names:
        sp = scale_problem(benchmark_case(name).build())
        rel = build_relaxation(sp, 1)
        if name == "cantilever-1":
            # Its feasible set is the single full-volume point.
            points = [np.array([1.0, 1.0])] * 10
        else:
            points = [_feasible_point(sp, gen) for _ in range(10)]
        for x in points:
            y = moment_vector(rel.y_basis, x)
            for blk in rel.problem.blocks:
                value = _block_value(blk, y)
                scale = 1.0 + float(np.max(np.abs(value)))
                low = float(np.linalg.eigvalsh(value)[0])
                psd_ok &= low >= -1e-8 * scale
    checks.append(("relaxation blocks PSD at feasible Dirac points", psd_ok))

    # Interior-point KKT residuals on constructed-solution problems.
    kkt_ok = True
    for seed, with_eq in ((5, False), (7, True), (13, False)):
        problem, _ = constructed_problem(rng(seed), with_equalities=with_eq)
        sol = solve_sdp(problem)
        report = check_kkt(problem, sol)
        scale = 1.0 + abs(sol.objective) + abs(sol.dual_objective)
        kkt_ok &= sol.status == "optimal"
        kkt_ok &= report.dual_residual <= \
            1e-7 * (1.0 + float(np.linalg.norm(problem.b)))
        kkt_ok &= report.complementarity <= 1e-7 * scale
        kkt_ok &= report.equality_residual <= 1e-7 * scale
    checks.append(("interior-point KKT residuals below 1e-7", kkt_ok))

    # Resizing fixed point: max |b_i - 1| at convergence.
    fixed_ok = True
    for name in ("cantilever-3", "cantilever-5", "tenbeam", "girder"):
        result, _ = local(name, "oc")
        fixed_ok &= result.status == "converged"
        fixed_ok &= result.stationarity <= 1e-3
    checks.append(("resizing fixed point max |b - 1| <= 1e-3", fixed_ok))

    # Scaling round trip at 1e-14.
    gen = rng(47)
    round_ok = True
    for name in names:
        gs = benchmark_case(name).build()
        sp = scale_problem(gs)
        caps = gs.volume_bound / sp.lengths
        a = gen.uniform(0.01, 1.0, gs.n_elements) * caps
        back = sp.areas_from_scaled(sp.scaled_from_areas(a))
        round_ok &= bool(np.allclose(back, a, rtol=1e-14, atol=0.0))
        c = 0.4 * sp.c_hat
        back_c = sp.compliance_from_scaled(sp.scaled_from_compliance(c))
        round_ok &= abs(back_c - c) <= 1e-14 * abs(c)
    checks.append(("scaling round trips at 1e-14", round_ok))

    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.0f}s < 300s", elapsed < 300.0))
    finish(6, "property suites", checks)


def test_criterion_7_resizing_scalability():
    checks = []
    for name in ("cantilever-150", "cantilever-300"):
        result, seconds = local(name, "oc")
        checks.append((f"{name} converged in {seconds:.1f}s < 60s",
                       result.status == "converged" and seconds < 60.0))
        taper = bool(np.all(np.diff(result.areas) <= 1e-6))
        checks.append((f"{name} area profile tapers monotonically", taper))
    finish(7, "optimality-criteria scalability", checks)
