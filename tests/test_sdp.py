"""Interior-point SDP solver: contract examples, KKT checks, invariants."""

import numpy as np
import pytest

from frameopt import sdp
from frameopt.moments import build_relaxation, scale_problem
from frameopt.problems import cantilever, girder
from frameopt.sdp import (
    SdpBlock,
    SdpError,
    SdpProblem,
    _BlockData,
    _Presolve,
    _nt_scaling,
    _steps_to_boundary,
    check_kkt,
    solve_sdp,
)

from conftest import (
    block_from_matrices,
    cholesky_step,
    kkt_primal_residual,
    nt_congruence,
    rng,
)

# Step lengths from the scaled pair against the Cholesky reference.  The
# solver moves at most 0.99 of the way to the boundary (its step fraction
# lies in [0.9, 0.99]), so a relative error below 1% cannot carry an iterate
# out of the cone; 1e-3 keeps a tenfold margin inside that.  Both formulas
# are congruences of an S or Z whose condition number reaches 1e14 here, so
# neither can promise much more than u * 1e14 ~ 1e-2 in the worst case;
# 1.5e-4 is what the random pairs below reach.
STEP_RTOL = 1e-3
# G'ZG = Ginv S Ginv' = diag(sig), entrywise, against the largest sig.  The
# spread pairs below reach 4.3e-12; a member mixed up with another of its
# stack would be off by order one.
SCALING_RTOL = 1e-10


def lp_bound_problem():
    """min y s.t. y >= 1, written as a 1x1 SDP block."""
    block = block_from_matrices(np.array([[1.0]]), [np.array([[1.0]])])
    return SdpProblem(b=np.array([1.0]), blocks=[block])


def arrow_problem():
    """min y s.t. [[y, 1], [1, y]] >= 0, optimal at y = 1."""
    c = np.array([[0.0, -1.0], [-1.0, 0.0]])
    block = block_from_matrices(c, [np.eye(2)])
    return SdpProblem(b=np.array([1.0]), blocks=[block])


def random_spd(gen, n):
    q = gen.normal(size=(n, n))
    return q @ q.T + n * np.eye(n)


def constructed_problem(gen, with_equalities=False):
    """Six variables, two blocks, strictly feasible on both sides by design."""
    m = 6
    sizes = (4, 3)
    y_star = gen.normal(size=m)
    mats = [[0.5 * (a + a.T) for a in gen.normal(size=(m, n, n))] for n in sizes]
    blocks = []
    for n, a_list in zip(sizes, mats):
        s_star = random_spd(gen, n)
        c = sum(y * a for y, a in zip(y_star, a_list)) - s_star
        blocks.append(block_from_matrices(c, a_list))
    z_stars = [random_spd(gen, n) for n in sizes]
    b = np.zeros(m)
    for a_list, z in zip(mats, z_stars):
        b += np.array([np.tensordot(a, z) for a in a_list])
    e = d = None
    if with_equalities:
        e = gen.normal(size=(2, m))
        d = e @ y_star
        nu_star = gen.normal(size=2)
        b += e.T @ nu_star
    return SdpProblem(b=b, blocks=blocks, e=e, d=d), y_star


# -- contract examples --------------------------------------------------------

def test_lp_as_sdp():
    sol = solve_sdp(lp_bound_problem())
    assert sol.status == "optimal"
    assert sol.y[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_arrow_matrix():
    sol = solve_sdp(arrow_problem())
    assert sol.status == "optimal"
    assert sol.y[0] == pytest.approx(1.0, abs=1e-6)
    report = check_kkt(arrow_problem(), sol)
    assert report.complementarity < 1e-7
    assert report.dual_residual < 1e-7 * 2.0
    assert min(report.dual_min_eigs) > -1e-9


def test_constructed_solution_kkt():
    p, y_star = constructed_problem(rng(5))
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert sol.objective <= p.b @ y_star + 1e-6 * (1 + abs(sol.objective))
    report = check_kkt(p, sol)
    scale = 1.0 + abs(sol.objective) + abs(sol.dual_objective)
    assert report.dual_residual < 1e-7 * (1.0 + np.linalg.norm(p.b))
    assert report.complementarity < 1e-6 * scale
    assert all(lam > -1e-8 * scale for lam in report.slack_min_eigs)
    assert all(lam > -1e-8 * scale for lam in report.dual_min_eigs)


def test_constructed_solution_with_equalities():
    p, y_star = constructed_problem(rng(7), with_equalities=True)
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    report = check_kkt(p, sol)
    assert report.equality_residual <= 1e-8 * (1.0 + np.linalg.norm(p.d))
    assert sol.objective <= p.b @ y_star + 1e-6 * (1 + abs(sol.objective))


def test_simple_equality_pins_answer():
    # min y1 + y2 with y1 = y2 and y1 >= 1: optimum (1, 1).
    block = SdpBlock(1, np.array([[1.0]]), np.array([0]), np.array([0]),
                     np.array([0]), np.array([1.0]))
    p = SdpProblem(b=np.array([1.0, 1.0]), blocks=[block],
                   e=np.array([[1.0, -1.0]]), d=np.array([0.0]))
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert np.allclose(sol.y, [1.0, 1.0], atol=1e-6)


def dual_residual_vector(p, sol):
    """b - A'(Z) - E'nu, entry by entry, from the dense coefficients."""
    rd = p.b - p.e.T @ sol.nu
    for blk, z in zip(p.blocks, sol.z):
        rd -= [np.tensordot(blk.coefficient(i), z) for i in range(p.m)]
    return rd


def test_presolve_eliminates_general_equalities():
    p, _ = constructed_problem(rng(7), with_equalities=True)
    pre = _Presolve(p)
    assert pre.problem.e.shape == (0, p.m - 2) and pre.problem.d.size == 0
    assert pre.basic.size == 2
    sol = solve_sdp(p)
    assert sol.status == "optimal" and sol.y.shape == (p.m,)
    assert np.linalg.norm(p.e @ sol.y - p.d) <= 1e-12 * (1.0 + np.linalg.norm(p.d))
    # nu makes the dual residual vanish on the basic rows up to roundoff.
    rd = dual_residual_vector(p, sol)
    scale = np.linalg.norm(p.b) + sum(np.linalg.norm(z) for z in sol.z)
    assert np.abs(rd[pre.basic]).max() <= 1e-13 * scale
    assert np.linalg.norm(rd) == pytest.approx(check_kkt(p, sol).dual_residual,
                                               rel=1e-6, abs=1e-13 * scale)


# -- invariants ----------------------------------------------------------------

def test_weak_duality_identity_along_path():
    p, _ = constructed_problem(rng(11), with_equalities=True)
    sol = solve_sdp(p)
    n_total = sum(blk.n for blk in p.blocks)
    for row in sol.diagnostics["history"]:
        scale = 1.0 + abs(row["objective"]) + abs(row["dual_objective"])
        slack = row["gap"] - row["duality_correction"]
        # gap - correction equals <S, Z> = mu * n exactly, hence non-negative.
        assert slack == pytest.approx(row["mu"] * n_total, rel=1e-9, abs=1e-9 * scale)
        assert slack >= -1e-9 * scale


def test_dual_refinement_keeps_the_residual_on_the_line():
    # After a step of length alpha_d the dual residual is
    # (1 - alpha_d) rd + alpha_d (rd - A*(dZ)), and the refinement holds the
    # miss rd - A*(dZ) at roundoff, so the relative residual shrinks at least
    # in proportion.  On cantilever-3 order 2 the largest excess over that
    # line is 9.1e-14; without the refinement it is 1.1e-9.
    history = solve_sdp(build_relaxation(scale_problem(cantilever(3)), 2).problem) \
        .diagnostics["history"]
    assert len(history) > 20
    for row, nxt in zip(history, history[1:]):
        assert nxt["rel_dual"] <= (1.0 - row["alpha_d"]) * row["rel_dual"] + 1e-11, row


def test_step_fraction_stays_within_its_range():
    # The fraction to the boundary follows the predictor's step lengths,
    # 0.9 + 0.09 min(alpha_p, alpha_d) with both in [0, 1], and every step
    # taken records it next to the step lengths it scaled.
    for p in (constructed_problem(rng(11), with_equalities=True)[0],
              build_relaxation(scale_problem(cantilever(3)), 2).problem):
        sol = solve_sdp(p)
        taken = sol.diagnostics["history"][:-1]
        assert len(taken) == sol.iterations - 1 > 0
        fractions = [row["step_fraction"] for row in taken]
        assert all(0.9 <= f <= 0.99 for f in fractions), fractions
        assert len(set(fractions)) > 1
        assert all(0.0 <= row["alpha_p"] <= 1.0 and 0.0 <= row["alpha_d"] <= 1.0
                   for row in taken)


def test_deterministic():
    p, _ = constructed_problem(rng(3))
    s1 = solve_sdp(p)
    s2 = solve_sdp(p)
    assert np.array_equal(s1.y, s2.y)
    assert s1.iterations == s2.iterations
    assert s1.objective == s2.objective


def test_scale_invariance_of_status_and_answer():
    p, _ = constructed_problem(rng(13))
    base = solve_sdp(p)
    scaled_first = SdpBlock(p.blocks[0].n, 10.0 * p.blocks[0].c, p.blocks[0].var,
                            p.blocks[0].row, p.blocks[0].col, 10.0 * p.blocks[0].val)
    scaled = solve_sdp(SdpProblem(b=p.b.copy(), blocks=[scaled_first, p.blocks[1]]))
    assert scaled.status == base.status == "optimal"
    assert np.allclose(scaled.y, base.y, rtol=1e-6, atol=1e-6 * np.abs(base.y).max())


def test_kkt_perturbation_monotonicity():
    p = arrow_problem()
    sol = solve_sdp(p)
    base = check_kkt(p, sol)
    bent = type(sol)(
        y=sol.y - 1e-3, nu=sol.nu, z=sol.z, objective=sol.objective,
        dual_objective=sol.dual_objective, gap=sol.gap, rel_gap=sol.rel_gap,
        status=sol.status, iterations=sol.iterations)
    report = check_kkt(p, bent)
    assert kkt_primal_residual(report) == pytest.approx(1e-3, rel=1e-2)
    assert kkt_primal_residual(report) > 10 * kkt_primal_residual(base)


# -- validation ----------------------------------------------------------------

def test_rejects_asymmetric_matrix():
    with pytest.raises(SdpError, match="symmetric"):
        block_from_matrices(np.array([[0.0, 1.0], [0.0, 0.0]]), [np.eye(2)])


def test_rejects_rank_deficient_equalities():
    block = block_from_matrices(np.array([[1.0]]), [np.array([[1.0]])])
    with pytest.raises(SdpError, match="rank"):
        SdpProblem(b=np.array([1.0]), blocks=[block],
                   e=np.array([[1.0], [1.0]]), d=np.array([0.0, 0.0]))
    # Without a PSD block there is nothing to path-follow.
    with pytest.raises(SdpError, match="PSD block"):
        SdpProblem(b=np.array([1.0, 0.0]), blocks=[],
                   e=np.array([[1.0, 2.0]]), d=np.array([3.0]))


def test_rejects_variable_out_of_range():
    for var in (3, -1):
        with pytest.raises(SdpError, match="variable"):
            SdpProblem(b=np.array([1.0]),
                       blocks=[SdpBlock(1, np.array([[0.0]]), np.array([var]),
                                        np.array([0]), np.array([0]), np.array([1.0]))])


# -- Schur-complement kernels ---------------------------------------------------

def brute_schur(blk, m, winv):
    """<A_i, W A_v W> for all i, v from the dense coefficients, in the scaled data."""
    scale = _BlockData(blk, m).scale
    mats = np.array([blk.coefficient(i) / scale for i in range(m)])
    t = winv @ mats @ winv
    return mats.reshape(m, -1) @ t.reshape(m, -1).T


def kernel_results(blk, m, winv):
    """The Schur rows from the batches as built, then from batches of at most
    two variables, so that every larger group of equal |R_v| splits."""
    for chunk_bytes in (sdp.SCHUR_CHUNK_BYTES, 2 * 8 * blk.n ** 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "SCHUR_CHUNK_BYTES", chunk_bytes)
            bd = _BlockData(blk, m)
        # Each (k, n, n) product fits in SCHUR_CHUNK_BYTES, unless k = 1.
        assert all(vs.size == 1 or 8 * vs.size * blk.n ** 2 <= chunk_bytes
                   for vs, _, _ in bd.batches)
        out = np.zeros((m, m))
        bd.schur_accumulate(winv, out)
        yield out


def assert_schur_matches(blk, m, gen):
    q = gen.normal(size=(blk.n, blk.n))
    winv = q @ q.T + np.eye(blk.n)
    want = brute_schur(blk, m, winv)
    for got in kernel_results(blk, m, winv):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def random_block(gen, n, m, n_entries):
    row = gen.integers(0, n, n_entries)
    col = gen.integers(0, n, n_entries)
    return SdpBlock(n, np.zeros((n, n)), gen.integers(0, m, n_entries),
                    np.minimum(row, col), np.maximum(row, col),
                    gen.normal(size=n_entries))


def test_schur_random_blocks_with_duplicates():
    gen = rng(19)
    for n, m, n_entries in ((4, 3, 30), (7, 6, 60), (12, 5, 40)):
        blk = random_block(gen, n, m, n_entries)
        key = (blk.var * n + blk.row) * n + blk.col
        assert np.unique(key).size < key.size  # duplicates present
        assert_schur_matches(blk, m, gen)


def test_schur_special_variables():
    # Variable 0 sits on the diagonal only, variable 1 fills the upper
    # triangle (k = n^2 >= 2n once mirrored), variable 2 appears nowhere and
    # variable 3 shares a position with variable 0.
    n, m = 6, 4
    gen = rng(23)
    r_up, c_up = np.triu_indices(n)
    var = np.concatenate([np.zeros(n, int), np.ones(r_up.size, int), [3]])
    row = np.concatenate([np.arange(n), r_up, [2]])
    col = np.concatenate([np.arange(n), c_up, [2]])
    blk = SdpBlock(n, np.zeros((n, n)), var, row, col, gen.normal(size=var.size))
    assert_schur_matches(blk, m, gen)
    bd = _BlockData(blk, m)
    out = np.zeros((m, m))
    bd.schur_accumulate(np.eye(n), out)
    assert not np.any(out[2]) and not np.any(out[:, 2])


def test_schur_one_by_one_block():
    blk = SdpBlock(1, np.array([[0.5]]), np.array([0, 2, 2]), np.zeros(3, int),
                   np.zeros(3, int), np.array([1.0, -2.0, 0.5]))
    assert_schur_matches(blk, 3, rng(29))


def test_schur_moment_relaxation_blocks():
    gen = rng(31)
    for gs in (cantilever(3), cantilever(5), girder()):
        p = _Presolve(build_relaxation(scale_problem(gs), 2).problem).problem
        batches = [_BlockData(blk, p.m).batches for blk in p.blocks]
        # Some block batches variables of several row counts, and some batch
        # holds more than one variable.
        assert max(len({rows.shape[1] for _, rows, _ in bs}) for bs in batches) > 1
        assert max(vs.size for bs in batches for vs, _, _ in bs) > 1
        for blk in p.blocks:
            assert_schur_matches(blk, p.m, gen)


def test_solver_reports_phase_times_and_schur_flops():
    p, _ = constructed_problem(rng(5))
    sol = solve_sdp(p)
    phases = sol.diagnostics["phase_s"]
    assert set(phases) == {"scaling", "schur", "factor", "step", "metrics"}
    assert all(t >= 0.0 for t in phases.values()) and phases["schur"] > 0.0
    # 2 n^2 r + 2 n r^2 flops per variable, r = |R_v| the rows A_v uses,
    # plus 2 nnz of the used upper triangle per variable.
    flops = 0.0
    for blk in _Presolve(p).problem.blocks:
        mats = [blk.coefficient(i) for i in np.unique(blk.var)]
        r = np.array([np.count_nonzero(np.any(a, axis=1)) for a in mats])
        nnz = sum(np.count_nonzero(np.triu(a)) for a in mats)
        flops += np.sum(2.0 * blk.n ** 2 * r + 2.0 * blk.n * r ** 2) + 2.0 * nnz * len(mats)
    assert sol.diagnostics["schur_gflop"] == pytest.approx(flops / 1e9, rel=1e-12)


def assert_ends_on_last_seen(sol, seen):
    """The run returned the iterate the callback saw last."""
    assert sol.iterations == len(seen)
    y, z = seen[-1]
    assert np.array_equal(sol.y, y)
    assert all(np.array_equal(a, b) for a, b in zip(sol.z, z))


def test_callback_sees_every_iterate_and_can_stop(monkeypatch):
    p, _ = constructed_problem(rng(7), with_equalities=True)
    full = solve_sdp(p)
    seen = []

    def watch(y, z):
        seen.append((y.copy(), [zk.copy() for zk in z]))
        return None

    quiet = solve_sdp(p, watch)
    # A callback that never stops leaves the path as it was.
    assert len(seen) == quiet.iterations == full.iterations
    assert np.array_equal(quiet.y, full.y) and quiet.status == full.status
    # It sees y in the caller's coordinates, equalities included.
    assert all(y.shape == (p.m,) for y, _ in seen)
    assert np.allclose(p.e @ seen[-1][0], p.d, rtol=0.0, atol=1e-12)
    assert quiet.status == "optimal" and quiet.diagnostics["reason"] == "tolerances met"
    assert_ends_on_last_seen(quiet, seen)

    seen.clear()
    sol = solve_sdp(p, lambda y, z: watch(y, z) or ("enough" if len(seen) == 5 else None))
    assert sol.iterations == 5 and sol.status == "stopped"
    assert sol.diagnostics["reason"] == "enough"
    assert_ends_on_last_seen(sol, seen)

    # A moment relaxation that the solver ends on its own, short of its
    # tolerances, ends on its last iterate too, not on an earlier one.
    seen.clear()
    sol = solve_sdp(build_relaxation(scale_problem(cantilever(7)), 2).problem, watch)
    assert sol.status == "numerical-failure"
    assert sol.diagnostics["reason"] == "lost positive definiteness"
    assert_ends_on_last_seen(sol, seen)

    # At the iteration cap the run ends on the iterate it measured last,
    # without a step past it.
    monkeypatch.setattr(sdp, "MAX_ITER", 5)
    seen.clear()
    sol = solve_sdp(p, watch)
    assert sol.iterations == len(seen) == 5 and sol.status == "numerical-failure"
    assert sol.diagnostics["reason"] == "iteration limit"
    assert_ends_on_last_seen(sol, seen)
    history = sol.diagnostics["history"]
    assert len(history) == 5 and "alpha_p" not in history[-1] and "alpha_p" in history[-2]


def test_block_order_leaves_the_path_unchanged():
    # The solver stacks blocks by size whatever order the caller gives them
    # in: with the PMI and moment blocks moved between the five equal-size
    # localizers, the path is the same, and Z comes back in the caller's order.
    p = build_relaxation(scale_problem(cantilever(3)), 2).problem
    sizes = [blk.n for blk in p.blocks]
    assert sizes == [15, 5, 5, 5, 5, 5, 50]
    order = [1, 2, 6, 3, 0, 4, 5]
    moved = solve_sdp(SdpProblem(p.b, [p.blocks[k] for k in order], p.e, p.d))
    base = solve_sdp(p)
    assert moved.iterations == base.iterations
    assert np.array_equal(moved.y, base.y)
    assert [z.shape[0] for z in moved.z] == [sizes[k] for k in order]
    assert all(np.array_equal(z, base.z[k]) for z, k in zip(moved.z, order))


# -- step lengths -----------------------------------------------------------------

def nt_pair(gen, n, lo, hi):
    """PD pair S = G D G', Z = G^-T D G^-1 with D log-uniform on [lo, hi]."""
    q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    g = q * np.exp(gen.uniform(-1.0, 1.0, n))
    ginv = np.linalg.inv(g)
    d = np.diag(np.exp(gen.uniform(np.log(lo), np.log(hi), n)))
    s, z = g @ d @ g.T, ginv.T @ d @ ginv
    return 0.5 * (s + s.T), 0.5 * (z + z.T)


def assert_steps_match(s, z, ds_t):
    """The scaled-pair step of each member of the stack ds_t, read as a primal
    and as a dual scaled direction, against the Cholesky step of the
    unscaled direction."""
    ginv, _, sig = _nt_scaling(s, z)
    g = nt_congruence(s, z)
    steps = _steps_to_boundary(sig, ds_t)
    assert steps.shape == (len(s),)
    for j, got in enumerate(steps):
        for x, delta in ((s[j], g[j] @ ds_t[j] @ g[j].T), (z[j], ginv[j].T @ ds_t[j] @ ginv[j])):
            want = cholesky_step(x, delta)
            assert got == want or abs(got - want) <= STEP_RTOL * want, (j, got, want)


def scaled_direction(gen, sig):
    """A random direction of the iterate's own size in the scaled norm."""
    n = sig.size
    e = gen.normal(size=(n, n))
    root = np.sqrt(sig)
    return (e + e.T) / np.sqrt(n) * np.outer(root, root)


def test_step_matches_cholesky_on_spread_pairs():
    gen = rng(41)
    for _ in range(200):
        n = int(gen.integers(1, 30))
        s, z = (x[None] for x in nt_pair(gen, n, 1e-12, 1e2))
        sig = _nt_scaling(s, z)[2][0]
        assert_steps_match(s, z, scaled_direction(gen, sig)[None])


def test_stacked_scaling_and_steps_on_spread_pairs():
    # Pairs of one size and very different spreads share one stack, 1 x 1
    # members included; each member is scaled and stepped as if alone.
    gen = rng(47)
    for n in (1, 2, 5, 9, 17):
        pairs = [nt_pair(gen, n, 1e-12, 1e2) for _ in range(7)]
        s, z = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        ginv, _, sig = _nt_scaling(s, z)
        g = nt_congruence(s, z)
        for j in range(len(pairs)):
            for scaled in (g[j].T @ z[j] @ g[j], ginv[j] @ s[j] @ ginv[j].T):
                assert np.abs(scaled - np.diag(sig[j])).max() <= SCALING_RTOL * sig[j].max()
        assert_steps_match(s, z, np.array([scaled_direction(gen, sig_j) for sig_j in sig]))


def test_step_along_psd_directions_is_unbounded():
    gen = rng(43)
    for n in (1, 4, 17):
        s, z = (np.array(x) for x in zip(*(nt_pair(gen, n, 1e-12, 1e2) for _ in range(3))))
        ginv, _, sig = _nt_scaling(s, z)
        g = nt_congruence(s, z)
        q = gen.normal(size=(n, n))
        p = q @ q.T + np.eye(n)
        for ds_t in (np.zeros((3, n, n)), p * sig[:, :, None] ** 0.5 * sig[:, None, :] ** 0.5):
            assert np.all(_steps_to_boundary(sig, ds_t) == np.inf)
            for j in range(3):
                assert cholesky_step(s[j], g[j] @ ds_t[j] @ g[j].T) == np.inf
                assert cholesky_step(z[j], ginv[j].T @ ds_t[j] @ ginv[j]) == np.inf


def test_step_matches_cholesky_on_solver_iterates(monkeypatch):
    # Every scaled direction of a cantilever-3 order-2 solve, at the iterate
    # it was taken from.
    pairs, steps = {}, []

    def nt_spy(s, z):
        out = _nt_scaling(s, z)
        pairs[id(out[2])] = (s, z, out[2])
        return out

    def step_spy(sig, delta):
        steps.append((pairs[id(sig)][:2], delta))
        return _steps_to_boundary(sig, delta)

    monkeypatch.setattr(sdp, "_nt_scaling", nt_spy)
    monkeypatch.setattr(sdp, "_steps_to_boundary", step_spy)
    problem = build_relaxation(scale_problem(cantilever(3)), 2).problem
    sol = solve_sdp(problem)
    # Predictor and corrector, primal and dual, per block and step taken.
    assert sum(len(delta) for _, delta in steps) == \
        4 * (sol.iterations - 1) * len(problem.blocks)
    for (s, z), delta in steps:
        assert_steps_match(s, z, delta)
