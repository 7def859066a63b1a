"""Matrix-inequality reformulations of compliance minimization.

The nested problem min f(a)'u(a) is equivalent to minimizing c subject to
the linear-in-(a, c) constraint

    G(a, c) = [[c, -f(a)'], [-f(a), K(a)]]  >=  0,

by the generalized Schur complement: G >= 0 iff K >= 0, f in range(K) and
c >= f' pinv(K) f.  G lives on the support-reduced DOF set, so it stays well
defined for designs with zero areas.

run_nsdp_local solves this formulation with an exterior quadratic penalty
on the negative eigenvalue of G, a log-barrier on the linear constraints,
and L-BFGS inner iterations.

G has at most one negative eigenvalue: K(a) >= 0 for a >= 0, and by Cauchy
interlacing the second eigenvalue of G is at least the smallest of K, its
trailing principal block.  A negative eigenvalue lam is not one of K, so
the eigenvector [1; y] has y = (K - lam I)^-1 f, and lam is the root below
zero of the secular equation (Golub, "Some modified matrix eigenvalue
problems", SIAM Rev. 15, 1973)

    s(lam) = c - lam - f'(K - lam I)^-1 f,    s'(lam) = -1 - ||y||^2.

s falls from +inf, so there is such a root iff s(0) < 0, and it lies above
lam_lo = (c - sqrt(c^2 + 4 ||f||^2)) / 2, where K >= 0 makes s >= 0.  The
penalty finds it on the banded K: one Cholesky factor at lam = 0 decides
whether G >= 0 (a singular K, which has no factor there, is probed just
below zero instead), and each further step factors the shifted band,
O(n u^2) for half-bandwidth u.  The steps fit one pole
alpha / (delta - lam) to q = f'y and q' = ||y||^2.  q is a sum of such
poles, so 1/q is concave and the fitted pole lies below q everywhere: every
step lands at or above the root and they fall monotonically onto it, while
s' <= -1 bounds the root from below by lam + s(lam).  A step that leaves
that bracket, or a shifted factor that fails, falls back to bisection.

The same solve gives each stage's history eigenvalue and decides the
terminal feasibility test.  Only the two oracles, build_compliance_lmi and
check_schur_equivalence, build the dense G, from the band's dense mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh
from scipy.linalg.lapack import dpbsv

from frameopt import analysis
from frameopt.local import LocalResult, project_design
from frameopt.model import FrameAssembly, GroundStructure, require_valid, uniform_design
from frameopt.sdp import PhaseClock


class IncompatibleLoadError(ValueError):
    """Load vector has a component outside the range of the stiffness matrix."""


# Terminal feasibility threshold on the smallest eigenvalue of D G D,
# relative to a Gershgorin upper bound on its norm.
EIG_FEAS_RTOL = 1e-6
PSD_RTOL = 1e-9          # classification threshold for the Schur oracle
PINV_RCOND = 1e-12
# The secular root solve of the nsdp penalty stops once its step, its
# bracket or its residual falls below SECULAR_RTOL times a lower bound on
# ||G||, after at most SECULAR_MAXITER factorizations; SECULAR_PROBE is its
# shift below zero on a singular K, relative to the same bound.
SECULAR_RTOL = 1e-15
SECULAR_PROBE = 1e-13
SECULAR_MAXITER = 100

# The penalty schedule of run_nsdp_local.
RHO_INIT = 10.0         # initial constraint-penalty weight
RHO_GROWTH = 10.0       # default penalty growth per stage
RHO_MAX = 1e12
BARRIER_INIT = 1e-1     # barrier weight runs at RHO_INIT/rho * this
INNER_MAXITER = 500
MAX_RETRIES = 3         # per-stage rho back-offs after a stalled inner solve
SHRINK = 0.95           # pullback from the volume face for the start
C_MARGIN = 1.1          # starting compliance variable, times FEM value


def smallest_eigenpair(c: float, f: np.ndarray,
                       band: np.ndarray) -> tuple[float, np.ndarray | None, int]:
    """Negative eigenvalue of G = [[c, -f'], [-f, K]] for K >= 0, and its eigenvector.

    K is given by its upper band in LAPACK storage (see
    ``FrameAssembly.stiffness_band``).  Returns (lam, v, factorizations)
    with v of unit norm, or (0.0, None, factorizations) when G is positive
    semidefinite to within the root tolerance.
    """
    fn2 = float(f @ f)
    if fn2 == 0.0:
        # Block diagonal: the only candidate below zero is c itself.
        if c < 0.0:
            v = np.zeros(f.size + 1)
            v[0] = 1.0
            return c, v, 0
        return 0.0, None, 0
    # ||G|| is at least its largest diagonal entry and at least ||G e_0||.
    g_low = max(abs(c), math.sqrt(fn2), float(band[-1].max()))
    tol = SECULAR_RTOL * g_low
    root = math.sqrt(c * c + 4.0 * fn2)
    lo = -2.0 * fn2 / (c + root) if c > 0.0 else 0.5 * (c - root)
    hi = 0.0
    factorizations = 0

    def solve(lam):
        nonlocal factorizations
        factorizations += 1
        ab = band.copy(order="F")
        ab[-1] -= lam
        _, y, info = dpbsv(ab, f, overwrite_ab=1)     # dpbtrf, then dpbtrs
        return y if info == 0 else None

    # s(0) >= 0 decides G >= 0.  A singular K has no factor at 0; then
    # s >= 0 at a small shift below 0 puts any root within that shift.
    lam = 0.0
    y = solve(lam)
    if y is None:
        lam = -SECULAR_PROBE * g_low
        y = solve(lam)
    if y is not None and c - lam - float(f @ y) >= 0.0:
        return 0.0, None, factorizations
    point = None                    # (lam, y) of the last factored point
    for _ in range(SECULAR_MAXITER):
        if y is None:
            # K - lam I is not numerically definite, so lam lies at or above
            # the smallest eigenvalue of K, and so above the root.
            hi = lam
        else:
            q = float(f @ y)
            yy = float(y @ y)
            s = c - lam - q
            if s < 0.0:
                hi = lam
                lo = max(lo, lam + s)       # s' <= -1 below lam
            else:
                lo = lam
            point = (lam, y)
            # Fit alpha / (delta - lam) to q and q' = y'y, and take the root
            # below delta of c - lam - alpha / (delta - lam).
            gap = q / yy
            delta, alpha = lam + gap, q * gap
            b = c - delta
            disc = math.sqrt(b * b + 4.0 * alpha)
            step = delta - (2.0 * alpha / (b + disc) if b > 0.0 else 0.5 * (disc - b))
            # s' <= -1 puts the root within |s| of lam.
            if abs(s) <= tol or abs(step - lam) <= tol:
                break
        if hi - lo <= tol:
            break
        # The bracket's lower end may be the root itself (K = 0 makes the
        # fitted pole exact), so a step may land on it.
        if point is not None and lo - tol <= step < hi:
            lam = max(step, lo)
        else:
            lam = 0.5 * (lo + hi)
        y = solve(lam)
    if point is None:
        return 0.0, None, factorizations
    # The last fitted root is closer than the last factored point: the fit
    # is exact to second order.  Its eigenvector differs from that point's
    # by the short step, which moves the gradient only that much.
    lam = min(max(step, lo), hi)
    if lam >= 0.0:
        return 0.0, None, factorizations
    v = np.concatenate(([1.0], point[1]))
    return lam, v / np.linalg.norm(v), factorizations


class ScaledLmi:
    """D G(a, c) D for a fixed positive diagonal D, held without a dense G.

    ``parts(a, c)`` gives c~ = d0^2 c, the reduced loads f~ = d0 D_K f(a)
    and the upper band of K~ = D_K K(a) D_K in LAPACK storage, with D_K the
    trailing part of D.  Their entries equal those of the dense D G D bit
    for bit (negated for f~).
    """

    def __init__(self, asm: FrameAssembly, d: np.ndarray):
        self.asm = asm
        self.d = d
        u, n = asm.half_bandwidth, asm.free.size
        dk = d[1:]
        # band[r, j] holds K[i, j] with i = j - u + r; rows above 0 are unused.
        i = np.arange(n)[None, :] - u + np.arange(u + 1)[:, None]
        self.band_scale = np.asfortranarray(
            np.where(i >= 0, dk[np.maximum(i, 0)] * dk[None, :], 0.0))
        self.c_scale = d[0] * d[0]
        self.f_scale = d[0] * dk
        # Each element DOF's reduced position for the eigenvalue's gradient;
        # a supported DOF picks the zero appended to the eigenvector.
        self._dofs = np.where(asm.reduced_dofs >= 0, asm.reduced_dofs, n)

    def parts(self, a: np.ndarray, c: float) -> tuple[float, np.ndarray, np.ndarray]:
        """(c~, f~, band of K~) of D G(a, c) D."""
        asm = self.asm
        return (c * self.c_scale, asm.loads(a)[asm.free] * self.f_scale,
                asm.stiffness_band(a) * self.band_scale)

    def norm_bound(self, c: float, f: np.ndarray, band: np.ndarray) -> float:
        """Gershgorin upper bound on ||D G D|| from ``parts``: its largest row sum of |entries|."""
        rows = np.abs(band.ravel(order="F")[self.asm.band_slots]).sum(axis=1)
        return max(abs(c) + float(np.sum(np.abs(f))),
                   float(np.max(rows + np.abs(f), initial=0.0)))

    def eigenvalue_gradient(self, a: np.ndarray,
                            v: np.ndarray) -> tuple[np.ndarray, float]:
        """d lam / d a_i and d lam / d c of a simple eigenpair (lam, v) of D G D.

        With w = D v, v' (D dG D) v = w_K' dK/da_i w_K - 2 w_0 w_K' df/da_i.
        """
        asm = self.asm
        w = self.d * v
        ve = np.append(w[1:], 0.0)[self._dofs]                   # (ne, 6)
        grad = np.einsum("ek,ekl,el->e", ve, asm.ka + (2.0 * a)[:, None, None] * asm.kb, ve)
        if asm.f1 is not None:
            grad -= 2.0 * w[0] * np.einsum("ek,ek->e", asm.f1, ve)
        return grad, w[0] * w[0]


def build_compliance_lmi(gs: GroundStructure, d: np.ndarray, c: float) -> np.ndarray:
    """G(d, c) = [[c, -f'], [-f, K]] on the support-reduced DOF set."""
    asm = gs.assembly
    d = np.asarray(d, dtype=float)
    f_hat = asm.loads(d)[asm.free][:, None]
    return np.block([[np.full((1, 1), float(c)), -f_hat.T], [-f_hat, asm.stiffness(d)]])


@dataclass(frozen=True)
class SchurCheck:
    """Two independent feasibility verdicts that must agree."""

    lmi_psd: bool       # smallest eigenvalue of G(d, c) non-negative (to tolerance)
    schur_ok: bool      # c >= f' pinv(K) f (to tolerance)

    @property
    def agree(self) -> bool:
        return self.lmi_psd == self.schur_ok


def check_schur_equivalence(gs: GroundStructure, d: np.ndarray, c: float) -> SchurCheck:
    """Classify (d, c) by the eigenvalues of G and by the pseudo-inverse bound.

    Raises IncompatibleLoadError when f has a component outside range(K),
    where the pseudo-inverse bound is meaningless.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("areas must be non-negative")
    g = build_compliance_lmi(gs, d, c)
    k_hat, f_hat = g[1:, 1:], -g[1:, 0]

    k_pinv = np.linalg.pinv(k_hat, rcond=PINV_RCOND, hermitian=True)
    u = k_pinv @ f_hat
    f_norm = np.linalg.norm(f_hat)
    if f_norm > 0.0 and np.linalg.norm(k_hat @ u - f_hat) > 1e-8 * f_norm:
        raise IncompatibleLoadError("load vector not in the range of the stiffness matrix")

    # Jacobi congruence scaling before the eigen test: D G D with positive
    # diagonal D keeps the inertia of G but stops the c-versus-K magnitude
    # mismatch from squashing a boundary violation below the tolerance.
    diag = np.diag(g)
    floor = 1e-12 * max(float(diag.max(initial=0.0)), 1.0)
    scale_vec = 1.0 / np.sqrt(np.maximum(diag, floor))
    lam = eigvalsh(g * scale_vec[:, None] * scale_vec[None, :])
    scale = max(abs(lam[0]), abs(lam[-1]), 1.0)
    lmi_psd = bool(lam[0] >= -PSD_RTOL * scale)
    bound = float(f_hat @ u)
    schur_ok = bool(c >= bound - PSD_RTOL * max(abs(c), abs(bound), 1.0))
    return SchurCheck(lmi_psd=lmi_psd, schur_ok=schur_ok)


def _barrier(t: np.ndarray, t0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-log(t) elementwise, with a C1 quadratic extension on [0, t0) and a
    linear tail below zero, keeping values and slopes bounded during line
    searches.  Returns the values and the slopes."""
    inner = np.maximum(t, t0)
    value = np.log(inner)
    np.negative(value, out=value)
    slope = np.divide(-1.0, inner)
    # The few entries below t0: with z = t/t0 - 1, the extension is
    # -log(t0) - z + z^2/2, continued linearly from z = -1 (t = 0) down.
    for i in np.flatnonzero(t < t0).tolist():
        t0i = t0[i]
        z = t[i] / t0i - 1.0
        zc = max(z, -1.0)
        value[i] = -math.log(t0i) - z + zc * (z - 0.5 * zc)
        slope[i] = (zc - 1.0) / t0i
    return value, slope


class NsdpPenalty:
    """The penalty objective of run_nsdp_local and its gradient in (a, c).

    phi = c + rho (min(lam, 0)^2 + max(l'a - Vbar, 0)^2)
          + beta (sum_i B(a_i) + B(Vbar - l'a)),

    with lam the smallest eigenvalue of D G(a, c) D and B the extended
    log-barrier.  The Jacobi congruence scaling D, fixed at the start
    (a0, c0), balances the compliance entry against the stiffness block;
    congruence preserves positive semidefiniteness.  Counts its
    evaluations and their banded factorizations.
    """

    def __init__(self, gs: GroundStructure, a0: np.ndarray, c0: float):
        asm = gs.assembly
        self.lengths = asm.lengths
        self.vbar = gs.volume_bound
        self.ne = gs.n_elements
        # Widths of the quadratic barrier zones of the areas and the volume slack.
        t0_a = 1e-8 * (self.vbar / float(np.sum(self.lengths)))
        self.t0 = np.append(np.full(self.ne, t0_a), 1e-4 * self.vbar)
        diag0 = np.abs(np.concatenate(([c0], asm.stiffness_band(a0)[-1])))
        d = 1.0 / np.sqrt(np.maximum(diag0, 1e-12 * np.max(diag0)))
        self.lmi = ScaledLmi(asm, d)
        self.evaluations = 0
        self.eig_solves = 0

    def __call__(self, xv: np.ndarray, rho: float, beta: float,
                 norm: float) -> tuple[float, np.ndarray]:
        ne, lengths = self.ne, self.lengths
        a, c = xv[:ne], float(xv[ne])
        slack = self.vbar - float(lengths @ a)
        lam, v, factorizations = smallest_eigenpair(*self.lmi.parts(a, c))
        self.evaluations += 1
        self.eig_solves += factorizations
        grad = np.empty(ne + 1)
        val = c
        if v is None:
            grad[:ne] = 0.0
            grad[ne] = 1.0
        else:
            grad_a, grad_c = self.lmi.eigenvalue_gradient(a, v)
            val += rho * lam * lam
            grad[:ne] = 2.0 * rho * lam * grad_a
            grad[ne] = 1.0 + 2.0 * rho * lam * grad_c
        # One barrier call for the areas and the volume slack.  The volume
        # face is held by the growing penalty; the mild barrier only keeps
        # early iterates interior.
        b, db = _barrier(np.append(a, slack), self.t0)
        viol = max(-slack, 0.0)
        val += beta * float(np.sum(b)) + rho * viol * viol
        grad[:ne] += beta * db[:ne] + (2.0 * rho * viol - beta * db[ne]) * lengths
        return val * norm, grad * norm


def run_nsdp_local(gs: GroundStructure, rho_growth: float = RHO_GROWTH) -> LocalResult:
    """Exterior penalty method for min c s.t. G(a, c) >= 0, l'a <= Vbar, a >= 0.

    Minimizes NsdpPenalty, c + rho * min(lambda_min(D G D), 0)^2 plus a
    shrinking log-barrier on the linear constraints, multiplying rho by
    ``rho_growth`` per stage.  The terminal point is labeled
    infeasible-point (with no compliance) unless ``min_eigenvalue`` of
    D G D (the banded root, 0.0 when G >= 0) clears -1e-6 times
    ``eigenvalue_scale``, a Gershgorin bound on ||D G D||.  The
    diagnostics count the penalty ``evaluations`` and the banded
    factorizations in them, ``eig_solves``.
    """
    clock = PhaseClock(("fem", "rest"), "rest")
    result = _penalty_path(gs, rho_growth, clock)
    clock.start(None)
    result.phase_s = clock.seconds
    return result


def _penalty_path(gs: GroundStructure, rho_growth: float, clock: PhaseClock) -> LocalResult:
    """run_nsdp_local's run, its equilibrium solves timed as `fem` on `clock`."""
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    ne = gs.n_elements

    a0 = SHRINK * uniform_design(gs)
    if asm.free.size == 0:      # every DOF supported: G(a, c) = [c], least c = 0
        return LocalResult(method="nsdp", areas=a0, compliance=0.0, status="converged",
                           iterations=0, reason="criterion met")
    # c0 sets the start point and the scaling D, and the penalty path hangs
    # on roundoff, so c0 keeps its dense solve: ``analysis.compliance``, up
    # to 2e-12 relative away, alone moves some runs to another end point.
    clock.start("fem")
    f_hat = asm.loads(a0)[asm.free]
    c0 = C_MARGIN * float(f_hat @ np.linalg.solve(asm.stiffness(a0), f_hat))
    clock.start("rest")
    x = np.concatenate([a0, [c0]])
    phi = NsdpPenalty(gs, a0, c0)

    def solve_stage(x0: np.ndarray, rho: float):
        import scipy.optimize  # here, not at import: only nsdp needs it

        beta = BARRIER_INIT * RHO_INIT / rho
        # Normalize each stage so the inner solver starts with O(1) gradients;
        # a positive rescale leaves the minimizers unchanged.
        _, g0 = phi(x0, rho, beta, 1.0)
        norm = 1.0 / max(1.0, float(np.max(np.abs(g0))))
        out = scipy.optimize.minimize(
            phi, x0, args=(rho, beta, norm), jac=True, method="L-BFGS-B",
            bounds=[(0.0, None)] * ne + [(None, None)],
            options={"maxiter": INNER_MAXITER, "ftol": 1e-16, "gtol": 1e-14},
        )
        return out.x, out.nit, float(np.max(np.abs(out.jac)) / norm)

    history = []
    stages = []
    rho_prev = None
    rho = RHO_INIT
    while True:
        x_new, nit, grad_inf = solve_stage(x, rho)
        if nit == 0 and rho_prev is not None:
            # A jump in rho can leave the warm start where the line search
            # fails outright; halve the log-gap with intermediate stages.
            mid = rho_prev
            for _ in range(MAX_RETRIES):
                mid = float(np.sqrt(mid * rho))
                x_mid, nit_mid, _ = solve_stage(x, mid)
                if nit_mid > 0:
                    x = x_mid
                x_new, nit, grad_inf = solve_stage(x, rho)
                if nit > 0:
                    break
        x = x_new
        lam = smallest_eigenpair(*phi.lmi.parts(x[:ne], x[ne]))[0]
        history.append((float(lengths @ x[:ne]), float(x[ne]), lam))
        stages.append((rho, nit, grad_inf))
        if rho >= RHO_MAX:
            break
        rho_prev = rho
        rho = min(rho * rho_growth, RHO_MAX)

    a, c = np.maximum(x[:ne], 0.0), float(x[ne])
    parts = phi.lmi.parts(a, c)
    lam = smallest_eigenpair(*parts)[0]
    # An upper bound on ||D G D||: a lower one would tighten the threshold.
    scale = max(phi.lmi.norm_bound(*parts), 1e-30)
    vol_resid = max(0.0, float(lengths @ a) - vbar)
    # rho_max bounds the terminal constraint violation of the quadratic
    # penalty at roughly multiplier/(2 rho_max); 1e-5 relative covers it.
    feasible = lam >= -EIG_FEAS_RTOL * scale and vol_resid <= 1e-5 * vbar
    diagnostics = dict(
        stages=stages, inner_iterations=stages[-1][1], grad_inf=stages[-1][2],
        evaluations=phi.evaluations, eig_solves=phi.eig_solves,
        min_eigenvalue=lam, eigenvalue_scale=scale, volume_residual=vol_resid,
        negative_area=float(max(0.0, -np.min(x[:ne]))), c_variable=c)
    status, reason, c_fem = "infeasible-point", "infeasible point", None
    if feasible:
        # The penalty leaves a volume residual of up to 1e-5 * Vbar; project
        # onto the volume face so the reported design meets the bound, then
        # report its equilibrium compliance.
        a = project_design(a, lengths, vbar, 0.0)
        clock.start("fem")
        c_fem = analysis.compliance(gs, a).compliance
        clock.start("rest")
        status, reason = "converged", "criterion met"
    return LocalResult(method="nsdp", areas=a, compliance=c_fem, status=status,
                       iterations=len(history), reason=reason, history=history,
                       diagnostics=diagnostics)
