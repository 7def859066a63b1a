"""Local solvers: optimality-criteria resizing and projected-gradient descent.

Both operate on the nested formulation min c(a) s.t. l'a <= Vbar, a >= eps,
with compliance and its adjoint gradient supplied by frameopt.analysis.
Each meets the volume bound through an exact breakpoint solve (Brucker, "An
O(n) algorithm for quadratic knapsack problems", Oper. Res. Lett. 3, 1984):
the resized or projected volume is monotone and piecewise smooth in one
scalar, so one sort and a few cumulative sums locate the segment where it
crosses Vbar, and the root on that segment has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from frameopt.analysis import SingularSystemError, compliance, compliance_gradient
from frameopt.model import GroundStructure, require_valid, uniform_design
from frameopt.sdp import PhaseClock


class BracketError(RuntimeError):
    """No multiplier can satisfy the volume constraint (budget below floor)."""


@dataclass
class OcConfig:
    eps: float = 1e-6          # minimum area
    zeta: float = 0.2          # move limit on decrease
    eta: float = 0.3           # tuning exponent


# Iteration caps and stopping rules of run_oc and run_local_nlp.
OC_MAX_ITER = 500
OC_TOL = 1e-4           # on max |b_i - 1| over active elements

NLP_MAX_ITER = 3000
STAT_TOL = 1e-7         # on the projected-gradient displacement
MEMORY = 8              # nonmonotone line-search window
ARMIJO = 1e-4
STEP_MIN = 1e-16
STEP_MAX = 1e12

# nlp's second exit.  ||P(a - grad) - a||_inf is in the problem's units, so
# its float floor can sit above STAT_TOL (1.1e-7 on cantilever-100, 1.4e-6
# on the 11-member girder).  A design whose scale-free KKT residual is at
# most KKT_TOL, while the projected-gradient measure has made no new low for
# KKT_STALL iterations, has converged as far as the floats allow.
KKT_TOL = 1e-8
KKT_STALL = 20


@dataclass
class LocalResult:
    """One local run's design, and the run record of every method's result
    (as moments.HierarchyResult): `status` (converged | iter-limit |
    infeasible-point); `reason`, why the solver stopped ("criterion met",
    "kkt residual met" (nlp), "iteration limit", "line search failed",
    "step restarts exhausted", "singular system" or "infeasible point");
    `iterations`; `phase_s`, the seconds in equilibrium solves ("fem") and
    in everything else ("rest"); `diagnostics`, the solver's counts (nlp's
    `kkt_residual`; nsdp's `evaluations`, `eig_solves` and `stages`)."""

    method: str
    areas: np.ndarray
    compliance: float | None
    status: str
    iterations: int
    reason: str
    history: list = field(default_factory=list)   # (volume, compliance, measure)
    stationarity: float | None = None
    phase_s: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


# -- optimality criteria ----------------------------------------------------

def oc_b_factors(numerators: np.ndarray, lengths: np.ndarray, mu: float) -> np.ndarray:
    """b_i = (u'dK/da_i u - 2 u'df/da_i) / (mu l_i), clamped at zero.

    Negative numerators are possible when self-weight dominates an element.
    """
    if mu <= 0.0:
        raise ValueError("multiplier must be positive")
    return np.maximum(numerators, 0.0) / (mu * lengths)


def oc_step(a: np.ndarray, b: np.ndarray, cfg: OcConfig) -> np.ndarray:
    """a_i' = max{max{(1-zeta) a_i, eps}, a_i b_i^eta}."""
    return np.maximum(np.maximum((1.0 - cfg.zeta) * a, cfg.eps), a * b**cfg.eta)


def oc_multiplier(a: np.ndarray, numerators: np.ndarray, lengths: np.ndarray,
                  vbar: float, cfg: OcConfig) -> float:
    """The mu > 0 with l'(oc_step(a, b(mu))) = Vbar, solved exactly.

    With f_i = max((1-zeta) a_i, eps) and c_i = a_i (N_i/l_i)^eta for N_i > 0,
    the resized volume is

        V(mu) = mu^-eta sum_{mu < mu_i} l_i c_i + sum_{mu >= mu_i} l_i f_i,

    decreasing in mu, with kinks mu_i = (c_i/f_i)^(1/eta); elements with
    N_i <= 0 always sit at f_i.  On the segment where V crosses Vbar,
    mu = (C/(Vbar - F))^(1/eta) with that segment's two sums C and F.
    """
    if cfg.eta <= 0.0:
        raise ValueError("tuning exponent eta must be positive")
    floor = np.maximum((1.0 - cfg.zeta) * a, cfg.eps)
    positive = numerators > 0.0
    if not np.any(positive):
        raise BracketError("all resizing numerators vanish")
    floor_volume = float(lengths @ floor)
    if floor_volume > vbar:
        raise BracketError(
            f"volume {vbar:.3g} below the move-limited minimum {floor_volume:.3g}"
        )
    idx = np.flatnonzero(positive)
    ratio = numerators[idx] / lengths[idx]
    kinks = ratio * (a[idx] / floor[idx]) ** (1.0 / cfg.eta)
    order = np.argsort(kinks)
    idx, ratio, kinks = idx[order], ratio[order], kinks[order]
    lp = lengths[idx]
    grow = lp * a[idx] * ratio ** cfg.eta
    # Entry k: the sums with the first k kinks (ascending) at their floor.
    fixed = float(lengths[~positive] @ floor[~positive]) + np.concatenate(
        ([0.0], np.cumsum(lp * floor[idx])))
    free = np.append(np.cumsum(grow[::-1])[::-1], 0.0)
    at_kinks = free[:-1] * kinks ** -cfg.eta + fixed[:-1]   # non-increasing
    k = int(np.searchsorted(-at_kinks, -vbar, side="right"))
    if k == kinks.size:
        # Every element sits at its floor and the floor volume is Vbar.
        return float(kinks[-1])
    return float((free[k] / (vbar - fixed[k])) ** (1.0 / cfg.eta))


def run_oc(gs: GroundStructure, cfg: OcConfig | None = None) -> LocalResult:
    """Optimality-criteria iteration from the uniform design."""
    cfg = cfg or OcConfig()
    clock = PhaseClock(("fem", "rest"), "rest")
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    if cfg.eps * np.sum(lengths) > vbar:
        raise BracketError("volume bound below the minimum-area floor")

    a = uniform_design(gs)
    history = []
    status, reason = "iter-limit", "iteration limit"
    measure = math.inf
    iterations = 0
    for iterations in range(1, OC_MAX_ITER + 1):
        clock.start("fem")
        res = compliance(gs, a)
        clock.start("rest")
        numerators = res.energy_stiffness - res.energy_load
        mu = oc_multiplier(a, numerators, lengths, vbar, cfg)
        b = oc_b_factors(numerators, lengths, mu)
        active = a > cfg.eps + 1e-12
        measure = float(np.max(np.abs(b[active] - 1.0))) if np.any(active) else 0.0
        a_next = oc_step(a, b, cfg)
        history.append((float(lengths @ a_next), res.compliance, measure))
        a = a_next
        if measure <= OC_TOL:
            status, reason = "converged", "criterion met"
            break

    clock.start("fem")
    final = compliance(gs, a)
    clock.start(None)
    return LocalResult(
        method="oc",
        areas=a,
        compliance=final.compliance,
        status=status,
        iterations=iterations,
        reason=reason,
        history=history,
        stationarity=measure,
        phase_s=clock.seconds,
    )


# -- projected gradient -----------------------------------------------------

def project_design(z: np.ndarray, lengths: np.ndarray, vbar: float, floor: float) -> np.ndarray:
    """Euclidean projection onto {a >= floor, l'a <= vbar}.

    Returns max(z - t l, floor) at the root t >= 0 of l'a = vbar, moved up
    by roundoff where needed so that l'a <= vbar holds as computed (given
    that the floor design fits, floor * sum(l) <= vbar).
    """
    a = np.maximum(z, floor)
    if lengths @ a <= vbar:
        return a
    # V(t) = l' max(z - t l, floor) is piecewise linear and decreasing, with
    # kinks t_i = (z_i - floor)/l_i.  With the kinks in descending order,
    # t in [t_(k), t_(k-1)] keeps exactly the first k elements above the
    # floor, so V(t) = S1 - t S2 + floor (L - L1) over their cumulative sums.
    kinks = (z - floor) / lengths
    order = np.argsort(-kinks)
    ls = lengths[order]
    s1 = np.cumsum(ls * z[order])
    s2 = np.cumsum(ls * ls)
    floored = floor * (float(np.sum(lengths)) - np.cumsum(ls))
    at_kinks = s1 - kinks[order] * s2 + floored           # non-decreasing
    k = max(int(np.searchsorted(at_kinks, vbar, side="right")), 1) - 1
    t = (s1[k] + floored[k] - vbar) / s2[k]
    step = 0.0
    while True:
        a = np.maximum(z - t * lengths, floor)
        excess = lengths @ a - vbar
        if excess <= 0.0 or t >= kinks[order[0]]:
            return a
        # Roundoff left the volume a few ulps above vbar: move t by the
        # excess over the segment's slope, doubling if that moves nothing.
        step = max(2.0 * step, excess / s2[k])
        t += step


def kkt_residual(grad: np.ndarray, a: np.ndarray, lengths: np.ndarray,
                 floor: float) -> float:
    """Scale-free KKT residual of min c(a) s.t. l'a <= Vbar, a >= floor.

    With g_i = -(dc/da_i) / l_i and mu the l*a-weighted mean of g over the
    active elements (a_i > floor), the residual is the largest of
    |g_i/mu - 1| over the active elements and max(g_i/mu - 1, 0) over the
    floored ones; it vanishes at a KKT point with the volume bound active.
    Infinite when no element is active or mu <= 0.
    """
    g = -grad / lengths
    active = a > floor
    weights = lengths[active] * a[active]
    if not weights.size:
        return math.inf
    mu = float(weights @ g[active]) / float(np.sum(weights))
    if not mu > 0.0:
        return math.inf
    ratio = g / mu - 1.0
    return max(float(np.max(np.abs(ratio[active]))),
               float(np.max(ratio[~active], initial=0.0)))


def run_local_nlp(gs: GroundStructure, eps: float = OcConfig.eps) -> LocalResult:
    """Projected-gradient descent with Barzilai-Borwein steps, areas >= eps.

    Nonmonotone Armijo backtracking over a short history window; the
    stationarity measure is ||P(a - grad) - a||_inf, which vanishes exactly
    at KKT points of the nested problem.  The run stops when that measure
    reaches STAT_TOL, or (reason "kkt residual met") when the scale-free
    ``kkt_residual`` is at most KKT_TOL and the measure has made no new low
    for KKT_STALL iterations.
    """
    clock = PhaseClock(("fem", "rest"), "rest")
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    if eps * np.sum(lengths) > vbar:
        raise BracketError("volume bound below the minimum-area floor")

    def fval(a):
        clock.start("fem")
        try:
            return compliance(gs, a)
        finally:
            clock.start("rest")

    a = project_design(uniform_design(gs), lengths, vbar, eps)
    res = fval(a)
    grad = compliance_gradient(res)
    f_hist = [res.compliance]
    history = []
    step = 1.0 / max(np.linalg.norm(grad), 1e-12)
    status, reason = "iter-limit", "iteration limit"
    stat = best_stat = math.inf
    best_at = 0
    iterations = 0
    resets = 0
    for iterations in range(1, NLP_MAX_ITER + 1):
        stat = float(np.max(np.abs(project_design(a - grad, lengths, vbar, eps) - a)))
        history.append((float(lengths @ a), res.compliance, stat))
        if stat <= STAT_TOL:
            status, reason = "converged", "criterion met"
            break
        if stat < best_stat:
            best_stat, best_at = stat, iterations
        elif iterations - best_at >= KKT_STALL and \
                kkt_residual(grad, a, lengths, eps) <= KKT_TOL:
            status, reason = "converged", "kkt residual met"
            break
        direction = project_design(a - step * grad, lengths, vbar, eps) - a
        slope = float(grad @ direction)
        noise = 64.0 * np.finfo(float).eps * abs(f_hist[-1])
        if ARMIJO * abs(slope) <= noise and np.any(direction):
            # The achievable decrease is below the float resolution of the
            # compliance, so a value-based test can no longer steer; take the
            # full projected step and polish on gradient information alone.
            try:
                trial = a + direction
                res_trial = fval(trial)
            except SingularSystemError:
                reason = "singular system"
                break
        elif slope >= 0.0:
            # Degenerate arc (step too small to move); restart the step size.
            resets += 1
            if resets > 3:
                reason = "step restarts exhausted"
                break
            step = 1.0 / max(np.linalg.norm(grad), 1e-12)
            continue
        else:
            resets = 0
            f_ref = max(f_hist[-MEMORY:])
            lam = 1.0
            accepted = False
            for _ in range(50):
                trial = a + lam * direction
                try:
                    res_trial = fval(trial)
                except SingularSystemError:
                    lam *= 0.5
                    continue
                if res_trial.compliance <= f_ref + ARMIJO * lam * slope + noise:
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                reason = "line search failed"
                break
        grad_new = compliance_gradient(res_trial)
        s = trial - a
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            step = min(max(float(s @ s) / sy, STEP_MIN), STEP_MAX)
        a, res, grad = trial, res_trial, grad_new
        f_hist.append(res.compliance)

    # Every way out of the loop leaves res the solve of a.
    clock.start(None)
    return LocalResult(
        method="nlp",
        areas=a,
        compliance=res.compliance,
        status=status,
        iterations=iterations,
        reason=reason,
        history=history,
        stationarity=stat,
        phase_s=clock.seconds,
        diagnostics={"kkt_residual": kkt_residual(grad, a, lengths, eps)},
    )
