"""Local solvers: optimality-criteria resizing and projected-gradient descent.

Both operate on the nested formulation min c(a) s.t. l'a <= Vbar, a >= eps,
with compliance and its adjoint gradient supplied by frameopt.analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from frameopt.analysis import SingularSystemError, compliance, compliance_gradient
from frameopt.model import GroundStructure, require_valid, uniform_design


class BracketError(RuntimeError):
    """No multiplier can satisfy the volume constraint (budget below floor)."""


@dataclass
class OcConfig:
    eps: float = 1e-6          # minimum area
    zeta: float = 0.2          # move limit on decrease
    eta: float = 0.3           # tuning exponent
    max_iter: int = 500
    tol: float = 1e-4          # on max |b_i - 1| over active elements
    volume_rtol: float = 1e-9  # bisection target on |l'a - Vbar|
    mu_span: float = 1e12      # bracket half-width factor around the mu estimate


@dataclass
class NlpConfig:
    eps: float = 1e-6
    max_iter: int = 3000
    stat_tol: float = 1e-7     # on the projected-gradient displacement
    memory: int = 8            # nonmonotone line-search window
    armijo: float = 1e-4
    step_min: float = 1e-16
    step_max: float = 1e12


@dataclass
class LocalResult:
    method: str
    areas: np.ndarray
    compliance: float | None
    status: str                # converged | iter-limit | infeasible-point
    iterations: int
    history: list = field(default_factory=list)   # (volume, compliance, measure)
    stationarity: float | None = None
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


def oc_bisect_mu(a: np.ndarray, numerators: np.ndarray, lengths: np.ndarray,
                 vbar: float, cfg: OcConfig) -> float:
    """Find mu > 0 with l'(oc_step(a, b(mu))) = Vbar by geometric bisection.

    The resized volume is non-increasing in mu, so a sign check on the
    bracket ends suffices.
    """
    positive = numerators[numerators > 0.0]
    if positive.size == 0:
        raise BracketError("all resizing numerators vanish")
    mu_hat = float(np.mean(positive) / np.mean(lengths))
    lo, hi = mu_hat / cfg.mu_span, mu_hat * cfg.mu_span

    def volume_at(mu: float) -> float:
        b = oc_b_factors(numerators, lengths, mu)
        return float(lengths @ oc_step(a, b, cfg))

    v_lo, v_hi = volume_at(lo), volume_at(hi)
    if not (v_lo >= vbar >= v_hi):
        raise BracketError(
            f"volume {vbar:.3g} outside attainable range [{v_hi:.3g}, {v_lo:.3g}]"
        )
    for _ in range(400):
        mid = math.sqrt(lo * hi)
        v_mid = volume_at(mid)
        if abs(v_mid - vbar) <= cfg.volume_rtol * vbar:
            return mid
        if v_mid >= vbar:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-14:
            break
    return math.sqrt(lo * hi)


def run_oc(gs: GroundStructure, cfg: OcConfig | None = None) -> LocalResult:
    """Optimality-criteria iteration from the uniform design."""
    cfg = cfg or OcConfig()
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    if cfg.eps * np.sum(lengths) > vbar:
        raise BracketError("volume bound below the minimum-area floor")

    a = uniform_design(gs)
    history = []
    status = "iter-limit"
    measure = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        res = compliance(gs, a)
        numerators = res.energy_stiffness - res.energy_load
        mu = oc_bisect_mu(a, numerators, lengths, vbar, cfg)
        b = oc_b_factors(numerators, lengths, mu)
        active = a > cfg.eps + 1e-12
        measure = float(np.max(np.abs(b[active] - 1.0))) if np.any(active) else 0.0
        a_next = oc_step(a, b, cfg)
        history.append((float(lengths @ a_next), res.compliance, measure))
        a = a_next
        if measure <= cfg.tol:
            status = "converged"
            break

    final = compliance(gs, a)
    return LocalResult(
        method="oc",
        areas=a,
        compliance=final.compliance,
        status=status,
        iterations=iterations,
        history=history,
        stationarity=measure,
    )


# -- projected gradient -----------------------------------------------------

def project_design(z: np.ndarray, lengths: np.ndarray, vbar: float, floor: float) -> np.ndarray:
    """Euclidean projection onto {a >= floor, l'a <= vbar}."""
    a = np.maximum(z, floor)
    if lengths @ a <= vbar:
        return a
    # Find t >= 0 with l' max(floor, z - t l) = vbar; the left side is
    # continuous and strictly decreasing until it hits the floor volume.
    lo, hi = 0.0, float(np.max((z - floor) / lengths)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lengths @ np.maximum(z - mid * lengths, floor) > vbar:
            lo = mid
        else:
            hi = mid
    return np.maximum(z - hi * lengths, floor)


def run_local_nlp(gs: GroundStructure, cfg: NlpConfig | None = None) -> LocalResult:
    """Projected-gradient descent with Barzilai-Borwein steps.

    Nonmonotone Armijo backtracking over a short history window; the
    stationarity measure is ||P(a - grad) - a||_inf, which vanishes exactly
    at KKT points of the nested problem.
    """
    cfg = cfg or NlpConfig()
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    if cfg.eps * np.sum(lengths) > vbar:
        raise BracketError("volume bound below the minimum-area floor")

    def fval(a):
        return compliance(gs, a)

    a = project_design(uniform_design(gs), lengths, vbar, cfg.eps)
    res = fval(a)
    grad = compliance_gradient(res)
    f_hist = [res.compliance]
    history = []
    step = 1.0 / max(np.linalg.norm(grad), 1e-12)
    status = "iter-limit"
    stat = math.inf
    iterations = 0
    resets = 0
    for iterations in range(1, cfg.max_iter + 1):
        stat = float(np.max(np.abs(project_design(a - grad, lengths, vbar, cfg.eps) - a)))
        history.append((float(lengths @ a), res.compliance, stat))
        if stat <= cfg.stat_tol:
            status = "converged"
            break
        direction = project_design(a - step * grad, lengths, vbar, cfg.eps) - a
        slope = float(grad @ direction)
        noise = 64.0 * np.finfo(float).eps * abs(f_hist[-1])
        if cfg.armijo * abs(slope) <= noise and np.any(direction):
            # The achievable decrease is below the float resolution of the
            # compliance, so a value-based test can no longer steer; take the
            # full projected step and polish on gradient information alone.
            try:
                trial = a + direction
                res_trial = fval(trial)
            except SingularSystemError:
                break
        elif slope >= 0.0:
            # Degenerate arc (step too small to move); restart the step size.
            resets += 1
            if resets > 3:
                break
            step = 1.0 / max(np.linalg.norm(grad), 1e-12)
            continue
        else:
            resets = 0
            f_ref = max(f_hist[-cfg.memory:])
            lam = 1.0
            accepted = False
            for _ in range(50):
                trial = a + lam * direction
                try:
                    res_trial = fval(trial)
                except SingularSystemError:
                    lam *= 0.5
                    continue
                if res_trial.compliance <= f_ref + cfg.armijo * lam * slope + noise:
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                break
        grad_new = compliance_gradient(res_trial)
        s = trial - a
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            step = min(max(float(s @ s) / sy, cfg.step_min), cfg.step_max)
        a, res, grad = trial, res_trial, grad_new
        f_hist.append(res.compliance)

    final = fval(a)
    return LocalResult(
        method="nlp",
        areas=a,
        compliance=final.compliance,
        status=status,
        iterations=iterations,
        history=history,
        stationarity=stat,
    )
