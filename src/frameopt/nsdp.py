"""Matrix-inequality reformulations of compliance minimization.

The nested problem min f(a)'u(a) is equivalent to minimizing c subject to
the linear-in-(a, c) constraint

    G(a, c) = [[c, -f(a)'], [-f(a), K(a)]]  >=  0,

by the generalized Schur complement: G >= 0 iff K >= 0, f in range(K) and
c >= f' pinv(K) f.  G lives on the support-reduced DOF set, so it stays well
defined for designs with zero areas.

run_nsdp_local solves this formulation with an exterior quadratic penalty
on the negative eigenvalues of G, a log-barrier on the linear constraints,
and L-BFGS inner iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.linalg import eigh, eigvalsh

from frameopt.local import LocalResult, PhaseClock, project_design
from frameopt.model import FrameAssembly, GroundStructure, require_valid, uniform_design


class IncompatibleLoadError(ValueError):
    """Load vector has a component outside the range of the stiffness matrix."""


# Terminal feasibility threshold on the smallest eigenvalue of G, relative
# to the largest eigenvalue magnitude.
EIG_FEAS_RTOL = 1e-6
PSD_RTOL = 1e-9          # classification threshold for the Schur oracle
PINV_RCOND = 1e-12


@dataclass
class NsdpConfig:
    rho_init: float = 10.0     # initial constraint-penalty weight
    rho_max: float = 1e12
    rho_growth: float = 10.0
    barrier_init: float = 1e-1  # barrier weight runs at rho_init/rho * this
    inner_maxiter: int = 500
    max_retries: int = 3       # per-stage rho back-offs after a stalled inner solve
    shrink: float = 0.95       # pullback from the volume face for the start
    c_margin: float = 1.1      # starting compliance variable, times FEM value


def _lmi(asm: FrameAssembly, a: np.ndarray, c: float) -> np.ndarray:
    """G(a, c) = [[c, -f'], [-f, K]] on the support-reduced DOF set."""
    f_hat = asm.loads(a)[asm.free]
    g = np.empty((1 + f_hat.size, 1 + f_hat.size))
    g[0, 0] = c
    g[0, 1:] = -f_hat
    g[1:, 0] = -f_hat
    g[1:, 1:] = asm.stiffness(a)
    return g


def _quadratic_forms(asm: FrameAssembly, a: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element v' dK/da_i v and df/da_i . v for a reduced vector v."""
    # A supported DOF (-1 in the map) picks the appended zero.
    ve = np.append(v, 0.0)[asm.reduced_dofs]                 # (ne, 6)
    dk = asm.ka + 2.0 * a[:, None, None] * asm.kb
    quad = np.einsum("ek,ekl,el->e", ve, dk, ve)
    if asm.f1 is not None:
        lin = np.einsum("ek,ek->e", asm.f1, ve)
    else:
        lin = np.zeros(asm.n_elements)
    return quad, lin


def build_compliance_lmi(gs: GroundStructure, d: np.ndarray, c: float) -> np.ndarray:
    """G(d, c) = [[c, -f'], [-f, K]] on the support-reduced DOF set."""
    return _lmi(gs.assembly, np.asarray(d, dtype=float), float(c))


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
    asm = gs.assembly
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("areas must be non-negative")
    k_hat = asm.stiffness(d)
    f_hat = asm.loads(d)[asm.free]

    k_pinv = np.linalg.pinv(k_hat, rcond=PINV_RCOND, hermitian=True)
    u = k_pinv @ f_hat
    f_norm = np.linalg.norm(f_hat)
    if f_norm > 0.0 and np.linalg.norm(k_hat @ u - f_hat) > 1e-8 * f_norm:
        raise IncompatibleLoadError("load vector not in the range of the stiffness matrix")

    # Jacobi congruence scaling before the eigen test: D G D with positive
    # diagonal D keeps the inertia of G but stops the c-versus-K magnitude
    # mismatch from squashing a boundary violation below the tolerance.
    g = _lmi(asm, d, float(c))
    diag = np.diag(g)
    floor = 1e-12 * max(float(diag.max(initial=0.0)), 1.0)
    scale_vec = 1.0 / np.sqrt(np.maximum(diag, floor))
    lam = eigvalsh(g * scale_vec[:, None] * scale_vec[None, :])
    scale = max(abs(lam[0]), abs(lam[-1]), 1.0)
    lmi_psd = bool(lam[0] >= -PSD_RTOL * scale)
    bound = float(f_hat @ u)
    schur_ok = bool(c >= bound - PSD_RTOL * max(abs(c), abs(bound), 1.0))
    return SchurCheck(lmi_psd=lmi_psd, schur_ok=schur_ok)


def _barrier(t: float, t0: float) -> tuple[float, float]:
    """-log(t) with a C1 quadratic extension on [0, t0) and a linear tail
    below zero, keeping values and slopes bounded during line searches."""
    if t >= t0:
        return -np.log(t), -1.0 / t
    if t >= 0.0:
        dt = t - t0
        val = -np.log(t0) - dt / t0 + dt * dt / (2.0 * t0 * t0)
        return val, -1.0 / t0 + dt / (t0 * t0)
    val0 = -np.log(t0) + 1.5
    slope = -2.0 / t0
    return val0 + slope * t, slope


def run_nsdp_local(gs: GroundStructure, cfg: NsdpConfig | None = None,
                   initial: np.ndarray | None = None) -> LocalResult:
    """Exterior penalty method for min c s.t. G(a, c) >= 0, l'a <= Vbar, a >= 0.

    Minimizes c + rho * sum(min(eig G, 0)^2) plus a shrinking log-barrier on
    the linear constraints, increasing rho geometrically.  The terminal point
    is labeled infeasible-point (with no compliance) unless the smallest
    eigenvalue of G clears -1e-6 times the eigenvalue scale.
    """
    cfg = cfg or NsdpConfig()
    clock = PhaseClock()
    asm = require_valid(gs)
    lengths = asm.lengths
    vbar = gs.volume_bound
    ne = gs.n_elements

    a_scale = vbar / float(np.sum(lengths))
    t0_a = 1e-8 * a_scale
    t0_v = 1e-4 * vbar

    if initial is None:
        a0 = cfg.shrink * uniform_design(gs)
    else:
        a0 = np.asarray(initial, dtype=float).copy()
        # Pull strictly inside the linear constraints for the barrier.
        a0 = np.maximum(a0, 10.0 * t0_a)
        excess = float(lengths @ a0) / (cfg.shrink * vbar)
        if excess > 1.0:
            a0 /= excess
    with clock.solving():
        f_hat = asm.loads(a0)[asm.free]
        c0 = cfg.c_margin * float(f_hat @ np.linalg.solve(asm.stiffness(a0), f_hat))
    x = np.concatenate([a0, [c0]])

    # Jacobi congruence scaling D G D balances the compliance entry against
    # the stiffness block; congruence preserves positive semidefiniteness.
    diag0 = np.abs(np.diag(_lmi(asm, a0, c0)))
    d_scale = 1.0 / np.sqrt(np.maximum(diag0, 1e-12 * np.max(diag0)))

    def phi(xv: np.ndarray, rho: float, beta: float, norm: float) -> tuple[float, np.ndarray]:
        a, c = xv[:ne], xv[ne]
        g = _lmi(asm, a, c) * np.outer(d_scale, d_scale)
        lam, vec = eigh(g)
        neg = lam < 0.0
        grad = np.zeros(ne + 1)
        pen = 0.0
        if np.any(neg):
            pen = float(np.sum(lam[neg] ** 2))
            for lam_j, v in zip(lam[neg], vec[:, neg].T):
                w = d_scale * v            # v' (D dG D) v = (Dv)' dG (Dv)
                quad, lin = _quadratic_forms(asm, a, w[1:])
                grad[:ne] += 2.0 * rho * lam_j * (quad - 2.0 * w[0] * lin)
                grad[ne] += 2.0 * rho * lam_j * w[0] ** 2
        val = c + rho * pen
        grad[ne] += 1.0
        for i in range(ne):
            b, db = _barrier(a[i], t0_a)
            val += beta * b
            grad[i] += beta * db
        # The volume face is held by the growing penalty; the mild barrier
        # only keeps early iterates interior.
        slack = vbar - float(lengths @ a)
        b, db = _barrier(slack, t0_v)
        val += beta * b
        grad[:ne] += beta * db * (-lengths)
        viol = max(-slack, 0.0)
        val += rho * viol * viol
        if viol > 0.0:
            grad[:ne] += 2.0 * rho * viol * lengths
        return val * norm, grad * norm

    def solve_stage(x0: np.ndarray, rho: float):
        beta = cfg.barrier_init * cfg.rho_init / rho
        # Normalize each stage so the inner solver starts with O(1) gradients;
        # a positive rescale leaves the minimizers unchanged.
        _, g0 = phi(x0, rho, beta, 1.0)
        norm = 1.0 / max(1.0, float(np.max(np.abs(g0))))
        out = scipy.optimize.minimize(
            phi, x0, args=(rho, beta, norm), jac=True, method="L-BFGS-B",
            bounds=[(0.0, None)] * ne + [(None, None)],
            options={"maxiter": cfg.inner_maxiter, "ftol": 1e-16, "gtol": 1e-14},
        )
        return out.x, out.nit, float(np.max(np.abs(out.jac)) / norm)

    history = []
    stages = []
    rho_prev = None
    rho = cfg.rho_init
    while True:
        x_new, nit, grad_inf = solve_stage(x, rho)
        if nit == 0 and rho_prev is not None:
            # A jump in rho can leave the warm start where the line search
            # fails outright; halve the log-gap with intermediate stages.
            mid = rho_prev
            for _ in range(cfg.max_retries):
                mid = float(np.sqrt(mid * rho))
                x_mid, nit_mid, _ = solve_stage(x, mid)
                if nit_mid > 0:
                    x = x_mid
                x_new, nit, grad_inf = solve_stage(x, rho)
                if nit > 0:
                    break
        x = x_new
        lam = eigvalsh(_lmi(asm, x[:ne], x[ne]) * np.outer(d_scale, d_scale))
        history.append((float(lengths @ x[:ne]), float(x[ne]), float(lam[0])))
        stages.append((rho, nit, grad_inf))
        if rho >= cfg.rho_max:
            break
        rho_prev = rho
        rho = min(rho * cfg.rho_growth, cfg.rho_max)
    info = {"stages": stages, "inner_iterations": stages[-1][1], "grad_inf": stages[-1][2]}

    a, c = np.maximum(x[:ne], 0.0), float(x[ne])
    lam = eigvalsh(_lmi(asm, a, c) * np.outer(d_scale, d_scale))
    scale = max(abs(lam[0]), abs(lam[-1]), 1e-30)
    vol_resid = max(0.0, float(lengths @ a) - vbar)
    # rho_max bounds the terminal constraint violation of the quadratic
    # penalty at roughly multiplier/(2 rho_max); 1e-5 relative covers it.
    feasible = lam[0] >= -EIG_FEAS_RTOL * scale and vol_resid <= 1e-5 * vbar
    diagnostics = dict(info)
    diagnostics.update(
        min_eigenvalue=float(lam[0]),
        eigenvalue_scale=float(scale),
        volume_residual=vol_resid,
        negative_area=float(max(0.0, -np.min(x[:ne]))),
        c_variable=c,
    )
    if not feasible:
        diagnostics["phase_s"] = clock.phase_s()
        return LocalResult(method="nsdp", areas=a, compliance=None,
                           status="infeasible-point", iterations=len(history),
                           reason="infeasible point", history=history,
                           stationarity=None, diagnostics=diagnostics)
    # The penalty leaves a volume residual of up to 1e-5 * Vbar; project
    # onto the volume face so the reported design meets the bound, then
    # report its equilibrium compliance.
    a = project_design(a, lengths, vbar, 0.0)
    with clock.solving():
        f_hat = asm.loads(a)[asm.free]
        u = np.linalg.pinv(asm.stiffness(a), rcond=PINV_RCOND, hermitian=True) @ f_hat
        c_fem = float(f_hat @ u)
    diagnostics["phase_s"] = clock.phase_s()
    return LocalResult(method="nsdp", areas=a, compliance=c_fem,
                       status="converged", iterations=len(history),
                       reason="criterion met", history=history,
                       stationarity=None, diagnostics=diagnostics)
