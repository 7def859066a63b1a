"""Equilibrium solves and compliance evaluation.

Zero-area substructures are handled with pseudo-inverse semantics: any row
of the support-reduced K whose entries all fall below 1e-14 * trace of the
full K is dropped ("dangling"), provided it carries no load.  The remaining
SPD system is factored by a banded Cholesky (LAPACK ``dpbtrf``/``dpbtrs``).
Frame K is banded in node order, with the half-bandwidth
``FrameAssembly.half_bandwidth``: 5 on a chain, 20 on the 85-element grid,
near-full only on a badly numbered structure, which still solves correctly.
So K is assembled straight into upper-band storage, and row maxima and
mat-vecs read it through a precomputed row gather, never the dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from frameopt.model import FrameAssembly, GroundStructure, band_rows, uniform_design

DANGLING_ROW_TOL = 1e-14
DANGLING_LOAD_TOL = 1e-12


class SingularSystemError(RuntimeError):
    """Reduced stiffness matrix is not positive definite at this design."""


class DanglingLoadError(RuntimeError):
    """A load acts on a DOF whose incident members all have zero stiffness."""


@dataclass
class ReducedSystem:
    """The kept system K_hat u_hat = f_hat, with K_hat held in its band.

    ``band`` is the upper band in LAPACK storage (see
    ``FrameAssembly.stiffness_band``); ``rows`` holds row i of K_hat from
    column i - u to i + u, with ``cols`` naming each entry's column (entries
    outside K_hat are zero).
    """

    free: np.ndarray        # full-vector indices kept in the reduced system
    band: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    f: np.ndarray
    n_dof: int
    n_dangling: int = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K_hat @ x."""
        return np.einsum("ij,ij->i", self.rows, x[self.cols])

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
    band = asm.stiffness_band(a)
    free = asm.free
    cols = asm.band_cols
    rows = band.ravel(order="F")[asm.band_slots]
    n_dangling = 0
    if free.size:
        row_scale = np.max(np.abs(rows), axis=1)
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
            band = _kept_band(band, keep)
            slots, cols = band_rows(band.shape[0] - 1, free.size)
            rows = band.ravel(order="F")[slots]
    return ReducedSystem(free=free, band=band, rows=rows, cols=cols, f=f[free],
                         n_dof=asm.n_dof, n_dangling=n_dangling)


def _kept_band(band: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Upper band of K[keep][:, keep] from the upper band of K.

    Dropping DOFs never widens the band; the result is as narrow as the
    kept entries allow.
    """
    u = band.shape[0] - 1
    d, j = np.indices(band.shape)
    i = j - u + d
    inside = (i >= 0) & keep[j] & keep[np.maximum(i, 0)]
    index = np.cumsum(keep) - 1
    ni, nj = index[i[inside]], index[j[inside]]
    width = int(np.max(nj - ni, initial=0))
    out = np.zeros((width + 1, int(np.count_nonzero(keep))), order="F")
    out[width + ni - nj, nj] = band[inside]
    return out


def solve_displacements(rs: ReducedSystem) -> np.ndarray:
    """Solve K_hat u_hat = f_hat and scatter to full length."""
    if rs.free.size == 0:
        return np.zeros(rs.n_dof)
    if not np.any(rs.f):
        return np.zeros(rs.n_dof)
    factor, info = dpbtrf(rs.band)
    if info != 0:
        raise SingularSystemError(
            f"stiffness not positive definite: leading minor {info} fails")
    u_hat = dpbtrs(factor, rs.f)[0]
    fnorm = np.linalg.norm(rs.f)
    # Up to three refinement sweeps recover accuracy on badly scaled designs.
    for sweep in range(4):
        residual = rs.f - rs.matvec(u_hat)
        rnorm = np.linalg.norm(residual)
        if rnorm <= 1e-10 * fnorm or sweep == 3:
            break
        u_hat += dpbtrs(factor, residual)[0]
    # Normwise backward error: long slender chains are ill-conditioned, so
    # the residual is judged against ||K|| ||u|| + ||f||, not ||f|| alone.
    # ``rows`` holds every entry of K_hat once, so its norm is ||K_hat||_F.
    # Written as a negated <= so that a NaN residual fails too.
    scale = fnorm + np.linalg.norm(rs.rows) * np.linalg.norm(u_hat)
    if not rnorm <= 1e-9 * scale:
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
