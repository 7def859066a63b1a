"""Dense primal-dual interior-point solver for linear SDPs.

Problem form, with one vector variable y of length m:

    minimize    b' y
    subject to  S_k(y) = sum_i y_i A_i(k) - C(k)  >=  0   (PSD, per block k)
                E y = d

A presolve eliminates the equalities.  A pivoted QR factorization
E P = Q [R11 R12] picks k basic variables B, so that y_B = y0 - T y_N with
y0 = R11^-1 Q'd and T = R11^-1 R12.  Substituted, C' = C - sum_B y0_b A_b,
A'_j = A_j - sum_B T_bj A_b and b' = b_N - T'b_B.  The non-basic variables keep
their order, A'_j gains entries only where T_bj != 0 (none for the y_0 = 1 of
a moment relaxation), and the constant b_B'y0 returns on both objectives.
After the solve, y is rebuilt in the caller's coordinates and the multiplier
nu = Q R11^-T (b_B - A_B*(Z)) makes the dual residual exact on the basic rows.

The iteration thus sees no equality.  Its dual maximizes sum_k <C(k), Z_k>
subject to sum_k <A_i(k), Z_k> = b_i and Z_k >= 0, and the gap between the
two objectives on any iterate equals

    <S, Z> + rd'y - <rp, Z>

exactly, where rp and rd are the primal and dual residuals, so weak duality
holds up to rounding whenever the residuals are small.

The solver follows the scaled Mehrotra predictor-corrector recipe: Nesterov-
Todd scaling points are computed per block from Cholesky factors of S and Z
through one SVD, which renders the scaled pair jointly diagonal,
G'ZG = Ginv S Ginv' = D.  The linearized complementarity equation then
reduces to an elementwise divide, and each step costs one Schur-complement
build and one dense factorization.  The build follows Fujisawa, Kojima &
Nakata (Math. Prog. 79, 1997): one kernel forms W A_v W from the distinct
rows of each A_v, batched over the variables of a block with equally many
such rows, and contracts it on the positions the block uses (see
_BlockData).  Step lengths come from the scaled pair too: the largest step
along a scaled direction is -1/lambda_min(D^-1/2 Delta D^-1/2), one lowest
eigenvalue per block and direction (Toh, COAP 21, 2002), and the scaled
dual direction is T - dS~ by the linearized complementarity.

An iteration (_interior_point) runs named parts in order: _measure takes
the residuals rp and rd, mu and the history row; the stop tests;
_nt_scaling; _schur_factor; _predictor; _corrector and its one _refine;
_step_lengths; the update.  The start (_start) and the step fraction follow
SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999).  The start is
y = 0, S = max(10, sqrt(n), ||C||) I and
Z = max(10, sqrt(n), n max_i (1 + |b_i|) / (1 + ||A_i||)) I per block; the
n in Z matters on moment relaxations, whose dual optimum is large on the
moment and PMI blocks, since a path that starts small spends its middle
growing Z.  The corrector moves the fraction 0.9 + 0.09 min(alpha_p,
alpha_d) of the way to the boundary, alpha_p and alpha_d being the
predictor's step lengths: 0.9 where the predictor is blocked, up to 0.99
where it could take a full step.  _refine gives the corrector's dual
direction one step of refinement on A*(dZ) = rd, so the dual residual
stays at roundoff as Z grows.  Why the certificates hold: moments proves
each order's bound from whatever Z the path reaches, so another path can
change where an order stops but never whether its bound is valid.  The
bound pays for the dual residual r = b - A*(Z) term by term
(moments.lower_bound), so keeping that residual at roundoff is what lets a
late iterate's bound come within the gap tolerance of the design's
compliance.

Blocks of equal size form a stack (_Stack), and the iteration holds S, Z,
the residuals, the NT factors and the directions of a stack as (k, n, n)
arrays.  Each dense step then runs once per stack through numpy's batched
LAPACK and matmul: the Cholesky factors and SVD of the scaling, the products
of both Newton solves, the corrector terms, the step-length and metrics
eigenvalues and the iterate update; A(y) and A*(Z) of a stack are one
sparse product each.  A moment relaxation has at most three stacks,
whatever its number of localizers: the moment block, the scalar localizers
and the PMI localizer.  Only the Schur build, batched within each block,
and the inverse Cholesky factor of the scaling still run per block.

An optional callback sees every iterate in the caller's coordinates and can
end the run on it; moments stops each relaxation on its proven bound that
way.  A run ends on the last iterate it measured, which the callback saw
last unless it was non-finite, with one of three statuses (SdpSolution).
No exit detects a problem that lacks a finite optimum: moment relaxations
have one by construction, and moments derives a rigorous bound from the Z
any run ends on.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigvalsh, qr, solve_triangular
from scipy.linalg.lapack import dtrtrs

class SdpError(ValueError):
    """Malformed SDP data."""


SYM_RTOL = 1e-12        # relative symmetry check on input matrices
RANK_TOL = 1e-10        # QR tolerance for the full-row-rank check on E
SCHUR_CHUNK_BYTES = 2 ** 20  # largest dense temporary of the Schur build, cache-sized

MAX_ITER = 200
TOL_GAP = 1e-7          # relative duality gap for status optimal
TOL_FEAS = 1e-8         # relative feasibility for status optimal


def _as_symmetric(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SdpError(f"{what} must be square, got shape {mat.shape}")
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.T).max() > SYM_RTOL * scale:
        raise SdpError(f"{what} is not symmetric")
    return 0.5 * (mat + mat.T)


@dataclass
class SdpBlock:
    """One PSD constraint sum_i y_i A_i - C >= 0, with the A_i stored sparsely.

    The coefficient entries are coordinate triplets over the upper triangle
    (row <= col); the mirror image is implied.  `var` holds the 0-based index
    of the variable each entry belongs to.
    """

    n: int
    c: np.ndarray
    var: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SdpError("block size must be >= 1")
        self.c = _as_symmetric(self.c, "block C")
        if self.c.shape[0] != self.n:
            raise SdpError("C has the wrong size for its block")
        self.var = np.asarray(self.var, dtype=int)
        self.row = np.asarray(self.row, dtype=int)
        self.col = np.asarray(self.col, dtype=int)
        self.val = np.asarray(self.val, dtype=float)
        sizes = {arr.shape for arr in (self.var, self.row, self.col, self.val)}
        if len(sizes) != 1:
            raise SdpError("entry arrays must have equal length")
        if self.var.size and (self.row.min() < 0 or self.col.max() >= self.n):
            raise SdpError("entry indices out of range")
        if np.any(self.row > self.col):
            raise SdpError("entries must lie in the upper triangle (row <= col)")

    def coefficient(self, i: int) -> np.ndarray:
        """Dense A_i; duplicate entries add up."""
        mask = self.var == i
        mat = np.zeros((self.n, self.n))
        np.add.at(mat, (self.row[mask], self.col[mask]), self.val[mask])
        return mat + np.triu(mat, 1).T


@dataclass
class SdpProblem:
    """min b'y  s.t.  sum y_i A_i(k) - C(k) >= 0 per block,  E y = d."""

    b: np.ndarray
    blocks: list[SdpBlock]
    e: np.ndarray | None = None
    d: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        m = self.b.size
        if not self.blocks:
            raise SdpError("problem needs at least one PSD block")
        for blk in self.blocks:
            if blk.var.size and (blk.var.min() < 0 or blk.var.max() >= m):
                raise SdpError("block references a variable outside 0 .. len(b) - 1")
        if self.e is None:
            self.e = np.zeros((0, m))
        self.e = np.atleast_2d(np.asarray(self.e, dtype=float))
        if self.d is None:
            self.d = np.zeros(self.e.shape[0])
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if self.e.shape != (self.d.size, m):
            raise SdpError(f"E must be {self.d.size} x {m}, got {self.e.shape}")
        if self.d.size:
            diag = np.abs(np.diag(np.linalg.qr(self.e.T, mode="r")))
            if self.d.size > m or np.any(diag[: self.d.size] <= RANK_TOL * max(diag.max(), 1.0)):
                raise SdpError("equality matrix E must have full row rank")

    @property
    def m(self) -> int:
        return self.b.size


@dataclass
class SdpSolution:
    """The last iterate a run measured, in the caller's coordinates, with Z
    per block in the original data scale.

    `status` is one of
    - `optimal`: the iterate meets TOL_FEAS and TOL_GAP (reason `tolerances met`);
    - `stopped`: the callback ended the run; the reason is the string it returned;
    - `numerical-failure`: the run could not go on (`lost positive definiteness`,
      `non-finite iterate`) or reached MAX_ITER (`iteration limit`).
    `diagnostics` holds that reason, the per-iterate history, the time per
    phase and the Schur build's flops.
    """

    y: np.ndarray
    nu: np.ndarray
    z: list[np.ndarray]
    objective: float
    dual_objective: float
    gap: float
    rel_gap: float
    status: str
    iterations: int
    diagnostics: dict = field(default_factory=dict)


@dataclass
class KktReport:
    """Residuals of a candidate primal-dual pair, in the original data scale."""

    equality_residual: float          # ||E y - d||
    dual_residual: float              # ||b - A'(Z) - E'nu||
    complementarity: float            # sum_k <A(y) - C, Z_k>
    slack_min_eigs: tuple[float, ...]  # min eig of A(y) - C per block
    dual_min_eigs: tuple[float, ...]   # min eig of Z_k per block


class _BlockData:
    """Runtime view of a block: scaled pencil, used positions, Schur kernel.

    The upper-triangle entries are mirrored and coalesced into `op`, whose
    row i is A_i flattened; the block's stack (_Stack) joins the `op` of its
    members for A(y) and A*(Z).  The Schur rows <A_i, W A_v W> stay per
    block.  W A_v W = W[:, R_v] (A_v[R_v, R_v] W[R_v, :]) over the rows R_v
    that A_v uses costs 2 n^2 |R_v| + 2 n |R_v|^2 flops.  The variables of
    equal r = |R_v| form batches, each a (k,) array of variables with their
    (k, r) rows and (k, r, r) coefficients, k small enough that the (k, n, n)
    product fits in SCHUR_CHUNK_BYTES.  A batch is two stacked matmuls,
    gathered at the positions U of the upper triangle that some entry uses
    and contracted by one sparse product with `op` restricted to U,
    off-diagonal entries counted twice.  W A_v W is symmetric, so the kernel
    does not symmetrise it; the solver symmetrises the Schur matrix once.
    """

    def __init__(self, blk: SdpBlock, m: int):
        import scipy.sparse  # here, not at import: only an SDP solve needs it

        n = self.n = blk.n
        # Mirror the upper triangle so every stored matrix is fully populated.
        off = blk.row != blk.col
        var = np.concatenate([blk.var, blk.var[off]])
        row = np.concatenate([blk.row, blk.col[off]])
        col = np.concatenate([blk.col, blk.row[off]])
        val = np.concatenate([blk.val, blk.val[off]])
        # Coalesce duplicate (var, row, col) triplets; the result is sorted by
        # variable, then position.
        if var.size:
            key = (var * n + row) * n + col
            uniq, inverse = np.unique(key, return_inverse=True)
            val = np.bincount(inverse, weights=val, minlength=uniq.size)
            col = uniq % n
            row = (uniq // n) % n
            var = uniq // (n * n)
            del key, uniq, inverse
        norms = np.sqrt(np.bincount(var, val * val, minlength=m)) if var.size else np.zeros(m)
        self.scale = max(1.0, np.linalg.norm(blk.c), norms.max() if m else 1.0)
        self.a_norms = norms / self.scale  # ||A_i||_F of the scaled pencil, per variable
        val = val / self.scale
        self.c = blk.c / self.scale
        pos = row * n + col
        self.op = scipy.sparse.csr_matrix((val, (var, pos)), shape=(m, n * n))
        upper = row <= col
        self.upper, upper_idx = np.unique(pos[upper], return_inverse=True)
        self.op_upper = scipy.sparse.csr_matrix(
            (np.where(row < col, 2.0, 1.0)[upper] * val[upper], (var[upper], upper_idx)),
            shape=(m, self.upper.size))
        # Free the entry-long temporaries before the batches take memory.
        del pos, upper, upper_idx

        # The distinct (variable, row) pairs list each R_v in order; A_v is
        # symmetric, so its columns index into R_v too.
        pairs = np.unique(var * n + row)
        sup, start, r_v = np.unique(pairs // n, return_index=True, return_counts=True)
        self.flops = float(np.sum(2.0 * n * n * r_v + 2.0 * n * r_v ** 2)) \
            + 2.0 * self.op_upper.nnz * sup.size
        at = np.searchsorted(sup, var)  # each entry's variable, as an index into sup
        at_row = np.searchsorted(pairs, var * n + row) - start[at]
        at_col = np.searchsorted(pairs, var * n + col) - start[at]
        r_at = r_v[at]
        chunk = max(1, SCHUR_CHUNK_BYTES // (8 * n * n))
        self.batches = []
        for r in np.unique(r_v):
            group, mine = r_v == r, r_at == r
            vs = sup[group]
            coef = np.zeros((vs.size, r, r))
            coef[np.searchsorted(vs, var[mine]), at_row[mine], at_col[mine]] = val[mine]
            rows = pairs[start[group][:, None] + np.arange(r)] % n
            self.batches += [(vs[lo:lo + chunk], rows[lo:lo + chunk], coef[lo:lo + chunk])
                             for lo in range(0, vs.size, chunk)]

    def schur_accumulate(self, winv: np.ndarray, out: np.ndarray) -> None:
        """out[v, i] += <A_i, Winv A_v Winv> for every variable v of the block."""
        for vs, rows, coef in self.batches:
            left = winv[:, rows].transpose(1, 0, 2)
            right = coef @ winv[rows, :]
            g = (left @ right).reshape(vs.size, self.n * self.n)[:, self.upper]
            out[vs] += (self.op_upper @ g.T).T


class _Stack:
    """The blocks of one size n, whose iterates the solver holds as (k, n, n)
    arrays, member j being block `index[j]` of the caller's list.

    A(y) for all k members is one product with the (k n^2, m) CSR matrix
    `op_t`, and sum_j A*(Z_j) one product with its transpose `op`; each row
    of `op_t` sums its variables in the order a single block's would.  The
    Schur rows stay per member (_BlockData.schur_accumulate).
    """

    def __init__(self, blocks: list[_BlockData], index: list[int]):
        import scipy.sparse

        self.blocks, self.index = blocks, index
        self.n, self.k = blocks[0].n, len(blocks)
        self.scale = np.array([bd.scale for bd in blocks])
        self.c = np.stack([bd.c for bd in blocks])
        self.op = scipy.sparse.hstack([bd.op for bd in blocks], format="csr")
        self.op_t = self.op.T.tocsr()

    def apply(self, y: np.ndarray) -> np.ndarray:
        """A(y) of every member, (k, n, n) (scaled data)."""
        return (self.op_t @ y).reshape(self.k, self.n, self.n)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """Vector of sum_j <A_i(j), Z_j> for all i (scaled data)."""
        return self.op @ z.ravel()


def _stacks(blocks: list[_BlockData]) -> list[_Stack]:
    """Blocks grouped by size, stacks in increasing size and members in the
    caller's order, so the arithmetic does not depend on how the caller
    interleaves blocks of different sizes."""
    sizes = sorted({bd.n for bd in blocks})
    return [_Stack([bd for bd in blocks if bd.n == n],
                   [i for i, bd in enumerate(blocks) if bd.n == n]) for n in sizes]


def _unstack(stacks: list[_Stack], mats: list[np.ndarray]) -> list[np.ndarray]:
    """One (k, n, n) array per stack, as matrices in original units in the
    caller's block order."""
    out = [None] * sum(st.k for st in stacks)
    for st, mat in zip(stacks, mats):
        for i, mat_j in zip(st.index, mat / st.scale[:, None, None]):
            out[i] = mat_j
    return out


class _PhaseClock:
    """Wall time per solver phase; elapsed time goes to the phase started last."""

    PHASES = ("scaling", "schur", "factor", "step", "metrics")

    def __init__(self):
        self.seconds = dict.fromkeys(self.PHASES, 0.0)
        self._phase: str | None = None
        self._since = time.perf_counter()

    def start(self, phase: str | None) -> None:
        now = time.perf_counter()
        if self._phase is not None:
            self.seconds[self._phase] += now - self._since
        self._phase, self._since = phase, now


def _mt(mats: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return mats.swapaxes(-1, -2)


def _sym(mats: np.ndarray) -> np.ndarray:
    """Symmetric part of every matrix of a stack."""
    return 0.5 * (mats + _mt(mats))


def _diag(vecs: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices from a (k, n) array."""
    out = np.zeros(vecs.shape + vecs.shape[-1:])
    idx = np.arange(vecs.shape[-1])
    out[:, idx, idx] = vecs
    return out


def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd factors of each PD pair of a stack: Ginv S Ginv' = diag(sig)
    and, with G = Ginv^-1, G' Z G = diag(sig).

    Returns stacked (ginv, winv, sig) with winv = Ginv' Ginv = W^-1.  From
    S = Ls Ls', Z = Lz Lz' and one SVD Lz' Ls = U diag(sig) V',
    Ginv = diag(sig)^1/2 V' Ls^-1; the solver never needs G itself.  numpy has no
    batched triangular solve, so Ls^-1 takes one LAPACK trtrs call per
    member, 2 us of call overhead; the batched LU solve costs 4x as much on
    a 198-row block.
    """
    ls, lz = _chol(s), _chol(z)
    _, sig, vt = np.linalg.svd(_mt(lz) @ ls)
    ginv = (np.sqrt(sig)[:, :, None] * vt) @ _tri_inv(ls)
    return ginv, _mt(ginv) @ ginv, sig


def _tri_inv(ls: np.ndarray) -> np.ndarray:
    """Inverse of every Cholesky factor of a stack (positive diagonals)."""
    eye = np.eye(ls.shape[-1])
    return np.array([dtrtrs(l_j, eye, lower=1)[0] for l_j in ls])


def lowest_eigs(mats: np.ndarray) -> np.ndarray:
    """lambda_min of every symmetric matrix of a stack.

    A stack of several goes through one batched full `eigvalsh`.  A stack of
    one, which is where the large blocks of a moment relaxation sit, keeps
    LAPACK's one-eigenvalue driver: on one core of a 2.1 GHz Xeon it takes
    1.6 and 8.5 ms on blocks of 198 and 448 rows, the full spectrum 2.3 and
    12.4 ms.
    """
    if len(mats) == 1:
        return eigvalsh(mats[0], subset_by_index=(0, 0), check_finite=False)
    return np.linalg.eigvalsh(mats)[:, 0]


def _steps_to_boundary(sig: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per member of a stack, the largest t with diag(sig) + t*Delta still PSD,
    Delta a scaled direction.

    diag(sig) + t*Delta = D^1/2 (I + t D^-1/2 Delta D^-1/2) D^1/2, so only the
    lowest eigenvalue of the middle matrix counts (Toh, COAP 21, 2002).
    Either matrix of the NT-scaled pair is diag(sig), so this serves both the
    primal and the dual direction.
    """
    r = 1.0 / np.sqrt(sig)
    lam = lowest_eigs(delta * (r[:, :, None] * r[:, None, :]))
    out = np.full(lam.shape, np.inf)
    neg = lam < -1e-14
    out[neg] = -1.0 / lam[neg]
    return out


def _chol(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack; if one member fails, every member
    is retried with its diagonal bumped by 1e-14 of its largest entry."""
    try:
        return np.linalg.cholesky(mats)
    except LinAlgError:
        diag = np.abs(np.diagonal(mats, axis1=-2, axis2=-1)).max(axis=-1)
        bump = 1e-14 * np.maximum(diag, 1.0)
        return np.linalg.cholesky(mats + bump[:, None, None] * np.eye(mats.shape[-1]))


class _Presolve:
    """E y = d solved for the basic variables, y_B = y0 - T y_N; `problem`
    is the equality-free rest, and `restore` maps its solution back."""

    def __init__(self, p: SdpProblem):
        k = p.d.size
        q, r, piv = qr(p.e, pivoting=True)
        order = np.argsort(piv[k:])
        self.basic, self.nonbasic, self.q, self.r11 = piv[:k], piv[k:][order], q, r[:, :k]
        self.t = solve_triangular(self.r11, r[:, k:][:, order], check_finite=False)
        self.y0 = solve_triangular(self.r11, q.T @ p.d, check_finite=False)
        self.b_basic = p.b[self.basic]
        self.offset = float(self.b_basic @ self.y0)
        # Dense A_b of each basic variable, per block.
        self.a_basic = [[blk.coefficient(i) for blk in p.blocks] for i in self.basic]
        index = np.full(p.m, -1)
        index[self.nonbasic] = np.arange(self.nonbasic.size)
        blocks = []
        for kb, blk in enumerate(p.blocks):
            c = blk.c - sum(y0_i * a_i[kb] for y0_i, a_i in zip(self.y0, self.a_basic))
            keep = index[blk.var] >= 0
            parts = [(index[blk.var[keep]], blk.row[keep], blk.col[keep], blk.val[keep])]
            for i, t_i in zip(self.basic, self.t):
                at, js = blk.var == i, np.flatnonzero(t_i)
                parts.append((np.repeat(js, np.count_nonzero(at)), np.tile(blk.row[at], js.size),
                              np.tile(blk.col[at], js.size),
                              np.outer(-t_i[js], blk.val[at]).ravel()))
            blocks.append(SdpBlock(blk.n, c, *map(np.concatenate, zip(*parts))))
        self.problem = SdpProblem(p.b[self.nonbasic] - self.t.T @ self.b_basic, blocks)

    def full_y(self, y: np.ndarray) -> np.ndarray:
        """y of `problem` in the caller's coordinates."""
        out = np.empty(self.basic.size + self.nonbasic.size)
        out[self.nonbasic], out[self.basic] = y, self.y0 - self.t @ y
        return out

    def restore(self, sol: SdpSolution) -> SdpSolution:
        """The solution of `problem` in the caller's coordinates, with nu."""
        a_z = np.array([sum(float(np.tensordot(a, z)) for a, z in zip(a_i, sol.z))
                        for a_i in self.a_basic])
        nu = self.q @ solve_triangular(self.r11, self.b_basic - a_z, trans="T", check_finite=False)
        obj, dobj = sol.objective + self.offset, sol.dual_objective + self.offset
        return replace(sol, y=self.full_y(sol.y), nu=nu, objective=obj, dual_objective=dobj,
                       rel_gap=sol.gap / (1.0 + abs(obj) + abs(dobj)))


def solve_sdp(p: SdpProblem, callback=None) -> SdpSolution:
    """Eliminate E y = d, then path-follow; deterministic and seed-free.

    `callback(y, z)`, if given, sees every iterate in the caller's
    coordinates: y of length p.m and Z per block in the original data scale.
    A non-empty string it returns ends the run on that iterate, with the
    string as the reason.  Its time counts in no solver phase.
    """
    pre = _Presolve(p)
    watch = None if callback is None else lambda y, z: callback(pre.full_y(y), z)
    return pre.restore(_interior_point(pre.problem, watch))


def _interior_point(p: SdpProblem, callback=None) -> SdpSolution:
    """Scaled predictor-corrector path following on an equality-free problem;
    each part runs once per stack of equal-size blocks (_Stack)."""
    stacks = _stacks([_BlockData(blk, p.m) for blk in p.blocks])
    n_total = sum(st.k * st.n for st in stacks)
    y, s_mats, z_mats = _start(p, stacks)
    history = []
    status, reason = "numerical-failure", "iteration limit"
    clock = _PhaseClock()
    for it in range(1, MAX_ITER + 1):
        clock.start("metrics")
        rp, rd, row = _measure(p, stacks, n_total, y, s_mats, z_mats)
        history.append({"iteration": it, **row})
        if not math.isfinite(row["mu"]):
            status, reason = "numerical-failure", "non-finite iterate"
            break
        if callback is not None:
            clock.start(None)
            stop = callback(y, _unstack(stacks, z_mats))
            clock.start("metrics")
            if stop:
                status, reason = "stopped", stop
                break
        if (row["rel_dual"] <= TOL_FEAS and row["rel_psd_violation"] <= TOL_FEAS
                and row["rel_gap_abs"] <= TOL_GAP):
            status, reason = "optimal", "tolerances met"
            break
        if it == MAX_ITER:
            break
        # Late iterates of degenerate problems can drop positive definiteness
        # to roundoff; that ends the run on the last iterate measured.
        try:
            clock.start("scaling")
            factors = [_nt_scaling(s, z) for s, z in zip(s_mats, z_mats)]
            schur_f = _schur_factor(stacks, factors, p.m, clock)
            clock.start("step")
            nwt = _Newton(stacks, factors, schur_f, rp, rd,
                          [winv @ rp_k @ winv for (_, winv, _), rp_k in zip(factors, rp)])
            ds_ta, dz_ta, sigma, gamma = _predictor(nwt, z_mats, row["mu"], n_total)
            dy, ds, ds_t, dz, dz_t = _corrector(nwt, ds_ta, dz_ta, sigma * row["mu"])
            dy = _refine(nwt, dy, ds, ds_t, dz, dz_t)
            alpha_p, alpha_d = _step_lengths(factors, ds_t, dz_t, gamma)
            history[-1].update({"alpha_p": alpha_p, "alpha_d": alpha_d, "sigma": sigma,
                                "step_fraction": gamma})
            y = y + alpha_p * dy
            s_mats = [_sym(s + alpha_p * d) for s, d in zip(s_mats, ds)]
            z_mats = [_sym(z + alpha_d * d) for z, d in zip(z_mats, dz)]
        except LinAlgError:
            status, reason = "numerical-failure", "lost positive definiteness"
            break
    clock.start(None)
    return SdpSolution(
        y=y, nu=np.zeros(0), z=_unstack(stacks, z_mats),
        objective=row["objective"], dual_objective=row["dual_objective"],
        gap=row["gap"], rel_gap=row["rel_gap"], status=status, iterations=it,
        diagnostics={"history": history, "reason": reason, "phase_s": clock.seconds,
                     "schur_gflop": sum(bd.flops for st in stacks for bd in st.blocks) / 1e9},
    )


def _start(p: SdpProblem, stacks: list[_Stack]):
    """SDPT3's y = 0, S and Z (module docstring) per stack of the scaled data."""
    b_weight = 1.0 + np.abs(p.b)
    s_mats = [np.maximum(max(10.0, math.sqrt(st.n)), np.linalg.norm(st.c, axis=(1, 2)))
              [:, None, None] * np.eye(st.n) for st in stacks]
    z_mats = [np.array([max(10.0, math.sqrt(st.n),
                            st.n * float(np.max(b_weight / (1.0 + bd.a_norms), initial=0.0)))
                        for bd in st.blocks])[:, None, None] * np.eye(st.n) for st in stacks]
    return np.zeros(p.m), s_mats, z_mats


def _measure(p: SdpProblem, stacks: list[_Stack], n_total: int, y, s_mats, z_mats):
    """Residuals rp = C + S - A(y) and rd = b - A*(Z), which a full Newton step
    zeroes, and the iterate's history row: mu = <S, Z> / n, the original-scale
    objectives and the relative residuals."""
    a_y = [st.apply(y) for st in stacks]
    rp = [st.c + s - a for st, s, a in zip(stacks, s_mats, a_y)]
    rd = p.b.copy()
    for st, z in zip(stacks, z_mats):
        rd -= st.adjoint(z)
    pobj, dobj, psd_viol = float(p.b @ y), 0.0, 0.0
    for st, a, z in zip(stacks, a_y, z_mats):
        dobj += float(np.vdot(st.c, z))
        slack = a - st.c
        scale = 1.0 + np.linalg.norm(slack, axis=(1, 2))
        psd_viol = max(psd_viol, float(np.max(np.maximum(0.0, -lowest_eigs(slack)) / scale)))
    gap, denom = pobj - dobj, 1.0 + abs(pobj) + abs(dobj)
    # gap - correction = <S, Z> exactly; recorded so the weak-duality
    # identity can be audited on every iterate.
    correction = float(rd @ y) - sum(float(np.vdot(rp_k, z)) for rp_k, z in zip(rp, z_mats))
    return rp, rd, {
        "mu": sum(float(np.vdot(s, z)) for s, z in zip(s_mats, z_mats)) / n_total,
        "duality_correction": correction, "objective": pobj, "dual_objective": dobj,
        "gap": gap, "rel_gap": gap / denom, "rel_gap_abs": abs(gap) / denom,
        "rel_dual": float(np.linalg.norm(rd)) / (1.0 + float(np.linalg.norm(p.b))),
        "rel_psd_violation": psd_viol}


def _schur_factor(stacks: list[_Stack], factors: list, m: int, clock: _PhaseClock):
    """Cholesky factor of the Schur matrix <A_i, W^-1 A_v W^-1>; the build
    counts as phase `schur`, the factorization as `factor`."""
    clock.start("schur")
    schur = np.zeros((m, m))
    for st, (_, winv, _) in zip(stacks, factors):
        for bd, winv_j in zip(st.blocks, winv):
            bd.schur_accumulate(winv_j, schur)
    schur = 0.5 * (schur + schur.T)
    clock.start("factor")
    try:
        return cho_factor(schur, lower=True, check_finite=False)
    except LinAlgError:
        # In place: schur + bump I would add three m x m temporaries at the peak.
        schur[np.diag_indices(m)] += 1e-12 * max(np.abs(np.diag(schur)).max(), 1.0)
        return cho_factor(schur, lower=True, check_finite=False)


# One iteration's Newton system: per stack the NT factors (ginv, winv, sig),
# rp and w_rp = W^-1 rp W^-1; rd and the Schur factor.
_Newton = namedtuple("_Newton", "stacks factors schur_f rp rd w_rp")


def _newton(nwt: _Newton, n_mats: list):
    """dy, dS and the scaled dS~ = Ginv dS Ginv' for the target N."""
    h = -nwt.rd
    for st, n_mat, w_rp_k in zip(nwt.stacks, n_mats, nwt.w_rp):
        h = h + st.adjoint(n_mat + w_rp_k)
    dy = cho_solve(nwt.schur_f, h, check_finite=False)
    ds = [st.apply(dy) - rp_k for st, rp_k in zip(nwt.stacks, nwt.rp)]
    return dy, ds, [ginv @ ds_k @ _mt(ginv) for (ginv, _, _), ds_k in zip(nwt.factors, ds)]


def _predictor(nwt: _Newton, z_mats: list, mu: float, n_total: int):
    """The affine step, rc = -D^2, so T = -D and N = -Z: its scaled directions,
    the centering sigma and the corrector's fraction to the boundary."""
    diags = [_diag(sig) for _, _, sig in nwt.factors]
    _, _, ds_t = _newton(nwt, [-z for z in z_mats])
    dz_t = [-d_k - d for d_k, d in zip(diags, ds_t)]
    alpha_p, alpha_d = _step_lengths(nwt.factors, ds_t, dz_t, 1.0)
    # <S, Z> = <S~, Z~>: the affine complementarity, read off the scaled pair.
    mu_aff = sum(float(np.vdot(d_k + alpha_p * ds_k, d_k + alpha_d * dz_k))
                 for d_k, ds_k, dz_k in zip(diags, ds_t, dz_t)) / n_total
    sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))
    return ds_t, dz_t, sigma, 0.9 + 0.09 * min(alpha_p, alpha_d)


def _corrector(nwt: _Newton, ds_ta: list, dz_ta: list, sigma_mu: float):
    """dy, dS, dS~, dZ and dZ~ towards sigma mu I, less the predictor's
    second-order term in the scaled space.  sym(D dZ~ + dS~ D) = rc is solved
    by dZ~ = T - dS~ with T = 2 rc / (sig_i + sig_j), and N = Ginv' T Ginv."""
    t_mats = []
    for st, (_, _, sig), ds_k, dz_k in zip(nwt.stacks, nwt.factors, ds_ta, dz_ta):
        cross = ds_k @ dz_k
        rc = sigma_mu * np.eye(st.n) - _diag(sig * sig) - 0.5 * (cross + _mt(cross))
        t_mats.append(2.0 * rc / (sig[:, :, None] + sig[:, None, :]))
    n_mats = [_mt(ginv) @ t_mat @ ginv for (ginv, _, _), t_mat in zip(nwt.factors, t_mats)]
    dy, ds, ds_t = _newton(nwt, n_mats)
    dz = [n_mat - winv @ ds_k @ winv for (_, winv, _), n_mat, ds_k in zip(nwt.factors, n_mats, ds)]
    return dy, ds, ds_t, dz, [t_mat - d for t_mat, d in zip(t_mats, ds_t)]


def _refine(nwt: _Newton, dy, ds, ds_t, dz, dz_t) -> np.ndarray:
    """dy after one refinement step on A*(dZ) = rd, whose miss e = rd - A*(dZ)
    grows with Z in floating point: M dy' = -e, with dS += A(dy') and
    dZ -= W^-1 A(dy') W^-1 (and their scaled forms) in place, which keeps the
    linearized complementarity."""
    miss = nwt.rd - sum(st.adjoint(dz_k) for st, dz_k in zip(nwt.stacks, dz))
    dy_r = cho_solve(nwt.schur_f, -miss, check_finite=False)
    for st, (ginv, winv, _), ds_k, ds_tk, dz_k, dz_tk in zip(
            nwt.stacks, nwt.factors, ds, ds_t, dz, dz_t):
        a_r = st.apply(dy_r)
        a_rt = ginv @ a_r @ _mt(ginv)
        ds_k += a_r
        ds_tk += a_rt
        dz_k -= winv @ a_r @ winv
        dz_tk -= a_rt
    return dy + dy_r


def _step_lengths(factors: list, ds_t: list, dz_t: list, fraction: float):
    """Primal and dual step lengths: `fraction` of the largest steps along the
    scaled directions that every block allows, at most 1."""
    return tuple(min(1.0, fraction * min(_steps_to_boundary(sig, d).min()
                                         for (_, _, sig), d in zip(factors, dirs)))
                 for dirs in (ds_t, dz_t))


def check_kkt(p: SdpProblem, sol: SdpSolution) -> KktReport:
    """Recompute all optimality residuals from the original problem data."""
    y = np.asarray(sol.y, dtype=float)
    rd = p.b - p.e.T @ sol.nu
    comp = 0.0
    slack_eigs = []
    dual_eigs = []
    for blk, z in zip(p.blocks, sol.z):
        slack = -blk.c.copy()
        full_row = np.concatenate([blk.row, blk.col[blk.row != blk.col]])
        full_col = np.concatenate([blk.col, blk.row[blk.row != blk.col]])
        full_var = np.concatenate([blk.var, blk.var[blk.row != blk.col]])
        full_val = np.concatenate([blk.val, blk.val[blk.row != blk.col]])
        np.add.at(slack, (full_row, full_col), full_val * y[full_var])
        comp += float(np.tensordot(slack, z))
        slack_eigs.append(float(eigvalsh(slack, check_finite=False)[0]))
        dual_eigs.append(float(eigvalsh(z, check_finite=False)[0]))
        np.subtract.at(rd, full_var, full_val * z[full_row, full_col])
    return KktReport(
        equality_residual=float(np.linalg.norm(p.e @ y - p.d)),
        dual_residual=float(np.linalg.norm(rd)),
        complementarity=comp,
        slack_min_eigs=tuple(slack_eigs),
        dual_min_eigs=tuple(dual_eigs),
    )
