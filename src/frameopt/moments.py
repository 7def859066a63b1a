"""Moment-relaxation hierarchy with certified global bounds on compliance.

Once the compliance LMI is written out, minimum compliance is a polynomial
optimization problem in x = (c, a): minimize c subject to G(a, c) >= 0,
l'a <= V, 0 <= a_i <= V/l_i.  Scaling every variable into [-1, 1],

    a_i = V (a_sc_i + 1) / (2 l_i),      c = c_hat (c_sc + 1) / 2,

with c_hat the uniform-design compliance, keeps the feasible set inside the
unit ball of each coordinate, which the Lasserre moment hierarchy needs for
convergence.  The order-r relaxation optimizes pseudo-moments y indexed by
monomials of degree <= 2r:

    minimize    sum_alpha p0_alpha y_alpha          (objective polynomial)
    subject to  M_r(y) >= 0                         (moment matrix)
                M_{r-1}(g_j y) >= 0                 (volume and ball localizers)
                M_{r-1}(P y) >= 0                   (matrix localizer of the LMI)
                y_0 = 1,

all expressible in the dual SDP form the interior-point solver consumes.
Every block is one localizing matrix M_{r-d}(p y), built by one function
(_localizer): p = 1 with d = 0 gives the moment matrix, p = g_j a scalar
localizer, and p = P(x) the matrix localizer (Henrion & Lasserre, IEEE TAC
51, 2006), with d = 1 as every g_j and P has degree <= 2.  Its entries keep
one fixed order, since the rigorous bound sums them in that order.  The
solver is handed that problem as it stands, y_0 = 1 included, and eliminates
the equality in its own presolve; solutions come back in full moment
coordinates.  Every dual iterate proves a lower bound on the global
compliance, whatever the solver's status (lower_bound).  A callback sees
each iterate; an order's lower bound is the best one proven along the path,
and the same callback ends the solve once that bound certifies with a flat
moment matrix or stops rising (_StopRule).  The repaired first-moment
design of the iterate the solve ends on gives an FEM upper bound.  The
bounds closing (or the moment matrix going flat, reported alongside)
certifies a global optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from frameopt.analysis import (
    DanglingLoadError,
    SingularSystemError,
    compliance,
    uniform_upper_bound,
)
from frameopt.model import GroundStructure, ModelError
from frameopt.sdp import SdpBlock, SdpProblem, SdpSolution, lowest_eigs, solve_sdp

BASIS_LIMIT = 10 ** 6   # refuse monomial bases beyond this size
RANK_TOL = 1e-6         # relative singular-value cutoff for numerical rank
GAP_TOL = 1e-4          # default relative gap that certifies optimality
MONO_SLACK = 1e-7       # tolerated lower-bound decrease between orders
PLATEAU_GATE = 1e-3     # relative distance of the bound to b'y before a plateau counts
PLATEAU_ITERS = 2       # iterates over which a plateaued bound has not risen ...
PLATEAU_RTOL = 1e-5     # ... by more than this, relative

Exponent = tuple[int, ...]


def _unit(n: int, i: int, power: int = 1) -> Exponent:
    alpha = [0] * n
    alpha[i] = power
    return tuple(alpha)


def _power(x: np.ndarray, alpha: Exponent) -> float:
    out = 1.0
    for xi, ai in zip(x, alpha):
        if ai:
            out *= xi ** ai
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree <= r in n variables, graded-lex ordered."""

    n: int
    r: int
    exponents: tuple[Exponent, ...]
    index: dict[Exponent, int]

    def __len__(self) -> int:
        return len(self.exponents)


def monomial_basis(n: int, r: int) -> MonomialBasis:
    """Graded-lexicographic basis; bases of lower order are prefixes."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if math.comb(n + r, r) > BASIS_LIMIT:
        raise ValueError(
            f"monomial basis size C({n + r},{r}) = {math.comb(n + r, r)} "
            f"exceeds the {BASIS_LIMIT} limit")
    exponents: list[Exponent] = []
    for degree in range(r + 1):
        for combo in combinations_with_replacement(range(n), degree):
            alpha = [0] * n
            for v in combo:
                alpha[v] += 1
            exponents.append(tuple(alpha))
    index = {alpha: k for k, alpha in enumerate(exponents)}
    return MonomialBasis(n, r, tuple(exponents), index)


def moment_vector(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Moments of the Dirac measure at x: y_alpha = x^alpha."""
    x = np.asarray(x, dtype=float)
    return np.array([_power(x, alpha) for alpha in basis.exponents])


@dataclass
class ScaledProblem:
    """Design problem mapped onto the unit box, with its polynomial data.

    Variables are x = (c_sc, a_sc_1 ... a_sc_ne); index 0 is the scaled
    compliance.  Scalar constraint polynomials and the coefficient matrices of
    the matrix polynomial P(x) (the compliance LMI on the support-reduced
    DOFs) are keyed by exponent offset; every polynomial has degree <= 2.
    """

    gs: GroundStructure
    c_hat: float
    lengths: np.ndarray
    area_scale: np.ndarray  # s_i = V / (2 l_i), so a_i = s_i (a_sc_i + 1)
    objective: dict[Exponent, float]
    scalar_constraints: list[tuple[str, dict[Exponent, float]]]
    pmi: dict[Exponent, np.ndarray]
    pmi_size: int

    @property
    def n_vars(self) -> int:
        return 1 + self.gs.n_elements

    def areas_from_scaled(self, a_sc: np.ndarray) -> np.ndarray:
        return self.area_scale * (np.asarray(a_sc, dtype=float) + 1.0)

    def scaled_from_areas(self, areas: np.ndarray) -> np.ndarray:
        return np.asarray(areas, dtype=float) / self.area_scale - 1.0

    def compliance_from_scaled(self, c_sc: float) -> float:
        return 0.5 * self.c_hat * (c_sc + 1.0)

    def scaled_from_compliance(self, c: float) -> float:
        return 2.0 * c / self.c_hat - 1.0


def scale_problem(gs: GroundStructure) -> ScaledProblem:
    """Build the unit-box polynomial formulation around the uniform design."""
    asm = gs.assembly
    c_hat, _ = uniform_upper_bound(gs)
    if not math.isfinite(c_hat) or c_hat <= 0.0:
        raise ModelError("uniform design compliance is degenerate; cannot scale")
    ne = gs.n_elements
    n = ne + 1
    svec = gs.volume_bound / (2.0 * asm.lengths)
    zero = (0,) * n

    objective = {zero: 0.5 * c_hat, _unit(n, 0): 0.5 * c_hat}

    volume: dict[Exponent, float] = {zero: 2.0 - float(ne)}
    for i in range(ne):
        volume[_unit(n, 1 + i)] = -1.0
    scalar = [("volume", volume)]
    for i in range(ne):
        scalar.append((f"ball-a{i + 1}", {zero: 1.0, _unit(n, 1 + i, 2): -1.0}))
    scalar.append(("ball-c", {zero: 1.0, _unit(n, 0, 2): -1.0}))

    size = 1 + asm.free.size

    pmi: dict[Exponent, np.ndarray] = {}

    def coeff(delta: Exponent) -> np.ndarray:
        if delta not in pmi:
            pmi[delta] = np.zeros((size, size))
        return pmi[delta]

    coeff(zero)[0, 0] += 0.5 * c_hat
    coeff(_unit(n, 0))[0, 0] += 0.5 * c_hat
    f0 = asm.f0[asm.free]
    coeff(zero)[0, 1:] -= f0
    coeff(zero)[1:, 0] -= f0

    for k in range(ne):
        rd = asm.reduced_dofs[k]
        keep = rd >= 0
        rows = rd[keep] + 1
        sk = svec[k]
        if asm.f1 is not None:
            fk = asm.f1[k][keep]
            for delta in (zero, _unit(n, 1 + k)):
                m = coeff(delta)
                m[0, rows] -= sk * fk
                m[rows, 0] -= sk * fk
        ka = asm.ka[k][np.ix_(keep, keep)]
        kb = asm.kb[k][np.ix_(keep, keep)]
        ij = np.ix_(rows, rows)
        coeff(zero)[ij] += sk * ka + sk * sk * kb
        coeff(_unit(n, 1 + k))[ij] += sk * ka + 2.0 * sk * sk * kb
        coeff(_unit(n, 1 + k, 2))[ij] += sk * sk * kb

    return ScaledProblem(gs, float(c_hat), asm.lengths.copy(), svec,
                         objective, scalar, pmi, size)


@dataclass(frozen=True)
class _BoundTerms:
    """Per block: entries weighted 1 on the diagonal and 2 off it, and
    sum_alpha |tr A_alpha(k)|; the number of terms summed into each r_alpha;
    gamma_n of lower_bound's longest sum; the blocks grouped by size."""

    weighted: list[np.ndarray]
    traces: list[float]
    count: np.ndarray
    gamma: float
    groups: list[list[int]]


@dataclass
class Relaxation:
    """Order-r moment relaxation assembled as a dual-form SDP."""

    sp: ScaledProblem
    order: int
    y_basis: MonomialBasis          # b_{2r}: one SDP variable per entry
    localizer_basis: MonomialBasis  # b_{r-1}
    problem: SdpProblem
    block_names: list[str]

    @property
    def n_moments(self) -> int:
        return len(self.y_basis)

    @cached_property
    def bound_terms(self) -> _BoundTerms:
        """The parts of lower_bound that do not depend on Z, computed once."""
        p, u = self.problem, 2.0 ** -53
        count, weighted, traces = len(p.blocks) + 1.0, [], []
        for blk in p.blocks:
            diag = blk.row == blk.col
            weighted.append(np.where(diag, 1.0, 2.0) * blk.val)
            count = count + np.bincount(blk.var, minlength=p.m)
            traces.append(np.abs(np.bincount(blk.var[diag], blk.val[diag], minlength=p.m)).sum())
        gamma = 2.0 * u * (p.m + sum(blk.var.size + 1 for blk in p.blocks))
        groups = [[k for k, blk in enumerate(p.blocks) if blk.n == n]
                  for n in sorted({blk.n for blk in p.blocks})]
        return _BoundTerms(weighted, traces, count, gamma, groups)


def _localizer(y_basis: MonomialBasis, basis: MonomialBasis,
               poly: dict[Exponent, np.typing.ArrayLike]) -> SdpBlock:
    """The localizing matrix M(p y) on `basis` as one SDP block's upper triangle.

    p = sum_delta P_delta x^delta has J x J coefficients P_delta; cell
    (beta, gamma) of M(p y), rows beta * J + s and columns gamma * J + t, is
    sum_delta P_delta y_{beta + gamma + delta}.  Entries run cell by cell over
    the upper triangle of cells, row-major, then delta in dict order, then the
    nonzero (s, t) of P_delta row-major, with only s <= t on a diagonal cell.
    lower_bound's per-variable bincount sums and bound_terms add them up in
    that order, so the order fixes their roundoff.
    """
    mats = np.array(list(poly.values()), dtype=float)
    which, s, t = np.nonzero(mats)  # delta, then (s, t) row-major
    bpos, gpos = np.triu_indices(len(basis))
    exps = np.array(basis.exponents)
    shifted = (exps[bpos] + exps[gpos])[:, None, :] + np.array(list(poly))
    yvar = np.array([y_basis.index[alpha] for alpha in map(
        tuple, shifted.reshape(-1, basis.n).tolist())]).reshape(bpos.size, len(mats))
    cell, k = np.nonzero((bpos != gpos)[:, None] | (s <= t))  # kept (cell, entry) pairs
    J = mats.shape[1]
    size = J * len(basis)
    return SdpBlock(size, np.zeros((size, size)), yvar[cell, which[k]],
                    J * bpos[cell] + s[k], J * gpos[cell] + t[k], mats[which, s, t][k])


def build_relaxation(sp: ScaledProblem, r: int) -> Relaxation:
    """Assemble the order-r SDP: moment block, localizers, PMI block, y0 = 1."""
    if r < 1:
        raise ValueError("relaxation order must be >= 1")
    n = sp.n_vars
    yb = monomial_basis(n, 2 * r)
    lb = monomial_basis(n, r - 1)
    blocks = [_localizer(yb, monomial_basis(n, r), {(0,) * n: [[1.0]]})]
    names = [f"moment-M{r}"]
    for name, poly in sp.scalar_constraints:
        blocks.append(_localizer(yb, lb, {delta: [[c]] for delta, c in poly.items()}))
        names.append(f"localizer-{name}")
    blocks.append(_localizer(yb, lb, sp.pmi))
    names.append("localizer-pmi")

    b = np.zeros(len(yb))
    for alpha, c in sp.objective.items():
        b[yb.index[alpha]] += c
    e = np.zeros((1, len(yb)))
    e[0, 0] = 1.0  # the constant monomial is first: y_0 = 1
    problem = SdpProblem(b, blocks, e, np.ones(1))
    return Relaxation(sp, r, yb, lb, problem, names)


@dataclass
class RelaxationSolution:
    """One solved order, in full moment coordinates.

    `y` and `sdp` refer to `Relaxation.problem`, y_0 = 1 included: the
    solver eliminates that equality itself, so y[0] is exactly 1.  `lower`
    is the best bound that a dual iterate proved along the path, whatever
    `status` says, and `lower_iteration` the iteration of that iterate.
    """

    y: np.ndarray
    lower: float
    lower_iteration: int
    status: str
    sdp: SdpSolution


class _StopRule:
    """Per-iterate watch of one order: keeps the best proven bound and ends
    the solve once nothing more is to be learned from it.

    That is when the bound certifies against `upper` (if given, else the FEM
    compliance of the current iterate's design) and the iterate's moment
    matrix is flat, so that both certificates hold; or when the bound has
    stopped rising: it lies within PLATEAU_GATE of the iterate's objective
    b'y and has risen by at most PLATEAU_RTOL relative over the last
    PLATEAU_ITERS iterates.
    """

    def __init__(self, rel: Relaxation, gap_tol: float, upper: float | None):
        self.rel, self.gap_tol, self.upper = rel, gap_tol, upper
        self.lower, self.iteration = -math.inf, 0
        self.trail: list[float] = []  # kept bound after each iterate

    def __call__(self, y: np.ndarray, z: list[np.ndarray]) -> str | None:
        lower = lower_bound(self.rel, z)
        if lower > self.lower:
            self.lower, self.iteration = lower, len(self.trail) + 1
        self.trail.append(self.lower)
        upper = self.upper if self.upper is not None else _design(self.rel, y)[1]
        if gap_certificate(self.lower, upper, self.gap_tol).certified \
                and rank_certificate(self.rel, y).flat:
            return "certified and flat"
        obj = float(self.rel.problem.b @ y)
        near = abs(obj - self.lower) < PLATEAU_GATE * (1.0 + abs(obj) + abs(self.lower))
        if near and len(self.trail) > PLATEAU_ITERS and self.lower - \
                self.trail[-1 - PLATEAU_ITERS] <= PLATEAU_RTOL * max(1.0, abs(self.lower)):
            return "bound plateaued"
        return None


def solve_relaxation(rel: Relaxation, gap_tol: float = GAP_TOL,
                     upper: float | None = None) -> RelaxationSolution:
    """Solve one order until its proven bound certifies or stops rising.

    Certification is against `upper` when given (a design's compliance),
    else against the design each iterate extracts.
    """
    rule = _StopRule(rel, gap_tol, upper)
    sol = solve_sdp(rel.problem, callback=rule)
    return RelaxationSolution(sol.y, rule.lower, rule.iteration, sol.status, sol)


def sdp_outcome(rel: Relaxation, sol: RelaxationSolution) -> dict:
    """How the SDP of one order ended: status, reason, iterations, the
    iteration of the kept bound, the moment count, phase times, Schur gflop."""
    diag = sol.sdp.diagnostics
    return {"status": sol.status, "reason": diag["reason"],
            "sdp_iterations": sol.sdp.iterations, "lower_iteration": sol.lower_iteration,
            "n_moments": rel.n_moments, "phase_s": diag["phase_s"],
            "schur_gflop": diag["schur_gflop"]}


def lower_bound(rel: Relaxation, z: list[np.ndarray]) -> float:
    """The bound on the relaxation's optimum that any Z proves, PSD or not.

    Feasible y have y_0 = 1 and |y_alpha| <= 1 (the ball localizers bound
    diag M_r(y) by y_0, and M_r(y) >= 0 bounds the rest), and every block has
    C = 0.  So with r = b - A*(Z), b'y = r'y + sum_k <S_k(y), Z_k> is at least
        r_0 - sum_{alpha != 0} |r_alpha| + sum_k min(0, lambda_min(Z_k)) sum_alpha |tr A_alpha(k)|
    (Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46, 2007), less rounding:
    gamma_n <= 2 n u (Higham, Accuracy and Stability, 3.1) on each sum of n
    terms, and gamma_n ||Z_k||_F on lambda_min of an n x n Z_k.
    """
    p, u, terms = rel.problem, 2.0 ** -53, rel.bound_terms
    resid, size, eig, gamma = p.b.copy(), np.abs(p.b), 0.0, terms.gamma
    lam_min = np.empty(len(z))
    for group in terms.groups:
        lam_min[group] = lowest_eigs(np.array([z[k] for k in group]))
    for blk, weighted, trace, zk, lam in zip(p.blocks, terms.weighted, terms.traces, z, lam_min):
        term = weighted * zk[blk.row, blk.col]
        resid -= np.bincount(blk.var, term, minlength=p.m)
        size += np.bincount(blk.var, np.abs(term), minlength=p.m)
        lam = lam - 2.0 * u * blk.n * np.linalg.norm(zk)
        eig += min(0.0, lam) * trace * (1.0 + gamma)
    free = float(np.abs(resid[1:]).sum())
    slack = 2.0 * u * float(terms.count @ size) + gamma * (abs(resid[0]) + free - eig)
    return float(resid[0] - free + eig - slack)


def moment_matrix(rel: Relaxation, y: np.ndarray) -> np.ndarray:
    """Dense M_r(y) at the relaxation's order r, read off its first block.

    The basis is graded, so M_s(y) of a lower order s is its leading block.
    """
    blk = rel.problem.blocks[0]
    out = np.zeros((blk.n, blk.n))
    out[blk.row, blk.col] = out[blk.col, blk.row] = y[blk.var]
    return out


def extract_design(rel: Relaxation, y: np.ndarray) -> tuple[np.ndarray, float]:
    """First-moment design with clamp-and-rescale repair, plus its compliance.

    The repair (clamp a_sc into [-1, 1], rescale onto the volume budget if
    needed) always yields a feasible design, so its FEM compliance is a valid
    upper bound for the global optimum.
    """
    sp = rel.sp
    yix = rel.y_basis.index
    n = sp.n_vars
    a_sc = np.array([y[yix[_unit(n, 1 + i)]] for i in range(sp.gs.n_elements)])
    areas = sp.areas_from_scaled(np.clip(a_sc, -1.0, 1.0))
    vol = float(sp.lengths @ areas)
    if vol > sp.gs.volume_bound > 0.0:
        areas *= sp.gs.volume_bound / vol
    return areas, float(compliance(sp.gs, areas).compliance)


def _design(rel: Relaxation, y: np.ndarray) -> tuple[np.ndarray | None, float]:
    """extract_design, with (None, inf) where the design cannot carry the load."""
    try:
        return extract_design(rel, y)
    except (SingularSystemError, DanglingLoadError):
        return None, math.inf


@dataclass(frozen=True)
class RankReport:
    """Numerical ranks of M_r(y) and its order-(r-1) leading block."""

    rank_full: int
    rank_reduced: int
    tol: float

    @property
    def flat(self) -> bool:
        return self.rank_full == self.rank_reduced


def _numerical_rank(mat: np.ndarray, tol: float) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def rank_certificate(rel: Relaxation, y: np.ndarray) -> RankReport:
    """Flat truncation check: rank M_r(y) == rank M_{r-1}(y).

    The graded basis makes M_{r-1} the leading principal block of M_r, so one
    dense evaluation serves both.  Equal numerical ranks mean the pseudo-
    moments come from an atomic measure supported on as many points as the
    rank, which certifies the relaxation is exact.
    """
    full = moment_matrix(rel, y)
    reduced = len(rel.localizer_basis)
    return RankReport(_numerical_rank(full, RANK_TOL),
                      _numerical_rank(full[:reduced, :reduced], RANK_TOL), RANK_TOL)


@dataclass(frozen=True)
class Certificate:
    """Bound pair for one relaxation order and its optimality verdict."""

    order: int
    lower: float
    upper: float
    gap: float
    verdict: str  # certified-optimal | bounded | failed
    rank_full: int | None = None
    rank_reduced: int | None = None
    areas: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-optimal"

    def report(self) -> dict:
        return {
            "r": self.order,
            "c_lower": self.lower,
            "c_upper": self.upper,
            "gap": self.gap,
            "rank_Mr": self.rank_full,
            "rank_Mr_minus_d": self.rank_reduced,
            "certified": self.certified,
            "extracted_areas":
                [] if self.areas is None else [float(a) for a in self.areas],
        }


def gap_certificate(lower: float, upper: float, gap_tol: float = GAP_TOL,
                    order: int = 0, ranks: RankReport | None = None,
                    areas: np.ndarray | None = None) -> Certificate:
    """Classify a (lower, upper) bound pair.

    A lower bound overshooting the upper bound beyond tolerance signals
    numerical failure somewhere in the solve.  A closed relative gap certifies
    global optimality; anything else is an honest two-sided bound.
    """
    gap = upper - lower
    scale = max(1.0, abs(upper))
    if not math.isfinite(lower) or lower - upper > gap_tol * scale:
        verdict = "failed"
    elif math.isfinite(gap) and gap <= gap_tol * scale:
        verdict = "certified-optimal"
    else:
        verdict = "bounded"
    return Certificate(order, float(lower), float(upper), float(gap), verdict,
                       None if ranks is None else ranks.rank_full,
                       None if ranks is None else ranks.rank_reduced,
                       areas)


@dataclass
class HierarchyResult:
    """The orders' certificates, the best design and kept lower bound, and
    the run record of every method's result (as local.LocalResult):
    `status` (certified-optimal | bounded | failed); `reason`, the last
    order's SDP reason or skip text; `iterations` and `phase_s`, the SDP
    iterations and phase seconds summed over the orders run; `diagnostics`
    (`c_hat`, the `orders` rows, `monotonicity_violations`)."""

    certificates: list[Certificate]
    areas: np.ndarray | None
    compliance: float | None
    lower: float
    status: str
    reason: str | None
    iterations: int
    phase_s: dict
    diagnostics: dict


def run_hierarchy(gs: GroundStructure, r_max: int = 3,
                  gap_tol: float = GAP_TOL) -> HierarchyResult:
    """Run orders r = 1 ... r_max, stopping early once an order certifies.

    Every order is judged on the best bound its dual iterates proved,
    whatever its recorded SDP status; the best feasible design found is
    returned either way.
    """
    sp = scale_problem(gs)
    certs: list[Certificate] = []
    best_c = math.inf
    best_a: np.ndarray | None = None
    best_lower = -math.inf
    prev_lower = -math.inf
    diag: dict = {"c_hat": sp.c_hat, "orders": [],
                  "monotonicity_violations": []}
    for r in range(1, r_max + 1):
        try:
            rel = build_relaxation(sp, r)
        except ValueError as exc:
            diag["orders"].append({"r": r, "status": f"skipped: {exc}"})
            break
        rsol = solve_relaxation(rel, gap_tol)
        diag["orders"].append({"r": r, **sdp_outcome(rel, rsol)})
        lower = rsol.lower
        if lower < prev_lower - MONO_SLACK * max(1.0, abs(prev_lower)):
            diag["monotonicity_violations"].append((r, prev_lower, lower))
        prev_lower = max(prev_lower, lower)
        areas, upper = _design(rel, rsol.y)
        ranks = rank_certificate(rel, rsol.y)
        cert = gap_certificate(lower, upper, gap_tol, order=r,
                               ranks=ranks, areas=areas)
        certs.append(cert)
        if areas is not None and upper < best_c:
            best_c, best_a = upper, areas
        if cert.verdict != "failed":
            best_lower = max(best_lower, lower)
        if cert.certified:
            break
    if any(c.certified for c in certs):
        status = "certified-optimal"
    elif best_a is not None:
        status = "bounded"
    else:
        status = "failed"
    # The run record, from the rows of the orders run; a skipped row, always
    # the last, has only its status.
    rows = diag["orders"]
    ran = [o for o in rows if "reason" in o]
    reason = rows[-1].get("reason", rows[-1]["status"]) if rows else None
    iterations = sum(o["sdp_iterations"] for o in ran)
    phase_s = {k: sum(o["phase_s"][k] for o in ran) for k in (ran[0]["phase_s"] if ran else ())}
    return HierarchyResult(certs, best_a, None if best_a is None else best_c, best_lower,
                           status, reason, iterations, phase_s, diag)
