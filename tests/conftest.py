"""Shared builders for test structures, and helpers only tests use.

The structures are written out longhand, independent of frameopt.problems,
so the shipped benchmark definitions can be cross-checked against them.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, eigvalsh, solve_triangular

import frameopt
from frameopt import moments, problems
from frameopt.analysis import ReducedSystem
from frameopt.model import (
    CIRCLE_SECTION,
    PLATE_GIRDER_SECTION,
    SQUARE_SECTION,
    DistributedLoad,
    Element,
    GroundStructure,
    NodalForce,
    NodalMoment,
    Node,
    SelfWeight,
    Support,
    band_rows,
)
from frameopt.problems import problem_to_dict
from frameopt.sdp import SdpBlock, SdpProblem, _chol


@pytest.fixture(autouse=True)
def _fresh_structure_table():
    """Each test starts with no parsed structures kept, so counts of
    assemblies and checks do not depend on which tests ran before."""
    problems._interned.cache_clear()


TIP_FX = math.cos(math.pi / 6.0)
TIP_FY = -math.sin(math.pi / 6.0)


def make_cantilever(n_e: int, volume: float = 0.1) -> GroundStructure:
    """Span-1 cantilever, clamped left, unit tip force 30 degrees off axis."""
    nodes = [Node(i + 1, i / n_e, 0.0) for i in range(n_e + 1)]
    elements = [Element(i + 1, i + 1, i + 2, 1.0, SQUARE_SECTION) for i in range(n_e)]
    supports = [Support(1, ux=True, uy=True, rot=True)]
    loads = [NodalForce(n_e + 1, fx=TIP_FX, fy=TIP_FY)]
    return GroundStructure(nodes, elements, supports, loads, volume, f"cantilever-{n_e}")


def make_ten_beam(m2: float = 1.0, m3: float = 2.0) -> GroundStructure:
    """Six-node, ten-element frame on a unit grid, clamped at the left edge."""
    coords = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    nodes = [Node(i + 1, float(x), float(y)) for i, (x, y) in enumerate(coords)]
    pairs = [(1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (5, 6)]
    elements = [Element(i + 1, a, b, 1.0, CIRCLE_SECTION) for i, (a, b) in enumerate(pairs)]
    supports = [Support(1, True, True, True), Support(4, True, True, True)]
    loads = [NodalMoment(2, m2), NodalMoment(3, m3)]
    return GroundStructure(nodes, elements, supports, loads, 0.5, "tenbeam")


def make_girder(scheme: str = "lumped", n_e: int = 5,
                volume: float = 0.2) -> GroundStructure:
    """Half of a span-20 girder: pin at the left end, symmetry at midspan.

    The reference design uses statically equivalent (lumped) nodal loads;
    pass scheme="consistent" for the work-equivalent discretization.  n_e
    span-2 members make a longer girder of the same kind.
    """
    nodes = [Node(i + 1, 2.0 * i, 0.0) for i in range(n_e + 1)]
    elements = [Element(i + 1, i + 1, i + 2, 1.0e4, PLATE_GIRDER_SECTION) for i in range(n_e)]
    supports = [Support(1, ux=True, uy=True), Support(n_e + 1, ux=True, rot=True)]
    loads = [
        DistributedLoad(elements=tuple(range(1, n_e + 1)), q=1.0, scheme=scheme),
        SelfWeight(rho=3.0, g=1.0, scheme=scheme),
    ]
    name = "girder" if n_e == 5 else f"girder-{n_e}"
    return GroundStructure(nodes, elements, supports, loads, volume, name)


@pytest.fixture
def cantilever3() -> GroundStructure:
    return make_cantilever(3)


@pytest.fixture
def ten_beam() -> GroundStructure:
    return make_ten_beam()


@pytest.fixture
def girder() -> GroundStructure:
    return make_girder()


def closed_form_tip_compliance(a: float, length: float = 1.0) -> float:
    """Prismatic cantilever under the unit 30-degree tip force.

    Axial and bending responses decouple for a straight member:
    c = fx^2 * L / (E A) + fy^2 * L^3 / (3 E I), with I = a^2 / 12.
    """
    inertia = SQUARE_SECTION * a * a
    return TIP_FX**2 * length / a + TIP_FY**2 * length**3 / (3.0 * inertia)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def save_problem(gs: GroundStructure, path) -> None:
    """Write a structure as a problem file that load_problem reads back."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(gs), handle, indent=2)
        handle.write("\n")


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` with this frameopt importable.

    Keyword arguments set environment variables.  Output is captured as text.
    """
    src = str(Path(frameopt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


def block_from_matrices(c, mats) -> SdpBlock:
    """SDP block sum_i y_i A_i - C from dense symmetric C and A_1 ... A_m.

    Only the upper triangles are read; SdpBlock itself checks C.
    """
    var, row, col, val = [], [], [], []
    for i, mat in enumerate(mats):
        mat = np.asarray(mat, dtype=float)
        r, s = np.nonzero(np.triu(mat))
        var.extend([i] * r.size)
        row.extend(r)
        col.extend(s)
        val.extend(mat[r, s])
    return SdpBlock(len(c), c, np.array(var, int), np.array(row, int),
                    np.array(col, int), np.array(val, float))


def substitute_y0(problem) -> SdpProblem:
    """Eliminate y_0 = 1 by hand: C(k) -= A_0(k) per block, drop variable 0 and E.

    The reference the solver's equality presolve must reproduce bit for bit
    on a moment relaxation.
    """
    blocks = []
    for blk in problem.blocks:
        at0 = blk.var == 0
        a0 = np.zeros((blk.n, blk.n))
        np.add.at(a0, (blk.row[at0], blk.col[at0]), blk.val[at0])
        a0 += np.triu(a0, 1).T
        keep = ~at0
        blocks.append(SdpBlock(blk.n, blk.c - a0, blk.var[keep] - 1,
                               blk.row[keep], blk.col[keep], blk.val[keep]))
    return SdpProblem(problem.b[1:], blocks)


def cholesky_step(x: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with X + t*Delta still PSD, from X = L L' and the full
    spectrum of L^-1 Delta L^-T: the reference for the solver's step length."""
    lower = cholesky(x, lower=True)
    w = solve_triangular(lower, delta, lower=True)
    w = solve_triangular(lower, w.T, lower=True)
    lam = eigvalsh(0.5 * (w + w.T))[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def nt_congruence(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """G = Ls V diag(sig)^-1/2 of each pair of a stack, the inverse of the
    solver's Ginv, so that G' Z G = diag(sig): the oracle that maps scaled
    dual directions back.  Ls, V and sig come from the same Cholesky factors
    and SVD as in sdp._nt_scaling."""
    ls, lz = _chol(s), _chol(z)
    _, sig, vt = np.linalg.svd(lz.swapaxes(-1, -2) @ ls)
    return ls @ (vt.swapaxes(-1, -2) / np.sqrt(sig)[:, None, :])


def kkt_primal_residual(report) -> float:
    """The larger of a KktReport's equality residual and worst slack PSD violation."""
    viol = max((max(0.0, -lam) for lam in report.slack_min_eigs), default=0.0)
    return max(report.equality_residual, viol)


def pmi_at(sp, x) -> np.ndarray:
    """The matrix polynomial P(x) of a ScaledProblem, evaluated densely."""
    out = np.zeros((sp.pmi_size, sp.pmi_size))
    for delta, mat in sp.pmi.items():
        out += mat * math.prod(xi ** ai for xi, ai in zip(x, delta) if ai)
    return out


def reduced_system_from_dense(K, f) -> ReducedSystem:
    """ReducedSystem of a dense symmetric K (upper triangle read) and load f."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    i, j = np.nonzero(np.triu(K))
    u = int(np.max(j - i, initial=0))
    band = np.zeros((u + 1, n), order="F")
    band[u + i - j, j] = K[i, j]
    slots, cols = band_rows(u, n)
    return ReducedSystem(free=np.arange(n), band=band,
                         rows=band.ravel(order="F")[slots], cols=cols,
                         f=np.asarray(f, dtype=float), n_dof=n)


def make_grid(cols: int, rows: int, gen: np.random.Generator) -> GroundStructure:
    """Unit grid of circular beams, both diagonals in every cell, clamped on
    the left edge, with random forces and moments at one to three nodes."""
    def nid(i, j):
        return j * (cols + 1) + i + 1

    nodes = [Node(nid(i, j), float(i), float(j))
             for j in range(rows + 1) for i in range(cols + 1)]
    pairs = [(nid(i, j), nid(i + 1, j)) for j in range(rows + 1) for i in range(cols)]
    pairs += [(nid(i, j), nid(i, j + 1)) for j in range(rows) for i in range(1, cols + 1)]
    for j in range(rows):
        for i in range(cols):
            pairs += [(nid(i, j), nid(i + 1, j + 1)), (nid(i + 1, j), nid(i, j + 1))]
    elements = [Element(k + 1, p, q, 1.0, CIRCLE_SECTION) for k, (p, q) in enumerate(pairs)]
    supports = [Support(nid(0, j), True, True, True) for j in range(rows + 1)]
    free_nodes = [nid(i, j) for j in range(rows + 1) for i in range(1, cols + 1)]
    loads = []
    for node in gen.choice(free_nodes, size=min(len(free_nodes), int(gen.integers(1, 4))),
                           replace=False):
        fx, fy = gen.normal(size=2)
        loads += [NodalForce(int(node), fx=fx, fy=fy),
                  NodalMoment(int(node), gen.uniform(-2.0, 2.0))]
    return GroundStructure(nodes, elements, supports, loads, 0.05 * len(pairs),
                           f"grid-{len(pairs)}")


def make_long_girder(n: int, gen: np.random.Generator) -> GroundStructure:
    """Half girder of n span-2 members: pin left, symmetry right, random
    line load and self-weight under a random load scheme."""
    scheme = str(gen.choice(["lumped", "consistent"]))
    nodes = [Node(i + 1, 2.0 * i, 0.0) for i in range(n + 1)]
    elements = [Element(i + 1, i + 1, i + 2, 1.0e4, PLATE_GIRDER_SECTION) for i in range(n)]
    supports = [Support(1, ux=True, uy=True), Support(n + 1, ux=True, rot=True)]
    loads = [DistributedLoad(tuple(range(1, n + 1)), gen.uniform(0.5, 1.5), scheme),
             SelfWeight(gen.uniform(1.0, 5.0), 1.0, scheme)]
    return GroundStructure(nodes, elements, supports, loads, 0.04 * n, f"girder-{n}")


def scramble_nodes(gs: GroundStructure, gen: np.random.Generator) -> GroundStructure:
    """The same structure with its node list, and so its DOF order, permuted."""
    order = gen.permutation(len(gs.nodes))
    return dataclasses.replace(gs, nodes=[gs.nodes[k] for k in order],
                               name=gs.name + "-scrambled")


def _rotation(c, s):
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[3:, 3:] = r
    return out


def _local_axial(length):
    k = 1.0 / length
    m = np.zeros((6, 6))
    m[0, 0] = m[3, 3] = k
    m[0, 3] = m[3, 0] = -k
    return m


def _local_bending(length):
    l1, l2, l3 = length, length**2, length**3
    rows = np.array([1, 2, 4, 5])
    sub = np.array([[12.0 / l3, 6.0 / l2, -12.0 / l3, 6.0 / l2],
                    [6.0 / l2, 4.0 / l1, -6.0 / l2, 2.0 / l1],
                    [-12.0 / l3, -6.0 / l2, 12.0 / l3, -6.0 / l2],
                    [6.0 / l2, 2.0 / l1, -6.0 / l2, 4.0 / l1]])
    m = np.zeros((6, 6))
    m[np.ix_(rows, rows)] = sub
    return m


def _line_load(scheme, length, c, s, q):
    if scheme == "lumped":
        half = q * length / 2.0
        return np.array([0.0, -half, 0.0, 0.0, -half, 0.0])
    wx, wy = -q * s, -q * c
    fl = np.array([wx * length / 2.0, wy * length / 2.0, wy * length**2 / 12.0,
                   wx * length / 2.0, wy * length / 2.0, -wy * length**2 / 12.0])
    out = fl.copy()
    out[0] = c * fl[0] - s * fl[1]
    out[1] = s * fl[0] + c * fl[1]
    out[3] = c * fl[3] - s * fl[4]
    out[4] = s * fl[3] + c * fl[4]
    return out


def element_patterns_oracle(gs: GroundStructure):
    """ka, kb, f0 and f1 of a valid structure, built element by element.

    Each element's patterns are the products E R' k R of its 6x6 rotation R
    and local pattern k, unsymmetrized, and each load pattern is evaluated
    member by member: the reference for FrameAssembly's batched
    construction.  f1 is None without a positive self-weight.
    """
    pos = {node.id: k for k, node in enumerate(gs.nodes)}
    ne = len(gs.elements)
    ka, kb = np.zeros((ne, 6, 6)), np.zeros((ne, 6, 6))
    geometry, dofs = [], []
    for k, el in enumerate(gs.elements):
        ia, ib = pos[el.node_a], pos[el.node_b]
        dx, dy = gs.nodes[ib].x - gs.nodes[ia].x, gs.nodes[ib].y - gs.nodes[ia].y
        length = math.hypot(dx, dy)
        c, s = dx / length, dy / length
        geometry.append((length, c, s))
        dofs.append([3 * ia, 3 * ia + 1, 3 * ia + 2, 3 * ib, 3 * ib + 1, 3 * ib + 2])
        rot = _rotation(c, s)
        ka[k] = el.young_modulus * rot.T @ _local_axial(length) @ rot
        kb[k] = el.young_modulus * el.c_i * rot.T @ _local_bending(length) @ rot
    element_pos = {el.id: k for k, el in enumerate(gs.elements)}
    f0, f1 = np.zeros(3 * len(gs.nodes)), None
    for load in gs.loads:
        if isinstance(load, NodalForce):
            f0[3 * pos[load.node]] += load.fx
            f0[3 * pos[load.node] + 1] += load.fy
        elif isinstance(load, NodalMoment):
            f0[3 * pos[load.node] + 2] += load.m
        elif isinstance(load, DistributedLoad):
            for eid in load.elements:
                k = element_pos[eid]
                np.add.at(f0, dofs[k], _line_load(load.scheme, *geometry[k], load.q))
        elif load.rho * load.g > 0.0:
            f1 = np.zeros((ne, 6)) if f1 is None else f1
            for k in range(ne):
                f1[k] += _line_load(load.scheme, *geometry[k], load.rho * load.g)
    return ka, kb, f0, f1


def jitter_nodes(gs: GroundStructure, gen: np.random.Generator,
                 amount: float = 0.3) -> GroundStructure:
    """The structure with each node moved by up to ``amount`` in x and y, so
    that its members lie at general angles, where R' k R is symmetric only
    to roundoff."""
    moved = [dataclasses.replace(node, x=node.x + float(dx), y=node.y + float(dy))
             for node, (dx, dy) in zip(gs.nodes, gen.uniform(-amount, amount,
                                                             (len(gs.nodes), 2)))]
    return dataclasses.replace(gs, nodes=moved, name=gs.name + "-jittered")


def make_skew_frame(gen: np.random.Generator) -> GroundStructure:
    """A 2 x 1 grid with its nodes jittered, so every member lies at a
    general angle, under random nodal loads and a consistent self-weight."""
    gs = jitter_nodes(make_grid(2, 1, gen), gen)
    return dataclasses.replace(gs, loads=gs.loads + (SelfWeight(2.0, 1.0, "consistent"),))


def _exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def relaxation_blocks_oracle(sp, r):
    """The order-r relaxation's blocks, built one triplet at a time: the
    moment block, one localizer per scalar constraint, the PMI localizer.

    Entries come cell by cell over the upper triangle of cells, then by
    exponent offset, then by coefficient entry row-major: the reference for
    moments._localizer, entry order included.  Unlike it, a zero-valued
    scalar coefficient keeps its entries.
    """
    n = sp.n_vars
    yix = moments.monomial_basis(n, 2 * r).index
    mb = moments.monomial_basis(n, r).exponents
    lb = moments.monomial_basis(n, r - 1).exponents

    var, row, col = [], [], []
    for bpos, beta in enumerate(mb):
        for gpos in range(bpos, len(mb)):
            var.append(yix[_exp_add(beta, mb[gpos])])
            row.append(bpos)
            col.append(gpos)
    blocks = [SdpBlock(len(mb), np.zeros((len(mb), len(mb))), np.array(var),
                       np.array(row), np.array(col), np.ones(len(var)))]

    for _, poly in sp.scalar_constraints:
        var, row, col, val = [], [], [], []
        for bpos, beta in enumerate(lb):
            for gpos in range(bpos, len(lb)):
                base = _exp_add(beta, lb[gpos])
                for delta, c in poly.items():
                    var.append(yix[_exp_add(base, delta)])
                    row.append(bpos)
                    col.append(gpos)
                    val.append(c)
        blocks.append(SdpBlock(len(lb), np.zeros((len(lb), len(lb))), np.array(var),
                               np.array(row), np.array(col), np.array(val)))

    J = sp.pmi_size
    full_trip, diag_trip = [], []
    for delta, mat in sp.pmi.items():
        s_all, t_all = np.nonzero(mat)
        full_trip.append((delta, s_all, t_all, mat[s_all, t_all]))
        s_up, t_up = np.nonzero(np.triu(mat))
        diag_trip.append((delta, s_up, t_up, mat[s_up, t_up]))
    var, row, col, val = [], [], [], []
    for bpos, beta in enumerate(lb):
        for gpos in range(bpos, len(lb)):
            base = _exp_add(beta, lb[gpos])
            for delta, s_, t_, v_ in (diag_trip if gpos == bpos else full_trip):
                yv = yix[_exp_add(base, delta)]
                for s, t, v in zip(s_, t_, v_):
                    var.append(yv)
                    row.append(bpos * J + s)
                    col.append(gpos * J + t)
                    val.append(v)
    size = J * len(lb)
    blocks.append(SdpBlock(size, np.zeros((size, size)), np.array(var), np.array(row),
                           np.array(col), np.array(val)))
    return blocks


def moment_matrix_oracle(sp, r, y):
    """Dense M_r(y), entry by entry from the monomial basis."""
    n = sp.n_vars
    yix = moments.monomial_basis(n, 2 * r).index
    mb = moments.monomial_basis(n, r).exponents
    out = np.zeros((len(mb), len(mb)))
    for i, alpha in enumerate(mb):
        for j in range(i, len(mb)):
            out[i, j] = out[j, i] = y[yix[_exp_add(alpha, mb[j])]]
    return out
