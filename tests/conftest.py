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
from frameopt import problems
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
