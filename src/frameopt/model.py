"""Ground-structure model for 2-D frame topology optimization.

A ground structure is a fixed set of nodes and candidate Euler-Bernoulli
frame elements; optimization picks the cross-sectional areas ``a`` (possibly
zero) subject to a volume budget.  Each node carries three global DOFs
(u_x, u_y, theta), ordered by node position in the node list; rotations are
counterclockwise-positive.

The second moment of area follows the one-parameter law I = c_I * a**2, so
global stiffness entries are polynomials of degree <= 2 in the areas (axial
terms linear, bending terms quadratic), while load vectors are affine in the
areas (self-weight contributes rho * g * a_i per unit length, applied as
work-equivalent nodal loads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np
from scipy.linalg.lapack import dpbtrf

# Cross-section coefficients c_I in I = c_I * a**2.
SQUARE_SECTION = 1.0 / 12.0              # solid square: I = h**4/12, a = h**2
CIRCLE_SECTION = 1.0 / (4.0 * math.pi)   # solid circle: I = pi*r**4/4, a = pi*r**2
PLATE_GIRDER_SECTION = 58.0 / 27.0       # stiffened plate profile: I = 696*t**4, a = 18*t**2

SECTION_COEFFICIENTS = {
    "square": SQUARE_SECTION,
    "circle": CIRCLE_SECTION,
    "plate-girder": PLATE_GIRDER_SECTION,
}

DOF_NAMES = ("ux", "uy", "rot")


class ModelError(ValueError):
    """Malformed ground-structure input."""


class MechanismError(ModelError):
    """The supported structure admits a zero-energy (rigid-body) mode."""


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Element:
    """Frame element between two nodes with I = c_i * a**2."""

    id: int
    node_a: int
    node_b: int
    young_modulus: float = 1.0
    c_i: float = SQUARE_SECTION


@dataclass(frozen=True)
class Support:
    node: int
    ux: bool = False
    uy: bool = False
    rot: bool = False


@dataclass(frozen=True)
class NodalForce:
    node: int
    fx: float = 0.0
    fy: float = 0.0


@dataclass(frozen=True)
class NodalMoment:
    node: int
    m: float = 0.0


@dataclass(frozen=True)
class DistributedLoad:
    """Uniform line load of intensity q per unit length acting in global -y.

    scheme selects the nodal discretization: "consistent" applies the
    work-equivalent pattern including fixed-end moments, "lumped" places
    statically equivalent forces q*l/2 at the end nodes only.
    """

    elements: tuple[int, ...]
    q: float
    scheme: str = "consistent"


@dataclass(frozen=True)
class SelfWeight:
    """Area-proportional line load rho * g * a_i per unit length, global -y."""

    rho: float
    g: float = 1.0
    scheme: str = "consistent"


@dataclass(frozen=True)
class GroundStructure:
    """Nodes, candidate elements, supports, loads and the volume budget.

    Immutable: the sequences are stored as tuples, and a variant is made with
    ``dataclasses.replace``.  So the structure can own one ``FrameAssembly``
    and one validation report, each computed on first use and kept; neither
    can go stale.
    """

    nodes: tuple[Node, ...]
    elements: tuple[Element, ...]
    supports: tuple[Support, ...]
    loads: tuple = ()
    volume_bound: float = 1.0
    name: str = ""

    def __post_init__(self):
        for name in ("nodes", "elements", "supports", "loads"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @cached_property
    def assembly(self) -> FrameAssembly:
        """The structure's assembly; raises ModelError on malformed input."""
        return FrameAssembly(self)

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of ``validate``, run once per structure."""
        return validate(self)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_dof(self) -> int:
        return 3 * len(self.nodes)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]
    mechanism: bool = False
    n_free_dof: int = 0

    def message(self) -> str:
        return "; ".join(self.errors) if self.errors else "ok"


def _element_patterns(lengths, squares, cubes, c, s, modulus, flexural):
    """Global stiffness patterns of all elements, stacked (ne, 6, 6).

    Returns ka = E R'(k_axial)R per unit area and kb = E c_I R'(k_bending)R
    per unit area squared, with R the global-to-local rotation, k_axial the
    local axial pattern per unit EA and k_bending the local bending pattern
    per unit EI.  ``squares`` and ``cubes`` are the lengths' powers.  Each
    product is formed as ((E R') k) R and then symmetrized as (K + K')/2,
    since for members at general angles the product itself is symmetric
    only to roundoff.
    """
    ne = lengths.size
    rot = np.zeros((ne, 6, 6))
    for b in (0, 3):
        rot[:, b, b] = rot[:, b + 1, b + 1] = c
        rot[:, b, b + 1] = s
        rot[:, b + 1, b] = -s
        rot[:, b + 2, b + 2] = 1.0
    axial = np.zeros((ne, 6, 6))
    axial[:, 0, 0] = axial[:, 3, 3] = 1.0 / lengths
    axial[:, 0, 3] = axial[:, 3, 0] = -1.0 / lengths
    shear, slope = 12.0 / cubes, 6.0 / squares
    near, far = 4.0 / lengths, 2.0 / lengths
    sub = [[shear, slope, -shear, slope],
           [slope, near, -slope, far],
           [-shear, -slope, shear, -slope],
           [slope, far, -slope, near]]
    bending = np.zeros((ne, 6, 6))
    for p, i in enumerate((1, 2, 4, 5)):
        for q, j in enumerate((1, 2, 4, 5)):
            bending[:, i, j] = sub[p][q]
    rot_t = rot.transpose(0, 2, 1)
    patterns = []
    for scale, local in ((modulus, axial), (modulus * flexural, bending)):
        k = (scale[:, None, None] * rot_t) @ local @ rot
        patterns.append(0.5 * (k + k.transpose(0, 2, 1)))
    return patterns


def _transverse_consistent(lengths, squares, c, s, q: float) -> np.ndarray:
    """Work-equivalent nodal loads for a uniform line load q in global -y.

    Returns one global 6-vector (Fx1, Fy1, M1, Fx2, Fy2, M2) per element.
    The load is decomposed into local axial and transverse components, each
    applied via the standard consistent pattern, then rotated back to
    global axes.
    """
    wx = -q * s        # local axial component per unit length
    wy = -q * c        # local transverse component per unit length
    fx, fy = wx * lengths / 2.0, wy * lengths / 2.0
    moment = wy * squares / 12.0
    gx, gy = c * fx - s * fy, s * fx + c * fy
    return np.stack([gx, gy, moment, gx, gy, -moment], axis=1)


def _transverse_lumped(lengths, squares, c, s, q: float) -> np.ndarray:
    """Statically equivalent nodal loads for a uniform line load q in global -y.

    Half the resultant q*length goes to each end node; no fixed-end moments.
    """
    out = np.zeros((lengths.size, 6))
    out[:, 1] = out[:, 4] = -(q * lengths / 2.0)
    return out


_LOAD_SCHEMES = {
    "consistent": _transverse_consistent,
    "lumped": _transverse_lumped,
}


class FrameAssembly:
    """Precompiled assembly operators for a ground structure.

    Splits every element stiffness into the two global patterns
    K_e(a) = a * ka_e + a**2 * kb_e and every load vector into
    f(a) = f0 + sum_i a_i * f1_i, which is all downstream code needs.
    ka and kb are exactly symmetric, so the band, which reads their upper
    entries, and the contractions of the full 6x6 patterns see one K.
    The stiffness is assembled once, on the support-reduced DOF set ``free``
    into its node-order band (``stiffness_band``), which the FEM solves
    factor; ``stiffness`` mirrors the band into a dense matrix.  Load vectors
    stay full-length, indexed by global DOF.  A structure builds its one
    assembly on first use of ``gs.assembly``; its arrays are read-only, since
    equal parsed documents share the structure and so the assembly.
    """

    def __init__(self, gs: GroundStructure):
        node_index = {}
        for pos, node in enumerate(gs.nodes):
            if node.id in node_index:
                raise ModelError(f"duplicate node id {node.id}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise ModelError(f"non-finite coordinates at node {node.id}")
            node_index[node.id] = pos
        self.node_index = MappingProxyType(node_index)
        self.n_dof = gs.n_dof
        self.n_elements = ne = gs.n_elements

        self.lengths = np.zeros(ne)
        # The powers are taken per element on Python floats: numpy's array
        # powers round differently in the last bit.
        squares, cubes, cos, sin, modulus, flexural = np.zeros((6, ne))
        self.dofs = np.zeros((ne, 6), dtype=int)

        seen = set()
        for k, el in enumerate(gs.elements):
            if el.id in seen:
                raise ModelError(f"duplicate element id {el.id}")
            seen.add(el.id)
            if el.node_a == el.node_b:
                raise ModelError(f"element {el.id} connects node {el.node_a} to itself")
            if el.node_a not in node_index or el.node_b not in node_index:
                raise ModelError(f"element {el.id} references an unknown node")
            if not math.isfinite(el.young_modulus):
                raise ModelError(f"element {el.id} has non-finite Young's modulus")
            if el.young_modulus <= 0.0:
                raise ModelError(f"element {el.id} has non-positive Young's modulus")
            if not math.isfinite(el.c_i):
                raise ModelError(f"element {el.id} has non-finite section coefficient")
            if el.c_i <= 0.0:
                raise ModelError(f"element {el.id} has non-positive section coefficient")
            na, nb = gs.nodes[node_index[el.node_a]], gs.nodes[node_index[el.node_b]]
            dx, dy = nb.x - na.x, nb.y - na.y
            length = math.hypot(dx, dy)
            if length <= 0.0:
                raise ModelError(f"element {el.id} has zero length")
            self.lengths[k], squares[k], cubes[k] = length, length**2, length**3
            cos[k], sin[k] = dx / length, dy / length
            modulus[k], flexural[k] = el.young_modulus, el.c_i
            ia, ib = node_index[el.node_a], node_index[el.node_b]
            self.dofs[k] = [3 * ia, 3 * ia + 1, 3 * ia + 2, 3 * ib, 3 * ib + 1, 3 * ib + 2]
        self.ka, self.kb = _element_patterns(self.lengths, squares, cubes, cos, sin,
                                             modulus, flexural)

        if not gs.supports:
            raise ModelError("structure has no supports")
        fixed = np.zeros(self.n_dof, dtype=bool)
        for sup in gs.supports:
            if sup.node not in node_index:
                raise ModelError(f"support references unknown node {sup.node}")
            base = 3 * node_index[sup.node]
            for j, flag in enumerate((sup.ux, sup.uy, sup.rot)):
                if flag:
                    fixed[base + j] = True
        # The support-reduced model: global indices of the free DOFs and
        # each element DOF's position among them (-1 = supported).
        self.free = np.flatnonzero(~fixed)
        position = np.full(self.n_dof, -1)
        position[self.free] = np.arange(self.free.size)
        self.reduced_dofs = position[self.dofs]
        rows = self.reduced_dofs[:, :, None]
        cols = self.reduced_dofs[:, None, :]
        n = self.free.size
        # K is banded in node order: its half-bandwidth u is the widest span
        # of free DOFs within one element.  The band scatter keeps only the
        # upper entries (i <= j), each summed in element order, at flat slot
        # u (j + 1) + i of the column-major LAPACK upper band, where
        # band[u + i - j, j] = K[i, j].
        upper = (rows >= 0) & (rows <= cols)
        i, j = (np.broadcast_to(x, upper.shape)[upper] for x in (rows, cols))
        self.half_bandwidth = u = int(np.max(j - i, initial=0))
        self._band_scatter = u * (j + 1) + i
        self._band_element = np.nonzero(upper)[0]
        self._band_ka = self.ka[upper]
        self._band_kb = self.kb[upper]
        self.band_slots, self.band_cols = band_rows(u, n)

        element_pos = {el.id: k for k, el in enumerate(gs.elements)}
        self.f0 = np.zeros(self.n_dof)
        self.f1 = None
        for load in gs.loads:
            if isinstance(load, NodalForce):
                if load.node not in node_index:
                    raise ModelError(f"force references unknown node {load.node}")
                if not (math.isfinite(load.fx) and math.isfinite(load.fy)):
                    raise ModelError(f"non-finite force at node {load.node}")
                base = 3 * node_index[load.node]
                self.f0[base] += load.fx
                self.f0[base + 1] += load.fy
            elif isinstance(load, NodalMoment):
                if load.node not in node_index:
                    raise ModelError(f"moment references unknown node {load.node}")
                if not math.isfinite(load.m):
                    raise ModelError(f"non-finite moment at node {load.node}")
                self.f0[3 * node_index[load.node] + 2] += load.m
            elif isinstance(load, DistributedLoad):
                if not math.isfinite(load.q):
                    raise ModelError("non-finite distributed load on elements "
                                     + ", ".join(map(str, load.elements)))
                pattern = self._scheme(load.scheme)
                for eid in load.elements:
                    if eid not in element_pos:
                        raise ModelError(f"distributed load references unknown element {eid}")
                ks = np.array([element_pos[eid] for eid in load.elements], dtype=int)
                # add.at sums element by element, in the load's order.
                np.add.at(self.f0, self.dofs[ks],
                          pattern(self.lengths[ks], squares[ks], cos[ks], sin[ks], load.q))
            elif isinstance(load, SelfWeight):
                if not (math.isfinite(load.rho) and math.isfinite(load.g)):
                    raise ModelError("non-finite self-weight density or gravity")
                if load.rho < 0.0:
                    raise ModelError("self-weight density must be non-negative")
                pattern = self._scheme(load.scheme)
                rate = load.rho * load.g
                if rate > 0.0:
                    if self.f1 is None:
                        self.f1 = np.zeros((ne, 6))
                    # Unit pattern per element: line load "rate" per unit area.
                    self.f1 += pattern(self.lengths, squares, cos, sin, rate)
            else:
                raise ModelError(f"unknown load type {type(load).__name__}")

        # Equal documents share one structure, and with it this assembly:
        # nothing may write to its arrays or its node index once built.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @staticmethod
    def _scheme(name: str):
        try:
            return _LOAD_SCHEMES[name]
        except KeyError:
            raise ModelError(f"unknown load scheme {name!r}") from None

    # -- assembly ---------------------------------------------------------

    def _check_design(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.n_elements,):
            raise ModelError(
                f"design has {a.size} areas, structure has {self.n_elements} elements"
            )
        if not np.all(np.isfinite(a)):
            raise ModelError("design contains non-finite areas")
        return a

    def stiffness(self, a: np.ndarray) -> np.ndarray:
        """Support-reduced K(a) as a dense matrix mirrored out of ``stiffness_band``."""
        band = self.stiffness_band(a)
        d, j = np.indices(band.shape)
        i = j - self.half_bandwidth + d
        inside = i >= 0
        k = np.zeros((self.free.size,) * 2)
        k[i[inside], j[inside]] = k[j[inside], i[inside]] = band[inside]
        return k

    def stiffness_band(self, a: np.ndarray) -> np.ndarray:
        """Upper band of the support-reduced K(a) in LAPACK storage.

        A (u + 1) x n Fortran-ordered array with band[u + i - j, j] = K[i, j]
        for j - u <= i <= j, u = ``half_bandwidth``; the unused top-left
        corner is zero.
        """
        a = self._check_design(a)
        u, n = self.half_bandwidth, self.free.size
        e = self._band_element
        weights = self._band_ka * a[e] + self._band_kb * (a * a)[e]
        return np.bincount(self._band_scatter, weights=weights,
                           minlength=(u + 1) * n).reshape(n, u + 1).T

    def stiffness_trace(self, a: np.ndarray) -> float:
        """Trace of the full K(a), supported DOFs included."""
        a = self._check_design(a)
        diag = (np.diagonal(self.ka, axis1=1, axis2=2) * a[:, None]
                + np.diagonal(self.kb, axis1=1, axis2=2) * (a * a)[:, None])
        return float(np.sum(np.bincount(self.dofs.ravel(), weights=diag.ravel(),
                                        minlength=self.n_dof)))

    def loads(self, a: np.ndarray) -> np.ndarray:
        a = self._check_design(a)
        f = self.f0.copy()
        if self.f1 is not None:
            np.add.at(f, self.dofs, self.f1 * a[:, None])
        return f

    def element_energies(self, a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-element u'(dK/da_i)u and 2 u'(df/da_i)."""
        a = self._check_design(a)
        ue = u[self.dofs]
        ek = np.einsum("ei,eij,ej->e", ue, self.ka, ue)
        ek += 2.0 * a * np.einsum("ei,eij,ej->e", ue, self.kb, ue)
        if self.f1 is not None:
            ef = 2.0 * np.einsum("ei,ei->e", self.f1, ue)
        else:
            ef = np.zeros(self.n_elements)
        return ek, ef

    def volume(self, a: np.ndarray) -> float:
        return float(self.lengths @ np.asarray(a, dtype=float))


@lru_cache(maxsize=1024)
def band_rows(u: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index of the rows of a symmetric n x n matrix of half-bandwidth u.

    For the column-major upper band of ``FrameAssembly.stiffness_band``,
    ``band.ravel(order="F")[slots]`` is the n x (2u + 1) array whose row i
    holds K[i, i - u], ..., K[i, i + u], the lower part read from its mirror;
    ``cols`` names the column of each entry.  Positions outside the matrix
    point at slot 0, the unused band[0, 0] (zero whenever u > 0), and at
    column 0.

    The pair depends on (u, n) alone, so it is built once per pair, read-only,
    and shared by every structure and kept system of that shape.
    """
    i = np.arange(n)[:, None]
    j = i + np.arange(-u, u + 1)
    inside = (j >= 0) & (j < n)
    slots = u * (np.maximum(i, j) + 1) + np.minimum(i, j)
    out = np.where(inside, slots, 0), np.where(inside, j, 0)
    for index in out:
        index.flags.writeable = False
    return out


def uniform_design(gs: GroundStructure) -> np.ndarray:
    """The volume-saturating uniform design a_i = Vbar / sum(l)."""
    total = float(np.sum(gs.assembly.lengths))
    return np.full(gs.n_elements, gs.volume_bound / total)


def validate(gs: GroundStructure) -> ValidationReport:
    """Check model sanity and that the supported structure is not a mechanism.

    The kinematic check assembles the support-reduced stiffness band at the
    uniform positive design and requires a successful banded Cholesky
    factorization with pivots above 1e-12 * trace.  It uses the
    structure's own assembly; ``gs.validation`` keeps the report.
    """
    errors: list[str] = []
    if not (gs.volume_bound > 0.0 and math.isfinite(gs.volume_bound)):
        errors.append("volume bound must be positive and finite")
    if not gs.nodes:
        errors.append("structure has no nodes")
    if not gs.elements:
        errors.append("structure has no elements")
    if errors:
        return ValidationReport(ok=False, errors=tuple(errors))

    try:
        asm = gs.assembly
    except ModelError as exc:
        return ValidationReport(ok=False, errors=(str(exc),))

    n_free = asm.free.size
    if n_free == 0:
        return ValidationReport(ok=True, errors=(), n_free_dof=0)

    a = uniform_design(gs)
    band = asm.stiffness_band(a)
    pivot_floor = 1e-12 * float(np.sum(band[-1]))
    factor, info = dpbtrf(band)
    # The pivots are the squared diagonal of U, the factor's last band row.
    min_pivot = float(np.min(factor[-1]) ** 2) if info == 0 else -1.0
    if min_pivot < pivot_floor:
        # Name the dominant DOFs of the zero-energy mode.
        w, v = np.linalg.eigh(asm.stiffness(a))
        mode = v[:, 0]
        full = np.zeros(gs.n_dof)
        full[asm.free] = mode
        order = np.argsort(-np.abs(full))[:3]
        parts = []
        for idx in order:
            if abs(full[idx]) < 1e-6:
                continue
            node = gs.nodes[idx // 3]
            parts.append(f"node {node.id} {DOF_NAMES[idx % 3]} ({full[idx]:+.3f})")
        return ValidationReport(
            ok=False,
            errors=("kinematic mechanism: zero-energy mode dominated by "
                    + ", ".join(parts),),
            mechanism=True, n_free_dof=n_free)

    return ValidationReport(ok=True, errors=(), n_free_dof=n_free)


def require_valid(gs: GroundStructure) -> FrameAssembly:
    """Raise unless the structure is valid; return its checked assembly.

    The check runs once per structure (``gs.validation``); later calls on
    the same structure only read the kept report.
    """
    report = gs.validation
    if not report.ok:
        if report.mechanism:
            raise MechanismError(report.message())
        raise ModelError(report.message())
    return gs.assembly
