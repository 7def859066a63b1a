"""Stiffness/load assembly against hand-evaluated patterns."""

import dataclasses
import math

import numpy as np
import pytest

from frameopt.model import (
    DistributedLoad,
    Element,
    FrameAssembly,
    GroundStructure,
    MechanismError,
    ModelError,
    NodalForce,
    Node,
    SelfWeight,
    Support,
    require_valid,
    uniform_design,
    validate,
)
from frameopt.problems import build_benchmarks

from conftest import (
    element_patterns_oracle,
    jitter_nodes,
    make_cantilever,
    make_girder,
    make_grid,
    make_long_girder,
    make_ten_beam,
    rng,
    scramble_nodes,
)


def two_node_beam(x2=1.0, y2=0.0, c_i=1.0 / 12.0, e=1.0):
    nodes = [Node(1, 0.0, 0.0), Node(2, x2, y2)]
    elements = [Element(1, 1, 2, e, c_i)]
    supports = [Support(1, True, True, True)]
    return GroundStructure(nodes, elements, supports, [], 0.1)


def element_matrix(gs, a_i):
    """Global 6x6 stiffness of the first element at area a_i."""
    asm = FrameAssembly(gs)
    return a_i * asm.ka[0] + a_i**2 * asm.kb[0]


def full_stiffness(asm, a):
    """Brute-force full K(a), supported DOFs included, one entry at a time."""
    K = np.zeros((asm.n_dof, asm.n_dof))
    for e, dofs in enumerate(asm.dofs):
        for i in range(6):
            for j in range(6):
                K[dofs[i], dofs[j]] += asm.ka[e, i, j] * a[e] + asm.kb[e, i, j] * (a[e] * a[e])
    return K


def test_horizontal_element_matches_hand_entries():
    gs = two_node_beam()
    k = element_matrix(gs, 0.1)
    # E=1, l=1, a=0.1, I = 0.1^2/12 = 1/1200
    assert k[0, 0] == pytest.approx(0.1, rel=1e-14)
    assert k[1, 1] == pytest.approx(12.0 / 1200.0, rel=1e-14)
    assert k[2, 2] == pytest.approx(4.0 / 1200.0, rel=1e-14)
    assert k[1, 2] == pytest.approx(6.0 / 1200.0, rel=1e-14)
    assert k[2, 5] == pytest.approx(2.0 / 1200.0, rel=1e-14)
    assert np.allclose(k, k.T)


def test_zero_area_gives_zero_matrix():
    gs = two_node_beam()
    assert np.count_nonzero(element_matrix(gs, 0.0)) == 0
    assert np.count_nonzero(FrameAssembly(gs).stiffness(np.array([0.0]))) == 0


def test_rotated_element_equals_conjugated_local_matrix():
    a = 0.07
    horiz = element_matrix(two_node_beam(1.0, 0.0), a)
    vert = element_matrix(two_node_beam(0.0, 1.0), a)
    c, s = 0.0, 1.0
    r = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    big = np.zeros((6, 6))
    big[:3, :3] = r
    big[3:, 3:] = r
    assert np.allclose(vert, big.T @ horiz @ big, atol=1e-14)
    # Translational roles swap: global x of a vertical member bends, y stretches.
    assert vert[1, 1] == pytest.approx(horiz[0, 0])
    assert vert[0, 0] == pytest.approx(horiz[1, 1])


def test_non_finite_area_rejected():
    asm = FrameAssembly(two_node_beam())
    with pytest.raises(ModelError):
        asm.stiffness(np.array([float("nan")]))
    with pytest.raises(ModelError):
        asm.loads(np.array([float("inf")]))


def test_assembled_stiffness_symmetric_psd():
    gs = make_ten_beam()
    a = rng(0).uniform(0.01, 0.2, gs.n_elements)
    k = FrameAssembly(gs).stiffness(a)
    assert np.allclose(k, k.T, atol=1e-14)
    w = np.linalg.eigvalsh(k)
    assert w.min() >= -1e-10 * np.linalg.norm(k)


def test_stiffness_is_quadratic_in_areas():
    # Entries of K along any ray a0 + t*d must be exactly quadratic in t.
    gs = make_ten_beam()
    gen = rng(1)
    a0 = gen.uniform(0.01, 0.1, gs.n_elements)
    d = gen.uniform(0.0, 0.1, gs.n_elements)
    asm = FrameAssembly(gs)
    ks = [asm.stiffness(a0 + t * d) for t in (0.0, 1.0, 2.0, 3.0)]
    fit3 = ks[0] - 3.0 * ks[1] + 3.0 * ks[2]  # quadratic extrapolation to t=3
    scale = np.linalg.norm(ks[3])
    assert np.linalg.norm(ks[3] - fit3) <= 1e-12 * scale


def test_single_element_cantilever_block():
    # The clamped node drops out: the reduced K is the free end's block.
    gs = two_node_beam()
    k = FrameAssembly(gs).stiffness(np.array([0.1]))
    ke = element_matrix(gs, 0.1)
    assert np.array_equal(k, ke[3:, 3:])


@pytest.mark.parametrize("build", [lambda: make_cantilever(3), make_girder, make_ten_beam],
                         ids=["cantilever-3", "girder", "ten-beam"])
def test_reduced_stiffness_matches_brute_force_assembly(build):
    gs = build()
    asm = FrameAssembly(gs)
    gen = rng(4)
    for _ in range(10):
        a = gen.uniform(0.01, 0.2, gs.n_elements)
        a[gen.random(gs.n_elements) < 0.3] = 0.0
        K = full_stiffness(asm, a)
        assert np.all(asm.stiffness(a) == K[np.ix_(asm.free, asm.free)])
        assert asm.stiffness_trace(a) == np.trace(K)


@pytest.mark.parametrize("build, width", [
    (lambda: make_cantilever(2), 5), (lambda: make_cantilever(150), 5),
    (make_girder, 5), (lambda: make_long_girder(30, rng(5)), 5),
    (make_ten_beam, 11), (lambda: make_grid(5, 4, rng(6)), 20),
], ids=["cantilever-2", "cantilever-150", "girder", "girder-30", "ten-beam", "grid-85"])
def test_half_bandwidth_in_node_order(build, width):
    # A chain couples each node to its neighbours only: two nodes, six DOFs.
    assert FrameAssembly(build()).half_bandwidth == width


@pytest.mark.parametrize("build", [
    lambda: make_cantilever(1), lambda: make_cantilever(3), make_girder, make_ten_beam,
    lambda: make_grid(5, 4, rng(6)), lambda: scramble_nodes(make_cantilever(12), rng(7)),
], ids=["cantilever-1", "cantilever-3", "girder", "ten-beam", "grid-85", "scrambled"])
def test_stiffness_band_equals_dense_upper_triangle(build):
    # Against the brute-force K: ``asm.stiffness`` is mirrored out of the band.
    asm = FrameAssembly(build())
    u, n = asm.half_bandwidth, asm.free.size
    i, j = np.triu_indices(n)
    inside = j - i <= u
    d, col = np.indices((u + 1, n))
    gen = rng(9)
    for _ in range(10):
        a = gen.uniform(0.01, 0.2, asm.n_elements)
        a[gen.random(asm.n_elements) < 0.3] = 0.0
        K = full_stiffness(asm, a)[np.ix_(asm.free, asm.free)]
        band = asm.stiffness_band(a)
        assert band.shape == (u + 1, n) and band.flags.f_contiguous
        assert np.all(band[u + i[inside] - j[inside], j[inside]] == K[i[inside], j[inside]])
        assert not np.any(K[i[~inside], j[~inside]])
        assert not np.any(band[col - u + d < 0])     # the unused corner


def same_bits(x, y) -> bool:
    """Equal shapes and bytes: every entry equal, zeros' signs included."""
    if x is None or y is None:
        return x is y
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("build", [
    *(case.build for case in build_benchmarks()),
    lambda: make_grid(5, 4, rng(6)),
    lambda: make_girder("lumped", n_e=30), lambda: make_girder("consistent", n_e=30),
    lambda: scramble_nodes(make_cantilever(12), rng(7)),
], ids=[*(case.name for case in build_benchmarks()), "grid-85",
        "girder-30-lumped", "girder-30-consistent", "scrambled"])
def test_batched_patterns_equal_the_per_element_oracle(build):
    # On these members R' k R comes out exactly symmetric, so symmetrizing
    # changes nothing and the batched construction repeats the per-element
    # arithmetic bit for bit.
    asm = FrameAssembly(build())
    for new, old in zip((asm.ka, asm.kb, asm.f0, asm.f1), element_patterns_oracle(build())):
        assert same_bits(new, old)


def test_patterns_exactly_symmetric_at_general_angles():
    gs = jitter_nodes(make_grid(25, 20, rng(11)), rng(12))
    asm = FrameAssembly(gs)
    assert gs.n_elements >= 2000
    for new, old in zip((asm.ka, asm.kb), element_patterns_oracle(gs)):
        assert np.any(old != old.transpose(0, 2, 1))     # the per-element product is not
        assert np.array_equal(new, new.transpose(0, 2, 1))
        rel = np.linalg.norm(new - old, axis=(1, 2)) / np.linalg.norm(old, axis=(1, 2))
        assert np.max(rel) <= 2e-16


def test_nodal_loads_independent_of_areas():
    gs = make_cantilever(3)
    f1 = FrameAssembly(gs).loads(np.full(3, 0.01))
    f2 = FrameAssembly(gs).loads(np.full(3, 0.2))
    assert np.allclose(f1, f2)
    assert np.count_nonzero(f1) == 2  # fx, fy at the tip node


def test_consistent_load_pattern_horizontal():
    # l=2, q=1 downward: (0, -ql/2, -ql^2/12, 0, -ql/2, +ql^2/12)
    nodes = [Node(1, 0.0, 0.0), Node(2, 2.0, 0.0)]
    elements = [Element(1, 1, 2)]
    gs = GroundStructure(nodes, elements, [Support(1, True, True, True)],
                         [DistributedLoad((1,), 1.0)], 0.1)
    f = FrameAssembly(gs).loads(np.array([0.05]))
    assert np.allclose(f, [0.0, -1.0, -1.0 / 3.0, 0.0, -1.0, 1.0 / 3.0], atol=1e-15)


def test_consistent_load_pattern_vertical():
    # A vertical member under gravity load carries half at each node, no moments.
    nodes = [Node(1, 0.0, 0.0), Node(2, 0.0, 1.0)]
    elements = [Element(1, 1, 2)]
    gs = GroundStructure(nodes, elements, [Support(1, True, True, True)],
                         [DistributedLoad((1,), 1.0)], 0.1)
    f = FrameAssembly(gs).loads(np.array([0.05]))
    assert np.allclose(f, [0.0, -0.5, 0.0, 0.0, -0.5, 0.0], atol=1e-15)


def test_lumped_load_pattern_horizontal():
    # Lumped scheme drops the fixed-end moments, keeps the end forces.
    nodes = [Node(1, 0.0, 0.0), Node(2, 2.0, 0.0)]
    elements = [Element(1, 1, 2)]
    gs = GroundStructure(nodes, elements, [Support(1, True, True, True)],
                         [DistributedLoad((1,), 1.0, scheme="lumped")], 0.1)
    f = FrameAssembly(gs).loads(np.array([0.05]))
    assert np.allclose(f, [0.0, -1.0, 0.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_unknown_load_scheme_rejected():
    nodes = [Node(1, 0.0, 0.0), Node(2, 2.0, 0.0)]
    elements = [Element(1, 1, 2)]
    gs = GroundStructure(nodes, elements, [Support(1, True, True, True)],
                         [DistributedLoad((1,), 1.0, scheme="midpoint")], 0.1)
    with pytest.raises(ModelError, match="scheme"):
        FrameAssembly(gs).loads(np.array([0.05]))


def test_self_weight_affine_superposition():
    gs = make_girder()
    gen = rng(2)
    a1 = gen.uniform(0.0, 0.1, 5)
    a2 = gen.uniform(0.0, 0.1, 5)
    f0 = FrameAssembly(gs).loads(np.zeros(5))
    fa = FrameAssembly(gs).loads(a1)
    fb = FrameAssembly(gs).loads(a2)
    fab = FrameAssembly(gs).loads(a1 + a2)
    assert np.allclose(fab - f0, (fa - f0) + (fb - f0), atol=1e-14)
    # Doubling the design doubles only the self-weight part.
    f2 = FrameAssembly(gs).loads(2.0 * a1)
    assert np.allclose(f2 - f0, 2.0 * (fa - f0), atol=1e-14)


def test_self_weight_magnitude_on_uniform_girder():
    # rho*g*a = 3*1*0.02 = 0.06 per unit length; element length 2 gives
    # 0.06 at interior nodes from the two halves.
    gs = make_girder()
    f0 = FrameAssembly(gs).loads(np.zeros(5))
    f = FrameAssembly(gs).loads(np.full(5, 0.02))
    sw = f - f0
    assert sw[4] == pytest.approx(-0.12, rel=1e-12)  # node 2 carries l*q = 2*0.06
    assert sw[1] == pytest.approx(-0.06, rel=1e-12)  # end node carries l*q/2
    assert sw[2] == 0.0                              # lumped: no nodal moments
    gs_c = make_girder("consistent")
    sw_c = FrameAssembly(gs_c).loads(np.full(5, 0.02)) - FrameAssembly(gs_c).loads(np.zeros(5))
    assert np.allclose(sw_c[1::3], sw[1::3], atol=1e-15)  # same end forces
    assert sw_c[2] == pytest.approx(-0.06 * 4 / 12, rel=1e-12)  # q*l^2/12 at the pin


def test_derivatives_match_central_differences():
    # element_energies returns u' dK/da_i u and 2 u' df/da_i; check both
    # against central differences of u' K(a) u and f(a)' u.
    for gs in (make_cantilever(3), make_girder()):
        gen = rng(3)
        ne = gs.n_elements
        asm = FrameAssembly(gs)
        a = gen.uniform(0.02, 0.15, ne)
        u = np.zeros(gs.n_dof)
        u[asm.free] = gen.normal(size=asm.free.size)
        u_hat = u[asm.free]
        ek, ef = asm.element_energies(a, u)
        h = 1e-5
        for i in range(ne):
            e = np.zeros(ne)
            e[i] = h
            ek_fd = (u_hat @ asm.stiffness(a + e) @ u_hat
                     - u_hat @ asm.stiffness(a - e) @ u_hat) / (2 * h)
            ef_fd = 2.0 * (asm.loads(a + e) @ u - asm.loads(a - e) @ u) / (2 * h)
            assert ek_fd == pytest.approx(ek[i], rel=1e-6)
            assert ef_fd == pytest.approx(ef[i], abs=1e-9)


def test_derivative_at_zero_area_is_axial_only():
    gs = two_node_beam()
    asm = FrameAssembly(gs)
    # Unit displacements of the free end: axial, transverse, rotation.
    ek = [asm.element_energies(np.array([0.0]), np.eye(6)[j])[0][0] for j in (3, 4, 5)]
    # No bending contribution at zero area.
    assert ek[1] == 0.0 and ek[2] == 0.0
    assert ek[0] == pytest.approx(1.0)  # E/l


def test_load_derivative_zero_without_self_weight():
    gs = make_cantilever(3)
    u = rng(8).normal(size=gs.n_dof)
    _, ef = FrameAssembly(gs).element_energies(np.full(3, 0.1), u)
    assert np.count_nonzero(ef) == 0


def test_derivative_support_restricted_to_element_dofs():
    # Changing one area changes K only on that element's reduced DOFs.
    gs = make_ten_beam()
    asm = FrameAssembly(gs)
    a = np.full(10, 0.05)
    e = np.zeros(10)
    e[4] = 0.01
    dk = asm.stiffness(a + e) - asm.stiffness(a)
    rd = asm.reduced_dofs[4]
    mask = np.zeros(asm.free.size, dtype=bool)
    mask[rd[rd >= 0]] = True
    assert np.count_nonzero(dk) > 0
    assert np.count_nonzero(dk[np.ix_(~mask, ~mask)]) == 0
    assert np.count_nonzero(dk[np.ix_(mask, ~mask)]) == 0


def test_validate_accepts_benchmarks():
    for gs in (make_cantilever(1), make_cantilever(5), make_ten_beam(), make_girder()):
        report = validate(gs)
        assert report.ok, report.message()
        assert gs.assembly.free.size == report.n_free_dof


def test_structure_is_immutable_and_owns_one_assembly():
    gs = make_cantilever(2)
    assert isinstance(gs.nodes, tuple) and isinstance(gs.loads, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gs.volume_bound = 0.2
    asm = require_valid(gs)
    assert gs.assembly is asm and require_valid(gs) is asm
    # A replaced structure gets a fresh assembly and its own check.
    pinned = dataclasses.replace(gs, supports=[Support(1, ux=True, uy=True)])
    assert pinned.assembly is not asm
    assert pinned.assembly.free.size == asm.free.size + 1
    with pytest.raises(MechanismError):
        require_valid(pinned)
    assert require_valid(gs) is asm


def test_assembly_arrays_are_read_only():
    # Equal parsed documents share one structure and its assembly.
    asm = make_girder().assembly
    with pytest.raises(ValueError, match="read-only"):
        asm.ka[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        asm.f0 += 1.0
    with pytest.raises(TypeError):
        asm.node_index[99] = 0
    arrays = [v for v in vars(asm).values() if isinstance(v, np.ndarray)]
    assert asm.f1 is not None and any(v is asm.f1 for v in arrays)
    assert not any(array.flags.writeable for array in arrays)
    # Structures of one band shape share one row gather.
    other = make_girder(volume=0.3).assembly
    assert other.band_slots is asm.band_slots and other.band_cols is asm.band_cols
    # What the methods hand out stays the caller's to change.
    a = uniform_design(make_girder())
    for out in (asm.loads(a), asm.stiffness_band(a), asm.stiffness(a)):
        assert out.flags.writeable


def test_validate_rejects_unsupported_structure():
    # Free rotation and vertical motion at the only support.
    gs = dataclasses.replace(make_cantilever(2), supports=[Support(1, ux=True)])
    report = validate(gs)
    assert not report.ok
    assert report.mechanism
    assert "node" in report.message()


def test_validate_rejects_bad_references():
    base = make_cantilever(2)
    gs = dataclasses.replace(base, elements=[*base.elements, Element(99, 1, 42)])
    report = validate(gs)
    assert not report.ok and not report.mechanism

    gs2 = dataclasses.replace(base, nodes=[*base.nodes, Node(1, 5.0, 5.0)])
    assert not validate(gs2).ok


def test_validate_rejects_degenerate_elements():
    nodes = [Node(1, 0.0, 0.0), Node(2, 0.0, 0.0)]
    gs = GroundStructure(nodes, [Element(1, 1, 2)], [Support(1, True, True, True)], [], 0.1)
    assert not validate(gs).ok
    gs3 = GroundStructure(nodes[:1], [Element(1, 1, 1)], [Support(1, True, True, True)], [], 0.1)
    assert not validate(gs3).ok


def test_uniform_design_saturates_volume():
    gs = make_ten_beam()
    a = uniform_design(gs)
    asm = FrameAssembly(gs)
    assert asm.volume(a) == pytest.approx(0.5, rel=1e-12)
    # Grid geometry: six unit members and four diagonals.
    assert np.sum(asm.lengths) == pytest.approx(6.0 + 4.0 * math.sqrt(2.0), rel=1e-12)
