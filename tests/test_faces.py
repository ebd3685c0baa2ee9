"""Per-face readers of the boundary layout against per-facet oracles.

Each oracle walks ``mesh.facets`` one facet at a time, as the library did
before it read partitions one box face at a time; the per-face code must
reproduce it bit for bit.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap as fl
from fraclap.config import validate
from fraclap.fractional import _require_on_neumann_closure
from fraclap.mesh import _parse_face
from fraclap.spectral import _trapezoid_weights

from sparse_oracle import mass, stiffness

MESHES = [
    fl.build_tensor_mesh(1, [(0.0, 1.5)], [5]),
    fl.build_tensor_mesh(2, [(0.0, 1.0), (-0.5, 1.5)], [3, 5]),
    fl.build_tensor_mesh(3, [(0.0, 1.0), (-0.5, 1.5), (0.0, 2.0)], [2, 3, 4]),
]


def _partitions(mesh):
    """Face-list, predicate, moving-family and box-corner partitions of
    ``mesh``."""
    parts = [fl.partition_boundary(mesh, [(0, 0)]),
             fl.partition_boundary(mesh, [("x", "hi"), (mesh.dim - 1, 1)])]
    if mesh.dim == 1:
        parts.append(fl.partition_boundary(mesh, lambda f: f.side == 1))
    else:
        parts.append(fl.partition_boundary(
            mesh, lambda f: sum(f.index) % 3 == 0))
        total = mesh.boundary_measure
        parts += fl.moving_family(mesh, [0.6 * total, 0.3 * total])
        parts += fl.moving_family(mesh, [0.9 * (2 * mesh.facets[-1].measure)],
                                  faces=[(mesh.dim - 1, 1), ("x", 0)])
    # the far faces of [0, 1]^dim Dirichlet, those through the origin Neumann
    corner = fl.build_tensor_mesh(mesh.dim, [(0.0, 1.0)] * mesh.dim,
                                  [mesh.n[0] + 1] * mesh.dim)
    far = [(d, 1) for d in range(mesh.dim)]
    return parts + [fl.partition_boundary(corner, far)]


def _sequential(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _oracle_alpha(part):
    return _sequential(f.measure for f, d in zip(part.mesh.facets,
                                                 part.dirichlet) if d)


def _oracle_node_mask(part):
    mask = np.zeros(part.mesh.n_nodes, dtype=bool)
    for f, d in zip(part.mesh.facets, part.dirichlet):
        if d:
            mask[part.mesh.facet_nodes(f)] = True
    return mask


def _oracle_face_aligned(part):
    faces = {}
    for f, d in zip(part.mesh.facets, part.dirichlet):
        faces.setdefault((f.axis, f.side), set()).add(d)
    return all(len(labels) == 1 for labels in faces.values())


def _oracle_moving_family(mesh, alphas, faces=None):
    if faces is None:
        pool = list(range(len(mesh.facets)))
    else:
        pool = []
        for axis, side in faces:
            pool.extend(i for i, f in enumerate(mesh.facets)
                        if f.axis == axis and f.side == side)
    cum = np.cumsum(np.array([mesh.facets[i].measure for i in pool]))
    slack = 1e-12 * max(mesh.boundary_measure, 1.0)
    out = []
    for alpha in alphas:
        k = int(np.searchsorted(cum, alpha + slack, side="right"))
        chosen = set(pool[:k])
        out.append(tuple(i in chosen for i in range(len(mesh.facets))))
    return out


def _oracle_neumann_closure(mesh, part, x0):
    # None when x0 is accepted, else the reason it is refused
    tol = 1e-9 * max(b - a for a, b in mesh.extents)
    hit_any = hit_neumann = False
    for f, is_d in zip(mesh.facets, part.dirichlet):
        widths = [0.0 if d == f.axis else mesh.spacing[d]
                  for d in range(mesh.dim)]
        lo = np.array([c - 0.5 * w for c, w in zip(f.centroid, widths)])
        hi = np.array([c + 0.5 * w for c, w in zip(f.centroid, widths)])
        if np.all(x0 >= lo - tol) and np.all(x0 <= hi + tol):
            hit_any = True
            hit_neumann |= not is_d
    if not hit_any:
        return "not on the boundary"
    return None if hit_neumann else "does not touch the Neumann part"


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.dim}d")
def test_partition_readers_match_per_facet_oracles(mesh):
    assert mesh.boundary_measure == _sequential(f.measure for f in mesh.facets)
    for part in _partitions(mesh):
        assert part.alpha == _oracle_alpha(part)
        mask = _oracle_node_mask(part)
        assert np.array_equal(part.dirichlet_node_mask, mask)
        assert np.array_equal(part.free_nodes, np.flatnonzero(~mask))
        ops = fl.assemble_operators(part.mesh, part)
        assert (ops.tensor is not None) == _oracle_face_aligned(part)


def _line_matrices(n: int, h: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1-D P1 stiffness and consistent mass on n uniform cells."""
    e = np.ones(n + 1)
    a_main = 2.0 * e
    a_main[0] = a_main[-1] = 1.0
    a = sp.diags([-e[:-1], a_main, -e[:-1]], [-1, 0, 1]) / h
    m_main = 4.0 * e
    m_main[0] = m_main[-1] = 2.0
    m = sp.diags([e[:-1], m_main, e[:-1]], [-1, 0, 1]) * (h / 6.0)
    return a.tocsr(), m.tocsr()


def _oracle_full_kronecker_then_slice(part):
    # the full-mesh Kronecker build, sliced to the free nodes afterwards
    mesh = part.mesh
    lines = [_line_matrices(nd, hd) for nd, hd in zip(mesh.n, mesh.spacing)]

    def kron_all(mats):
        out = mats[0]
        for m in mats[1:]:
            out = sp.kron(out, m, format="csr")
        return out

    M_full = kron_all([m for _, m in lines])
    A_full = sp.csr_matrix(M_full.shape)
    for d in range(mesh.dim):
        A_full = A_full + kron_all([lines[k][0] if k == d else lines[k][1]
                                    for k in range(mesh.dim)])
    free = part.free_nodes
    return (A_full[free][:, free].tocsr(), M_full[free][:, free].tocsr(),
            _trapezoid_weights(mesh)[free])


def _assert_matches_oracle(ops, A, M):
    # the CSR builder of sparse_oracle equals the full-mesh slice entry for
    # entry, and the library's per-axis products with the identity equal it
    # bit for bit, exact zeros included
    eye = np.eye(ops.n_free)
    for op, built, want in ((ops.A, stiffness(ops), A),
                            (ops.M, mass(ops), M)):
        assert built.format == "csr" and built.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(built, attr),
                                          getattr(want, attr))
        np.testing.assert_array_equal(op @ eye, want.toarray())


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.dim}d")
def test_relaxed_assembly_matches_full_kronecker_slice(mesh):
    for part in _partitions(mesh):
        ops = fl.assemble_operators(part.mesh, part)
        A, M, lumped = _oracle_full_kronecker_then_slice(part)
        _assert_matches_oracle(ops, A, M)
        np.testing.assert_array_equal(ops.lumped, lumped)


@st.composite
def _random_partitions(draw):
    # a box of 2 to 7 cells per axis (the fewest a mesh takes) with
    # anisotropic extents, or the same extent and cells on every axis, where
    # the Kronecker sum cancels exactly at the 3-D face neighbours; Dirichlet
    # labels whole faces or facet by facet, with both parts nonempty
    dim = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(2, 7), min_size=dim, max_size=dim))
    lows = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        n, lows, lengths = [n[0]] * dim, [lows[0]] * dim, [lengths[0]] * dim
    mesh = fl.build_tensor_mesh(
        dim, [(lo, lo + ln) for lo, ln in zip(lows, lengths)], n)
    whole_faces = draw(st.booleans())
    units = ([(axis, side) for axis in range(dim) for side in (0, 1)]
             if whole_faces else mesh.facets)
    labels = draw(st.lists(st.booleans(), min_size=len(units),
                           max_size=len(units)))
    labels[0] = labels[0] or not any(labels)
    labels[-1] = labels[-1] and not all(labels)
    if whole_faces:
        return fl.partition_boundary(
            mesh, [face for face, on in zip(units, labels) if on])
    index = {(f.axis, f.side, f.index): i for i, f in enumerate(units)}
    return fl.partition_boundary(
        mesh, lambda f: labels[index[f.axis, f.side, f.index]])


@settings(max_examples=80, deadline=None)
@given(part=_random_partitions())
def test_assembly_matches_sparse_kronecker_oracle(part):
    ops = fl.assemble_operators(part.mesh, part)
    A, M, lumped = _oracle_full_kronecker_then_slice(part)
    _assert_matches_oracle(ops, A, M)
    for got in (stiffness(ops), mass(ops)):
        assert got.has_canonical_format
        assert np.all(got.data != 0)
    np.testing.assert_array_equal(ops.lumped, lumped)


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.dim}d")
def test_face_lists_and_moving_family_match_per_facet_oracles(mesh):
    faces = [(0, 1), (mesh.dim - 1, 1)]
    part = fl.partition_boundary(mesh, faces)
    assert part.dirichlet == tuple((f.axis, f.side) in set(faces)
                                   for f in mesh.facets)
    if mesh.dim == 1:
        return
    for order in (None, [(1, 0), (0, 1), (1, 1)]):
        # fractions of the measure the fill can reach: the whole boundary,
        # or the given faces
        reach = sum(f.measure for f in mesh.facets
                    if order is None or (f.axis, f.side) in order)
        alphas = [0.7 * reach, 0.45 * reach, 0.2 * reach]
        fam = fl.moving_family(mesh, alphas, faces=order)
        want = _oracle_moving_family(mesh, alphas, order)
        assert [p.dirichlet for p in fam] == want
        assert [p.alpha for p in fam] == [
            _oracle_alpha(fl.BoundaryPartition(mesh, labels))
            for labels in want]
    # an alpha above the given faces' measure is refused, not snapped down
    with pytest.raises(ValueError, match="exceeds the measure"):
        fl.moving_family(mesh, [0.7 * mesh.boundary_measure], faces=order)


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"{m.dim}d")
def test_neumann_closure_matches_per_facet_oracle(mesh):
    # facet corners and an interior node per axis, each shifted by
    # multiples of the tolerance to either side
    rng = np.random.default_rng(0)
    for part in _partitions(mesh):
        m = part.mesh
        tol = 1e-9 * max(b - a for a, b in m.extents)
        offsets = np.array([-1.5, -0.5, 0.0, 0.5, 1.5]) * tol
        points = np.stack([
            rng.choice(np.add.outer(m.axis_coords(d)[[0, 1, -1]],
                                    offsets).ravel(), 100)
            for d in range(m.dim)], axis=1)
        for x0 in points:
            want = _oracle_neumann_closure(m, part, x0)
            if want is None:
                _require_on_neumann_closure(m, part, x0)
            else:
                with pytest.raises(ValueError, match=want):
                    _require_on_neumann_closure(m, part, x0)


def test_face_specs_rejected_by_name():
    mesh = MESHES[1]
    with pytest.raises(ValueError, match=r"face \(5, 0\)"):
        fl.moving_family(mesh, [0.5], faces=[(5, 0)])
    for face in [("xy", 0), (True, 0), (0.0, 0), (0, "mid"), (0, 0, 1)]:
        with pytest.raises(ValueError, match="face"):
            fl.partition_boundary(mesh, [face])
    assert _parse_face(("Y", "HIGH"), 2) == (1, 1)
    assert _parse_face([np.int64(1), 0], 2) == (1, 0)


def _parent_face_on_mesh(face, dim):
    # the config's own face check before the library's parser served it
    if not (isinstance(face, list) and len(face) == 2):
        return False
    axis, side = face
    if isinstance(axis, str):
        axis = "xyz".find(axis.lower()) if len(axis) == 1 else -1
    if isinstance(side, str):
        side = {"lo": 0, "hi": 1, "low": 0, "high": 1}.get(side.lower(), -1)
    return (_is_int(axis) and 0 <= axis < dim
            and _is_int(side) and side in (0, 1))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


_JSON_LEAF = st.one_of(
    st.integers(-2, 4), st.booleans(), st.none(),
    st.floats(-1.0, 3.0, allow_nan=False),
    st.sampled_from(["x", "Y", "z", "w", "xy", "", "lo", "HI", "low",
                     "High", "mid", "0"]))
_JSON_FACE = st.one_of(_JSON_LEAF, st.lists(_JSON_LEAF, max_size=3),
                       st.dictionaries(st.sampled_from(["x", "lo"]),
                                       _JSON_LEAF, max_size=2))


@settings(max_examples=300, deadline=None)
@given(face=_JSON_FACE, dim=st.integers(1, 3))
def test_config_accepts_the_same_faces(face, dim):
    cfg = {"domain": {"kind": "box", "n": [4] * dim},
           "partition": {"dirichlet_faces": [face]}}
    try:
        validate(cfg)
        accepted = True
    except fl.ConfigError:
        accepted = False
    assert accepted == _parent_face_on_mesh(face, dim)
