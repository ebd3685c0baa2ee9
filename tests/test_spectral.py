"""Operator assembly and the generalized eigensolve against closed forms."""
import functools
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraclap as fl
from fraclap.spectral import (
    TensorEigs,
    _column_signs,
    _constrained_eigh,
    _sign_normalize,
    eigendecompose,
)

from sparse_oracle import mass, stiffness

# interval (0,1), Dirichlet at 0, Neumann at 1: lambda_k = ((k-1/2) pi)^2
INTERVAL_EIGS = [((k - 0.5) * math.pi) ** 2 for k in range(1, 6)]


def test_interval_eigenvalues_match_closed_form(interval_basis):
    # P1 eigenvalue error grows like (lambda_k h)^2; 5e-3 covers mode 5
    # at n=128 with slack
    got = interval_basis.lams[:5]
    np.testing.assert_allclose(got, INTERVAL_EIGS, rtol=5e-3)


def test_discrete_spectrum_bounds_continuum_from_above():
    # conforming Galerkin: each discrete eigenvalue sits above the exact one
    # and tightens under refinement
    prev = None
    for n in (32, 64, 128):
        mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [n])
        part = fl.partition_boundary(mesh, [(0, 0)])
        basis = eigendecompose(fl.assemble_operators(mesh, part), m=3)
        assert np.all(basis.lams[:3] >= np.array(INTERVAL_EIGS[:3]) * (1 - 1e-12))
        if prev is not None:
            assert np.all(basis.lams[:3] <= prev * (1 + 1e-12))
        prev = basis.lams[:3]


def test_square_mixed_spectrum_separates():
    # Dirichlet on both x-faces, Neumann on both y-faces:
    # lambda = (k pi)^2 + (m pi)^2, k >= 1, m >= 0
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [32, 32])
    part = fl.partition_boundary(mesh, [(0, 0), (0, 1)])
    basis = eigendecompose(fl.assemble_operators(mesh, part), m=4)
    pi2 = math.pi**2
    exact = sorted([pi2 * (k**2 + m**2) for k in (1, 2) for m in (0, 1, 2)])[:4]
    np.testing.assert_allclose(basis.lams[:4], exact, rtol=1e-2)


def test_eigenvectors_m_orthonormal(interval_basis):
    V, M = interval_basis.vecs, interval_basis.ops.M
    gram = V.T @ (M @ V)
    np.testing.assert_allclose(gram, np.eye(V.shape[1]), atol=1e-10)


def test_rayleigh_quotient_consistency(interval_basis):
    V, A = interval_basis.vecs, interval_basis.ops.A
    for k in range(5):
        v = V[:, k]
        np.testing.assert_allclose(
            v @ (A @ v), interval_basis.lams[k], rtol=1e-10)


def test_sign_convention(interval_basis):
    for k in range(5):
        v = interval_basis.vecs[:, k]
        assert v[np.argmax(np.abs(v))] > 0


def test_eigenfunction_one_based(interval_basis):
    phi1 = interval_basis.eigenfunction(1)
    free = interval_basis.ops.free
    np.testing.assert_array_equal(phi1[free], interval_basis.vecs[:, 0])
    assert phi1[0] == 0.0  # Dirichlet end
    with pytest.raises(IndexError):
        interval_basis.eigenfunction(0)
    with pytest.raises(IndexError):
        interval_basis.eigenfunction(interval_basis.vecs.shape[1] + 1)


def test_first_eigenpair_positive(interval_ops):
    basis = eigendecompose(interval_ops, m=1)
    lam1, phi1 = float(basis.lams[0]), basis.eigenfunction(1)
    assert lam1 == pytest.approx(INTERVAL_EIGS[0], rel=1e-3)
    interior = interval_ops.mesh.interior_node_mask
    assert np.all(phi1[interior] > 0)


def test_eigendecompose_deterministic(square_ops):
    a = eigendecompose(square_ops, m=6)
    b = eigendecompose(square_ops, m=6)
    np.testing.assert_array_equal(a.lams, b.lams)
    np.testing.assert_array_equal(a.vecs, b.vecs)


def test_truncated_vs_complete_agree(square_ops, square_basis):
    sub = eigendecompose(square_ops, m=4)
    np.testing.assert_allclose(sub.lams, square_basis.lams[:4], rtol=1e-11)
    assert not sub.complete
    assert square_basis.complete


@pytest.mark.parametrize("dim, n, faces", [
    (1, [32], [(0, 0)]),
    (2, [12, 12], [(0, 0), (0, 1)]),
    (3, [6, 6, 6], [(0, 0)]),
])
def test_tensor_path_matches_dense_oracle(dim, n, faces):
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, n)
    ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, faces))
    assert ops.tensor is not None
    basis = eigendecompose(ops, m="all")
    lams, U = scipy.linalg.eigh(stiffness(ops).toarray(),
                                mass(ops).toarray())
    np.testing.assert_allclose(basis.lams, lams, rtol=1e-10)
    # exactly degenerate clusters (y <-> z on the cube) admit any rotation,
    # so compare the M-orthogonal projector V V^T M of each cluster; outside
    # them projector round-off scales like 1/relative gap, and the smallest
    # gap here (3e-5, cube) leaves 1e-8 two orders above it
    breaks = np.flatnonzero(np.diff(lams) > 1e-8 * lams[1:]) + 1
    for cluster in np.split(np.arange(len(lams)), breaks):
        V, W = basis.vecs[:, cluster], U[:, cluster]
        np.testing.assert_allclose(V @ V.T, W @ W.T, rtol=0, atol=1e-8)


def test_iterative_path_matches_dense():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [24, 24])
    # partial-facet: face-aligned partitions take the tensor path instead
    part = fl.moving_family(mesh, [0.5])[0]
    ops = fl.assemble_operators(mesh, part)
    assert ops.tensor is None
    dense_lams, dense_vecs = _constrained_eigh(ops.kernel, 3)
    dense_vecs = ops.synthesize(dense_vecs)
    sparse = eigendecompose(ops, m=3)  # three modes run shift-invert
    np.testing.assert_allclose(sparse.lams, dense_lams, rtol=1e-9)
    for k in range(3):
        dot = sparse.vecs[:, k] @ (ops.M @ dense_vecs[:, k])
        assert abs(abs(dot) - 1.0) < 1e-8


def _solver_calls(monkeypatch):
    # records which partial-facet solver each eigendecompose call runs
    calls = []
    for name in ("_lanczos", "_constrained_eigh"):
        def spy(*args, _name=name, _real=getattr(fl.spectral, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(fl.spectral, name, spy)
    return calls


@pytest.mark.parametrize("cells", [8, 24])
def test_partial_facet_solver_follows_the_mode_count(cells, monkeypatch):
    # Lanczos for at most 32 modes (and fewer than n), the dense solve for
    # any other request, whatever the size of the mesh
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [cells, cells])
    ops = fl.assemble_operators(mesh, fl.moving_family(mesh, [0.5])[0])
    assert ops.tensor is None and ops.n_free > 33
    calls = _solver_calls(monkeypatch)
    for m, solver in ((1, "_lanczos"), (8, "_lanczos"), (32, "_lanczos"),
                      (33, "_constrained_eigh"), ("all", "_constrained_eigh")):
        calls.clear()
        assert eigendecompose(ops, m=m).m == (ops.n_free if m == "all" else m)
        assert calls == [solver], (m, calls)


def test_partial_facet_solver_needs_fewer_modes_than_nodes(monkeypatch):
    part = _mixed_partition((4, 3), {(0, 0): [True, False, False]})
    ops = fl.assemble_operators(part.mesh, part)
    n = ops.n_free
    assert ops.tensor is None and n <= 32
    calls = _solver_calls(monkeypatch)
    eigendecompose(ops, m=n - 1)
    eigendecompose(ops, m=n)
    assert calls == ["_lanczos", "_constrained_eigh"]


def _mixed_partition(n, labels_by_face):
    # labels_by_face maps (axis, side) to a label list; other faces Neumann
    mesh = fl.build_tensor_mesh(len(n), [(0.0, 1.0)] * len(n), n)
    labels = np.zeros(len(mesh.facets), dtype=bool)
    for axis, side, facets, _, _ in mesh.faces():
        labels[facets] = labels_by_face.get((axis, side), False)
    return fl.BoundaryPartition(mesh, tuple(labels.tolist()))


@st.composite
def _facet_labelings(draw):
    # each face wholly Dirichlet, wholly Neumann or labelled facet by facet,
    # so wholly Dirichlet faces often meet partly Dirichlet ones
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.lists(st.integers(3, 8 if dim == 2 else 5),
                      min_size=dim, max_size=dim))
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, n)
    labels = []
    for _, _, facets, _, _ in mesh.faces():
        count = facets.stop - facets.start
        kind = draw(st.sampled_from(["D", "N", "mixed"]))
        labels += (draw(st.lists(st.booleans(), min_size=count,
                                 max_size=count))
                   if kind == "mixed" else [kind == "D"] * count)
    assume(any(labels) and not all(labels))
    return fl.BoundaryPartition(mesh, tuple(labels))


@settings(max_examples=40, deadline=None)
@given(_facet_labelings())
# x = 0 wholly Dirichlet next to a partly Dirichlet y = 0
@example(_mixed_partition((6, 5), {(0, 0): True,
                                   (1, 0): [True, True, False, False, True,
                                            False]}))
# only part of x = 0 is Dirichlet, so the relaxation is all Neumann
@example(_mixed_partition((7, 4), {(0, 0): [False, True, True, False]}))
@example(_mixed_partition((4, 3, 5), {(2, 1): [True] * 5 + [False] * 7}))
# five faces wholly Dirichlet and one facet of the sixth: Lanczos vectors
# not kept in null(B) lose M-orthonormality here
@example(_mixed_partition((3, 3, 3), {
    **{(axis, side): True for axis in range(3) for side in (0, 1)},
    (2, 1): [False] * 8 + [True]}))
def test_constrained_path_matches_dense_oracle(part):
    ops = fl.assemble_operators(part.mesh, part)
    M = mass(ops).toarray()
    lams, U = scipy.linalg.eigh(stiffness(ops).toarray(), M)
    # clusters split where the gap exceeds 1e-6 of the largest eigenvalue.
    # Each cluster is compared by its M-orthogonal projector V V^T M, of
    # M-norm 1: round-off moves it by about eps * lams[-1] / gap in that
    # norm, so by at most sqrt(cond M) times that in any entry.  Per axis
    # the Q1 mass sums element masses with eigenvalues h/6 and h/2, two per
    # node, so its spectrum lies in [h/6, h]; M restricts their Kronecker
    # product to the free nodes, so cond M <= 6^N and an entry moves by at
    # most sqrt(216) * 2.2e-16 * 1e6, about 3e-9.  (V V^T alone has entries
    # of size 1/h^N, so no such bound holds for it.)
    breaks = np.flatnonzero(np.diff(lams) > 1e-6 * lams[-1]) + 1
    for m in ("all", 3):
        basis = eigendecompose(ops, m=m)
        V = basis.vecs
        np.testing.assert_allclose(basis.lams, lams[:basis.m], rtol=1e-10)
        np.testing.assert_allclose(V.T @ (ops.M @ V), np.eye(basis.m),
                                   rtol=0, atol=1e-12)
        assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(basis.m)]
                      >= 0)
        for cluster in np.split(np.arange(len(lams)), breaks):
            if cluster[-1] >= basis.m:
                break  # a cluster the truncation cuts has no projector
            Vc, Wc = V[:, cluster], U[:, cluster]
            np.testing.assert_allclose(Vc @ (Vc.T @ M), Wc @ (Wc.T @ M),
                                       rtol=0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(_facet_labelings(), st.integers(0, 2**32 - 1))
@example(_mixed_partition((7, 4), {(0, 0): [False, True, True, False]}), 0)
@example(_mixed_partition((5, 4, 3), {(1, 1): True}), 1)
def test_coordinates_match_sparse_products(part, seed):
    # the per-axis M-coordinates c = U u~ against the CSR products, with
    # R's eigenvectors V multiplied out: V^T M u = c, |u|_M^2 = |c|^2 and
    # V^T A u = Lambda c, each projected onto null(B) (V's rows at D) on a
    # partial-facet partition, whose M and A are R's at its free nodes
    ops = fl.assemble_operators(part.mesh, part)
    relaxed = ops.relaxed
    V = functools.reduce(np.kron, relaxed.vecs)
    pos = (np.arange(len(V)) if ops.kernel is None else ops.kernel.pos)
    cut = np.setdiff1d(np.arange(len(V)), pos)
    B = V[cut]
    proj = np.eye(len(V)) - B.T @ np.linalg.solve(B @ B.T, B)
    u = np.random.default_rng(seed).standard_normal((ops.n_free, 3))
    c = ops.coordinates(u)
    assert c.shape == (len(V), 3)
    assert _rel(c, proj @ (V[pos].T @ (ops.M @ u))) <= 1e-13
    assert _rel(ops.stiffness(c), proj @ (V[pos].T @ (ops.A @ u))) <= 1e-13
    norms = np.einsum("ij,ij->j", u, ops.M @ u)
    assert _rel(np.einsum("ij,ij->j", c, c), norms) <= 1e-13
    assert _rel(ops.coordinates(u[:, 0]), c[:, 0]) <= 1e-13


def test_partial_facet_solve_takes_no_mass_matrix(monkeypatch):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    ops = fl.assemble_operators(mesh, fl.moving_family(mesh, [0.75])[0])
    assert ops.tensor is None
    calls = []
    eigh = scipy.linalg.eigh

    def spy(a, b=None, *args, **kwargs):
        calls.append((np.shape(a), None if b is None else np.shape(b)))
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    basis = eigendecompose(ops, m="all")
    n = ops.n_free
    assert basis.complete and basis.m == n
    # one standard eigensolve of the reduced matrix, no generalized one
    assert ((n, n), None) in calls
    assert all(b is None or n not in b for _, b in calls)


def test_large_and_complete_requests_are_served():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [24, 24])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    # both backends serve complete and many-mode bases; no size cap exists
    complete = eigendecompose(ops, m="all")
    assert complete.complete and complete.m == 600
    assert eigendecompose(ops, m=100).m == 100
    partial = fl.assemble_operators(mesh, fl.moving_family(mesh, [0.5])[0])
    many = eigendecompose(partial, m=33)
    assert many.m == 33 and not many.complete
    whole = eigendecompose(partial, m="all")
    assert whole.complete and whole.m == partial.n_free
    np.testing.assert_allclose(whole.lams[:33], many.lams, rtol=1e-10)
    # a bool or a non-integral count is refused, not truncated by int()
    for m in ("some", 0, True, False, 2.7, 3.0, None):
        for pair in (ops, partial):
            with pytest.raises(ValueError):
                eigendecompose(pair, m=m)


def test_assembly_cached_identity(square_ops):
    mesh, part = square_ops.mesh, square_ops.partition
    again = fl.assemble_operators(mesh, part)
    assert again is square_ops  # cache hit, not a rebuild


def test_assembly_kept_after_many_other_partitions(square_ops):
    # the pair belongs to its partition, so no other partition evicts it
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [4, 4])
    for k in range(1, 71):
        labels = tuple(bool(k >> i & 1) for i in range(16))
        fl.assemble_operators(mesh, fl.BoundaryPartition(mesh, labels))
    again = fl.assemble_operators(square_ops.mesh, square_ops.partition)
    assert again is square_ops


def _half_or_aligned(mesh, alpha):
    return (fl.partition_boundary(mesh, [(0, 0)]) if alpha is None
            else fl.moving_family(mesh, [alpha])[0])


@pytest.mark.parametrize("alpha", [None, 0.5], ids=["aligned", "half"])
def test_reference_matrices_are_built_one_at_a_time(alpha):
    # A and M are made on first read, each without the other, and each
    # keeps only R's dense 1-D lines, N masses for M and N stiffnesses
    # besides for A: a check that reads only M never holds A's lines, and
    # neither holds an n_free x n_free matrix
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 5])
    for first, other in (("M", "A"), ("A", "M")):
        ops = fl.assemble_operators(mesh, _half_or_aligned(mesh, alpha))
        assert "A" not in ops.__dict__ and "M" not in ops.__dict__
        got = getattr(ops, first)
        assert getattr(ops, first) is got
        assert other not in ops.__dict__
        # the eigenpairs and the kernel are the pair's own, not copies
        assert got._relaxed is ops.relaxed and got._kernel is ops.kernel
        held = {id(a): a for term in got._terms for a in term}
        assert len(held) == {"M": 2, "A": 4}[first]
        line = max(m.size for _, m in ops._lines())
        assert max(a.size for a in held.values()) <= line
        assert not any(isinstance(v, np.ndarray) for v in vars(got).values())


@pytest.mark.parametrize("alpha", [None, 0.5], ids=["aligned", "half"])
def test_reference_products_check_their_operand(alpha):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 5])
    ops = fl.assemble_operators(mesh, _half_or_aligned(mesh, alpha))
    n, n_R = ops.n_free, len(ops.relaxed.values)
    assert (n < n_R) == (alpha is not None)
    x = np.random.default_rng(5).standard_normal((n, 2))
    for op in (ops.A, ops.M):
        assert op.shape == (n, n)
        assert (op @ x[:, 0]).shape == (n,)
        assert (op @ x).shape == (n, 2)
        bad = [(n + 1,), (n - 1, 2), (n, 2, 1), ()]
        if n_R != n:
            bad += [(n_R,), (n_R, 2)]  # R's grid, not the partition's
        for shape in bad:
            with pytest.raises(ValueError, match="n_free"):
                op @ np.ones(shape)


def test_operator_pairs_compare_by_identity():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [4, 4])
    one, two = (fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))
                for _ in range(2))
    assert one is not two
    assert one != two and one == one
    keyed = {one: 1, two: 2}
    assert keyed[one] == 1 and keyed[two] == 2


def test_dropped_partition_frees_its_operators():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [5, 7])
    part = fl.partition_boundary(mesh, [(1, 0)])
    pair = weakref.ref(fl.assemble_operators(mesh, part))
    assert pair() is not None
    del part
    gc.collect()
    assert pair() is None


def test_operator_symmetry_and_definiteness(square_ops):
    A, M = square_ops.A, square_ops.M
    eye = np.eye(square_ops.n_free)
    assert abs(A @ eye - (A @ eye).T).max() == 0.0
    assert abs(M @ eye - (M @ eye).T).max() == 0.0
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = rng.standard_normal(square_ops.n_free)
        assert v @ (M @ v) > 0
        assert v @ (A @ v) > 0  # Dirichlet part removes the constant kernel


def test_lumped_mass_row_sums(square_ops):
    # lumped weights are full-mesh consistent-mass row sums at free nodes
    vol = square_ops.mesh.volume
    assert square_ops.lumped.sum() < vol
    assert np.all(square_ops.lumped > 0)


@pytest.fixture(scope="module")
def cube_ops():
    # 6^3 cube, one Dirichlet face: face-aligned, 294 free nodes
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [6, 6, 6])
    return fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))


TENSOR_BASES = [("interval_ops", "all"), ("square_ops", "all"),
                ("square_ops", 6), ("cube_ops", "all")]
# partial facets: six modes by Lanczos, all of them by the dense solve
BASES = TENSOR_BASES + [("square_half_ops", 6), ("square_half_ops", "all")]


@pytest.fixture(scope="module")
def square_half_ops():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [12, 12])
    ops = fl.assemble_operators(mesh, fl.moving_family(mesh, [0.5])[0])
    assert ops.tensor is None
    return ops


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("ops_name, m", BASES)
def test_basis_maps_match_dense_vecs(request, ops_name, m):
    ops = request.getfixturevalue(ops_name)
    assert (ops.tensor is not None) == ((ops_name, m) in TENSOR_BASES)
    basis = eigendecompose(ops, m=m)
    V = basis.vecs
    rng = np.random.default_rng(3)
    c = rng.standard_normal((basis.m, 3))
    f = rng.standard_normal((ops.n_free, 3))
    for cols in (slice(0, 1), slice(None)):
        cc, ff = c[:, cols].squeeze(), f[:, cols].squeeze()
        assert basis.synthesize(cc).shape == (V @ cc).shape
        assert _rel(basis.synthesize(cc), V @ cc) < 1e-12
        assert _rel(basis.dual(ff), V.T @ ff) < 1e-12
        assert _rel(basis.coefficients(ff), V.T @ (ops.M @ ff)) < 1e-12


@pytest.mark.parametrize("ops_name, m", TENSOR_BASES)
def test_tensor_signs_match_sign_normalize(request, ops_name, m):
    ops = request.getfixturevalue(ops_name)
    basis = eigendecompose(ops, m=m)
    # the Kronecker columns multiplied out independently of the basis
    tensor = ops.tensor
    unsigned = functools.reduce(np.kron, tensor.vecs)[:, tensor.order(basis.m)]
    np.testing.assert_array_equal(basis.vecs, _sign_normalize(unsigned))
    for k in (1, basis.m):
        np.testing.assert_array_equal(
            basis.eigenfunction(k)[ops.free], basis.vecs[:, k - 1])


def test_four_modes_of_a_complete_basis_are_a_truncated_basis(
        square_ops, square_basis, params2):
    # completeness follows from the mode count, so a basis of four modes
    # of a complete one keeps TruncatedBasisError's guard on the tail
    sub = fl.SpectralBasis(
        lams=square_basis.lams[:4], ops=square_ops,
        coords=square_ops.coordinates(square_basis.vecs[:, :4]))
    assert not sub.complete
    u = fl.Field.from_free(square_ops, square_basis.vecs[:, 5])
    with pytest.raises(fl.TruncatedBasisError):
        fl.frac_apply(sub, params2, u)


def test_complete_partial_facet_basis_holds_only_its_coordinates():
    # one n_R x n coordinate array, the solver's own, and no nodal copy:
    # neither the eigendecompose nor the maps after it keep another
    import tracemalloc

    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [16, 16])
    ops = fl.assemble_operators(mesh, fl.moving_family(mesh, [0.5])[0])
    n_r, n = len(ops.relaxed.values), ops.n_free
    assert ops.tensor is None and n < n_r
    params = fl.FracParams(s=0.75, N=2)
    u = fl.Field.from_free(ops, np.random.default_rng(6).standard_normal(n))
    eigendecompose(ops, "all")  # imports and the pair's own caches
    gc.collect()
    tracemalloc.start()
    try:
        basis = eigendecompose(ops, "all")
        basis.coefficients(u.free_values(ops))
        fl.frac_apply(basis, params, u)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.complete
    assert held <= 1.1 * n_r * n * 8, held / (n_r * n * 8)


def test_complete_tensor_basis_minimizes_without_vecs(params2, monkeypatch):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [24, 24])
    ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))

    def refuse(self):
        raise AssertionError("dense eigenvectors were requested")

    monkeypatch.setattr(fl.SpectralBasis, "vecs", property(refuse))
    basis = eigendecompose(ops, m="all")
    assert basis.complete and basis.m == ops.n_free
    lam = 0.5 * float(basis.lams[0] ** params2.s)
    rep = fl.minimize_quotient(basis, params2, lam)
    assert rep.converged and rep.el_residual < 1e-6


def _naive_signs(tensor, flat):
    # product of the per-axis signs at each axis's first largest entry
    out = np.ones(len(flat))
    for V, i in zip(tensor.vecs, np.unravel_index(flat, tensor.shape)):
        out *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])])[i]
    return out


# (dim, cells, Dirichlet faces); the 1-d interval has no ties to break
SIGN_PARTITIONS = [
    (3, 12, [(0, 0)]),
    (2, 40, [(0, 0)]),
    (2, 40, [(0, 0), (0, 1)]),
    (1, 256, [(0, 0)]),
    (3, 10, [(0, 0), (1, 0)]),
    (2, 64, [(0, 0), (0, 1)]),
]


@pytest.mark.parametrize("dim, n, faces", SIGN_PARTITIONS)
def test_sign_rule_matches_multiplied_out_columns(dim, n, faces):
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, [n] * dim)
    tensor = fl.assemble_operators(
        mesh, fl.partition_boundary(mesh, faces)).tensor
    flat = tensor.order(len(tensor.values))
    want = _column_signs(functools.reduce(np.kron, tensor.vecs)[:, flat])
    np.testing.assert_array_equal(tensor.signs(flat), want)


def test_sign_partitions_exercise_round_off_ties():
    # in 2-d and in 3-d some partition of SIGN_PARTITIONS has round-off
    # ties that the naive rule gets wrong, so the tie handling stays
    # exercised; which ones depends on the trailing digits of the 1-d
    # eigenvectors
    wrong = set()
    for dim, n, faces in SIGN_PARTITIONS:
        mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, [n] * dim)
        tensor = fl.assemble_operators(
            mesh, fl.partition_boundary(mesh, faces)).tensor
        flat = tensor.order(len(tensor.values))
        want = _column_signs(functools.reduce(np.kron, tensor.vecs)[:, flat])
        if np.any(_naive_signs(tensor, flat) != want):
            wrong.add(dim)
    assert wrong == {2, 3}


def test_sign_rule_breaks_exact_and_one_ulp_ties():
    # entries from a few magnitudes one ulp apart, with random signs: the
    # multiplied-out columns tie exactly or by rounding in many places
    rng = np.random.default_rng(11)
    one = 1.0 + np.finfo(float).eps
    levels = np.array([1.0, one, np.nextafter(1.0, 0.0), 1.0 / one, 0.5])
    vecs = tuple(rng.choice(levels, size=(k, k)) * rng.choice([-1.0, 1.0],
                                                            size=(k, k))
                 for k in (4, 3, 5))
    tensor = TensorEigs(lams=tuple(np.arange(V.shape[1]) for V in vecs),
                        vecs=vecs)
    flat = np.arange(60)
    want = _column_signs(functools.reduce(np.kron, vecs))
    np.testing.assert_array_equal(tensor.signs(flat), want)
    np.testing.assert_array_equal(tensor.signs(flat[::-1]), want[::-1])
    assert np.any(_naive_signs(tensor, flat) != want)
