"""Mesh, facet bookkeeping, boundary partitions, and the moving family."""
import hashlib

import numpy as np
import pytest

from fraclap.mesh import (
    BoundaryPartition,
    _digest,
    build_tensor_mesh,
    moving_family,
    partition_boundary,
)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_tensor_mesh(4, [(0, 1)] * 4, [2] * 4)
    with pytest.raises(ValueError):
        build_tensor_mesh(1, [(1.0, 1.0)], [4])
    with pytest.raises(ValueError):
        build_tensor_mesh(1, [(0.0, 1.0)], [1])
    with pytest.raises(ValueError):
        build_tensor_mesh(2, [(0, 1)], [4, 4])


def test_node_layout_and_volume():
    mesh = build_tensor_mesh(2, [(0.0, 2.0), (0.0, 1.0)], [4, 2])
    assert mesh.shape == (5, 3)
    assert mesh.n_nodes == 15
    assert mesh.spacing == (0.5, 0.5)
    assert mesh.volume == 2.0
    # C-ordering: last axis fastest
    coords = mesh.node_coords
    assert coords.shape == (15, 2)
    np.testing.assert_allclose(coords[0], [0.0, 0.0])
    np.testing.assert_allclose(coords[1], [0.0, 0.5])
    np.testing.assert_allclose(coords[3], [0.5, 0.0])


def test_facet_count_and_measures():
    mesh = build_tensor_mesh(3, [(0, 1), (0, 1), (0, 1)], [3, 4, 5])
    per_axis = {0: 4 * 5, 1: 3 * 5, 2: 3 * 4}
    got = {d: sum(1 for f in mesh.facets if f.axis == d) for d in range(3)}
    assert got == {d: 2 * c for d, c in per_axis.items()}
    assert mesh.boundary_measure == pytest.approx(6.0, rel=1e-14)
    # canonical order: axis ascending, then side, then C-order index
    keys = [(f.axis, f.side, f.index) for f in mesh.facets]
    assert keys == sorted(keys)


def test_facet_normals_and_centroids():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [2, 2])
    lo = [f for f in mesh.facets if f.axis == 0 and f.side == 0]
    assert all(tuple(f.normal) == (-1.0, 0.0) for f in lo)
    assert all(f.centroid[0] == 0.0 for f in lo)
    hi = [f for f in mesh.facets if f.axis == 1 and f.side == 1]
    assert all(tuple(f.normal) == (0.0, 1.0) for f in hi)
    assert all(f.centroid[1] == 1.0 for f in hi)


def test_facet_centroids_are_the_cell_centers():
    # each transverse coordinate is a + (j + 0.5) h as a plain float, bit
    # for bit, on extents whose cell width rounds
    mesh = build_tensor_mesh(3, [(-0.5, 1.5), (0.1, 0.8), (0.0, 2.0 / 3.0)],
                             [3, 7, 5])
    h = mesh.spacing
    for f in mesh.facets:
        assert all(type(c) is float for c in f.centroid)
        t_axes = [d for d in range(mesh.dim) if d != f.axis]
        for d, j in zip(t_axes, f.index):
            assert f.centroid[d] == mesh.extents[d][0] + (j + 0.5) * h[d]
            assert f.centroid[d] == mesh.cell_centers(d)[j]


def test_facet_nodes_lie_on_facet():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [3, 3])
    for f in mesh.facets:
        nodes = mesh.facet_nodes(f)
        assert len(nodes) == 2 ** (mesh.dim - 1)
        coord = mesh.extents[f.axis][f.side]
        assert np.all(mesh.node_coords[nodes][:, f.axis] == coord)
        # the corners span the facet: their mean is its centroid
        np.testing.assert_allclose(mesh.node_coords[nodes].mean(axis=0),
                                   f.centroid)


def test_interior_node_mask():
    mesh = build_tensor_mesh(1, [(0.0, 1.0)], [4])
    np.testing.assert_array_equal(
        mesh.interior_node_mask, [False, True, True, True, False])


def test_partition_requires_both_labels():
    mesh = build_tensor_mesh(1, [(0.0, 1.0)], [4])
    with pytest.raises(ValueError):
        partition_boundary(mesh, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        partition_boundary(mesh, [])
    with pytest.raises(ValueError):
        partition_boundary(mesh, [(1, 0)])


def test_partition_faces_and_predicate_agree():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    by_face = partition_boundary(mesh, [(0, 0), ("y", "hi")])
    by_pred = partition_boundary(
        mesh, lambda f: (f.axis, f.side) in {(0, 0), (1, 1)})
    assert by_face.dirichlet == by_pred.dirichlet
    assert by_face.alpha == pytest.approx(2.0, rel=1e-14)


def test_dirichlet_closure_contains_interface_nodes():
    # the corner shared by a Dirichlet and a Neumann face is constrained
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    part = partition_boundary(mesh, [(0, 0)])
    mask = part.dirichlet_node_mask
    corner = np.flatnonzero(
        (mesh.node_coords[:, 0] == 0.0) & (mesh.node_coords[:, 1] == 1.0))
    assert mask[corner].all()
    assert mask.sum() == 5
    assert len(part.free_nodes) == 25 - 5


def test_partition_key_changes_with_labels():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    a = partition_boundary(mesh, [(0, 0)])
    b = partition_boundary(mesh, [(0, 1)])
    assert a.key() != b.key()
    assert a.key() == partition_boundary(mesh, [(0, 0)]).key()


def test_keys_are_frozen():
    # run directories and manifests of earlier runs carry these digests
    cube = build_tensor_mesh(3, [(0.0, 1.0)] * 3, [12] * 3)
    assert cube.key() == "4b4c1974649ed2c9"
    assert partition_boundary(cube, [(0, 0)]).key() == "c42fc6c80e55fcb5"
    square = build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    assert moving_family(square, [0.5])[0].key() == "55fa4efd83f18f7e"
    # the box corner [0, R]^dim with its far faces Dirichlet has the keys of
    # the cone construction it replaced
    for (dim, radius, n), mesh_key, part_key in [
            ((3, 1.0, 6), "009cc5bbe0841f2d", "3b94c8552baf172b"),
            ((2, 1.0, 8), "943552f2ae3ff49b", "737697ba77b1f6b0"),
            ((2, 1.0, 4), "26284acc0403485d", "f65f90b03ccc680f")]:
        corner = build_tensor_mesh(dim, [(0.0, radius)] * dim, [n] * dim)
        far = partition_boundary(corner, [(d, 1) for d in range(dim)])
        assert corner.key() == mesh_key
        assert far.key() == part_key


@pytest.mark.parametrize("text", ["", '{"dim": 2, "n": [8, 8]}',
                                  "Σ_D ⊂ ∂Ω, λ₁ˢ", "DN" * 100])
@pytest.mark.parametrize("width", [12, 16])
def test_digest_is_sha256(text, width):
    # the built-in SHA-256 gives hashlib's digest, on payloads of none,
    # ASCII, non-ASCII and more than one 64-byte block
    assert _digest(text, width) == hashlib.sha256(
        text.encode()).hexdigest()[:width]


def test_moving_family_nested_and_snapped():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    fam = moving_family(mesh, [1.0, 0.5, 0.3])
    alphas = [p.alpha for p in fam]
    assert alphas == pytest.approx([1.0, 0.5, 0.25])  # 0.3 snaps down
    prev = None
    for part in fam:
        chosen = {i for i, d in enumerate(part.dirichlet) if d}
        if prev is not None:
            assert chosen <= prev
        prev = chosen


def test_moving_family_guards():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    with pytest.raises(ValueError):
        moving_family(mesh, [0.5, 0.5])
    with pytest.raises(ValueError):
        moving_family(mesh, [5.0])
    with pytest.raises(ValueError):
        moving_family(mesh, [0.1])  # below one facet measure
    with pytest.raises(ValueError):
        moving_family(mesh, [4.0])  # whole boundary


def test_moving_family_refuses_alpha_above_its_faces():
    # y = 2 of the 1 x 2 box measures 1, although the boundary measures 6
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 2.0)], [4, 8])
    with pytest.raises(ValueError, match="exceeds the measure 1.0 of faces"):
        moving_family(mesh, [1.5, 0.5], [[1, 1]])
    # alpha = 1 labels all of y = 2
    assert [p.alpha for p in moving_family(mesh, [1.0, 0.5], [[1, 1]])] == [
        1.0, 0.5]


def test_moving_family_face_restriction():
    mesh = build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    fam = moving_family(mesh, [1.0, 0.5], faces=[(0, 0), (0, 1)])
    for part in fam:
        for f, d in zip(mesh.facets, part.dirichlet):
            if d:
                assert f.axis == 0


def test_box_corner_geometry():
    # the cone with its apex at the origin, as a box with its far faces
    # Dirichlet
    mesh = build_tensor_mesh(2, [(0.0, 1.0)] * 2, [4, 4])
    part = partition_boundary(mesh, [(0, 1), (1, 1)])
    for f, d in zip(mesh.facets, part.dirichlet):
        if d:
            # cap faces sit at the far end of their axis
            assert f.side == 1
        else:
            # lateral faces pass through the apex plane
            assert f.centroid[f.axis] == 0.0


def test_direct_partition_label_length_checked():
    mesh = build_tensor_mesh(1, [(0.0, 1.0)], [4])
    with pytest.raises(ValueError):
        BoundaryPartition(mesh=mesh, dirichlet=(True,))
