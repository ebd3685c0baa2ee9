"""Tensor-product meshes on boxes with labeled boundary facets.

A mesh is an axis-aligned box split into a regular grid of cells.  Boundary
facets are whole cell faces; Dirichlet/Neumann labels are assigned per facet,
never per node, so a partition is always a union of facets.

Only this module knows the facet layout and the face-spec format.  Other
modules read a partition one box face at a time through :meth:`Mesh.faces`,
and parse ``(axis, side)`` face specs with :func:`_parse_face`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Mesh",
    "Facet",
    "BoundaryPartition",
    "build_tensor_mesh",
    "partition_boundary",
    "moving_family",
]

@dataclass(frozen=True)
class Facet:
    """One boundary cell face.

    Attributes
    ----------
    axis : int
        Coordinate axis the facet is orthogonal to.
    side : int
        0 for the low end of the axis, 1 for the high end.
    index : tuple of int
        Cell multi-index in the transverse axes (empty in 1-D).
    measure : float
        Surface measure of the facet.  Boundary points of an interval get
        measure 1 by convention.
    centroid : tuple of float
        Facet barycenter.
    """

    axis: int
    side: int
    index: tuple[int, ...]
    measure: float
    centroid: tuple[float, ...]

    @property
    def normal(self) -> np.ndarray:
        """Outward unit normal (axis-aligned, exact)."""
        nu = np.zeros(len(self.centroid))
        nu[self.axis] = -1.0 if self.side == 0 else 1.0
        return nu


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor-product grid on a box in dimension 1, 2, or 3.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of 1, 2, 3.
    extents : tuple of (float, float)
        Per-axis interval (a_d, b_d) with a_d < b_d.
    n : tuple of int
        Cells per axis, each at least 2.

    Notes
    -----
    Nodes are ordered C-style over the grid shape ``(n_0+1, ..., n_{dim-1}+1)``.
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2, or 3, got {self.dim}")
        if len(self.extents) != self.dim or len(self.n) != self.dim:
            raise ValueError("extents and n must have one entry per axis")
        for (a, b), nd in zip(self.extents, self.n):
            if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
                raise ValueError(f"degenerate extent ({a}, {b})")
            if nd < 2:
                raise ValueError(f"need at least 2 cells per axis, got {nd}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(nd + 1 for nd in self.n)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / nd for (a, b), nd in zip(self.extents, self.n))

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in self.extents]))

    def axis_coords(self, axis: int) -> np.ndarray:
        a, b = self.extents[axis]
        return np.linspace(a, b, self.n[axis] + 1)

    def cell_centers(self, axis: int) -> np.ndarray:
        """Midpoints of the cells along one axis, low end first."""
        a = self.extents[axis][0]
        return a + (np.arange(self.n[axis]) + 0.5) * self.spacing[axis]

    @cached_property
    def node_coords(self) -> np.ndarray:
        """Array of node coordinates, shape (n_nodes, dim)."""
        axes = [self.axis_coords(d) for d in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """All boundary facets in canonical order (axis, side, C-order index)."""
        out: list[Facet] = []
        centers = [self.cell_centers(d).tolist() for d in range(self.dim)]
        for axis, side, _, cells, measure in self.faces():
            t_axes = [d for d in range(self.dim) if d != axis]
            for idx in np.ndindex(*cells):
                centroid = [0.0] * self.dim
                centroid[axis] = self.extents[axis][side]
                for d, j in zip(t_axes, idx):
                    centroid[d] = centers[d][j]
                out.append(Facet(axis, side, tuple(int(j) for j in idx),
                                 measure, tuple(centroid)))
        return tuple(out)

    def faces(self):
        """Yield ``(axis, side, facets, cells, measure)`` for each box face.

        ``facets`` slices the face out of the canonical facet order (and out
        of ``BoundaryPartition.dirichlet``), C-ordered over the transverse
        cell shape ``cells``; ``measure`` is that of each of its facets.
        """
        h = self.spacing
        start = 0
        for axis in range(self.dim):
            cells = self.n[:axis] + self.n[axis + 1:]
            count = math.prod(cells)
            measure = float(np.prod(h[:axis] + h[axis + 1:])) if cells else 1.0
            for side in (0, 1):
                yield axis, side, slice(start, start + count), cells, measure
                start += count

    @cached_property
    def _facet_measures(self) -> np.ndarray:
        return np.concatenate([np.full(facets.stop - facets.start, measure)
                               for _, _, facets, _, measure in self.faces()])

    @property
    def boundary_measure(self) -> float:
        # summed one facet after another
        return float(np.cumsum(self._facet_measures)[-1])

    def facet_nodes(self, facet: Facet) -> np.ndarray:
        """Flat indices of the nodes spanning a facet (2**(dim-1) corners)."""
        t_axes = [d for d in range(self.dim) if d != facet.axis]
        corners = []
        for offs in np.ndindex(*([2] * len(t_axes))):
            multi = [0] * self.dim
            multi[facet.axis] = 0 if facet.side == 0 else self.n[facet.axis]
            for d, j, o in zip(t_axes, facet.index, offs):
                multi[d] = j + o
            corners.append(np.ravel_multi_index(multi, self.shape))
        return np.array(corners, dtype=np.intp)

    @cached_property
    def interior_node_mask(self) -> np.ndarray:
        """Boolean mask of nodes not on the box boundary."""
        mask = np.ones(self.shape, dtype=bool)
        for d in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[d] = 0
            mask[tuple(sl)] = False
            sl[d] = -1
            mask[tuple(sl)] = False
        return mask.ravel()

    def key(self) -> str:
        """Stable content hash for persistence and manifests."""
        payload = json.dumps(
            {"dim": self.dim, "extents": self.extents, "n": self.n},
            sort_keys=True,
        )
        return _digest(payload, 16)


def build_tensor_mesh(
    dim: int,
    extents: Sequence[Sequence[float]],
    n: Sequence[int],
) -> Mesh:
    """Build a uniform tensor-product mesh on a box.

    Parameters
    ----------
    dim : int
        Spatial dimension (1, 2, or 3).
    extents : sequence of (float, float)
        Interval per axis.
    n : sequence of int
        Cells per axis (minimum 2).

    Returns
    -------
    Mesh

    Examples
    --------
    >>> m = build_tensor_mesh(1, [(0.0, 1.0)], [4])
    >>> m.n_nodes, len(m.facets)
    (5, 2)
    """
    exts = tuple((float(a), float(b)) for a, b in extents)
    return Mesh(dim=int(dim), extents=exts, n=tuple(int(v) for v in n))


def _parse_face(face, dim: int) -> tuple[int, int]:
    """``(axis, side)`` of a face ``[axis, side]`` on a ``dim``-d box.

    axis is an index or one of "xyz", side 0/1 or "lo"/"hi"/"low"/"high";
    anything else, booleans included, raises ValueError naming the face.
    """
    if isinstance(face, (list, tuple)) and len(face) == 2:
        axis, side = face
        if isinstance(axis, str):
            axis = "xyz".find(axis.lower()) if len(axis) == 1 else -1
        if isinstance(side, str):
            side = {"lo": 0, "hi": 1, "low": 0, "high": 1}.get(side.lower(), -1)
        if (all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                for v in (axis, side)) and 0 <= axis < dim and side in (0, 1)):
            return int(axis), int(side)
    raise ValueError(f"face {face!r} is not an [axis, side] face of a "
                     f"{dim}-d box")


@dataclass(frozen=True)
class BoundaryPartition:
    """Dirichlet/Neumann split of a mesh boundary into whole facets.

    Derived quantities read the labels one box face at a time.

    Attributes
    ----------
    mesh : Mesh
    dirichlet : tuple of bool
        One flag per facet, in the canonical order of ``mesh.facets``
        (axis, side, C-order transverse cell); True marks Dirichlet.
    """

    mesh: Mesh
    dirichlet: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.dirichlet) != len(self.mesh._facet_measures):
            raise ValueError("label list length must match facet count")
        nd = sum(self.dirichlet)
        if nd == 0:
            raise ValueError("partition needs at least one Dirichlet facet")
        if nd == len(self.dirichlet):
            raise ValueError("partition needs at least one Neumann facet")

    @property
    def alpha(self) -> float:
        """Surface measure of the Dirichlet part, summed facet by facet."""
        measures = self.mesh._facet_measures[np.asarray(self.dirichlet)]
        return float(np.cumsum(measures)[-1])

    @cached_property
    def dirichlet_node_mask(self) -> np.ndarray:
        """Nodes on the closure of the Dirichlet set (to be eliminated)."""
        labels = np.asarray(self.dirichlet)
        mask = np.zeros(self.mesh.shape, dtype=bool)
        # a face's cell labels, ORed into its node layer at each corner offset
        for axis, side, facets, cells, _ in self.mesh.faces():
            on = labels[facets].reshape(cells[:axis] + (1,) + cells[axis:])
            for offs in np.ndindex(*(2,) * len(cells)):
                at = [slice(o, o + c) for o, c in zip(offs, cells)]
                at.insert(axis, slice(0, 1) if side == 0 else slice(-1, None))
                mask[tuple(at)] |= on
        return mask.ravel()

    @cached_property
    def free_nodes(self) -> np.ndarray:
        """Flat indices of nodes kept in the constrained function space."""
        return np.flatnonzero(~self.dirichlet_node_mask)

    @cached_property
    def _operators(self):
        # the OperatorPair of this partition, assembled on first use through
        # spectral.assemble_operators and dropped with the partition
        from .spectral import _assemble  # deferred: spectral imports mesh

        return _assemble(self)

    def key(self) -> str:
        payload = self.mesh.key() + "".join("D" if d else "N" for d in self.dirichlet)
        return _digest(payload, 16)


@cache
def _sha256():
    # CPython's built-in SHA-256, the module hashlib itself falls back to:
    # hashlib would load OpenSSL's libcrypto, about 3.5 MB and 4 ms, to
    # hash a few hundred bytes.  The digest bytes are the same either way;
    # looked up once, since a failed import searches the path each time
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            # a CPython built without its own SHA-2 modules has only
            # OpenSSL's, so hashlib is the one route left
            from hashlib import sha256
    return sha256


def _digest(text: str, width: int) -> str:
    """The first ``width`` hex digits of the SHA-256 of ``text``."""
    return _sha256()(text.encode()).hexdigest()[:width]


def partition_boundary(
    mesh: Mesh,
    dirichlet: Iterable | Callable[[Facet], bool],
) -> BoundaryPartition:
    """Label boundary facets as Dirichlet or Neumann.

    Parameters
    ----------
    mesh : Mesh
    dirichlet : iterable of faces or callable
        Either a list of whole faces, each as ``(axis, side)`` with axis an
        index or one of "xyz" and side 0/1 or "lo"/"hi", or a predicate
        called on each :class:`Facet`.

    Returns
    -------
    BoundaryPartition

    Raises
    ------
    ValueError
        If the Dirichlet or the Neumann part would be empty.
    """
    if callable(dirichlet):
        return BoundaryPartition(
            mesh=mesh, dirichlet=tuple(bool(dirichlet(f)) for f in mesh.facets))
    faces = {_parse_face(f, mesh.dim) for f in dirichlet}
    labels = np.zeros(len(mesh._facet_measures), dtype=bool)
    for axis, side, facets, _, _ in mesh.faces():
        labels[facets] = (axis, side) in faces
    return BoundaryPartition(mesh=mesh, dirichlet=tuple(labels.tolist()))


def moving_family(
    mesh: Mesh,
    alphas: Sequence[float],
    faces: Sequence | None = None,
) -> list[BoundaryPartition]:
    """Nested Dirichlet partitions with prescribed surface measures.

    Facets are consumed in a fixed deterministic fill order (canonical facet
    order, optionally restricted to ``faces``), so smaller-alpha Dirichlet
    sets are subsets of larger ones.  Each requested alpha snaps DOWN to the
    nearest realizable facet-union measure; the snapped value is what the
    returned partition reports.

    Parameters
    ----------
    mesh : Mesh
    alphas : sequence of float
        Strictly decreasing target Dirichlet measures.
    faces : sequence of (axis, side), optional
        Restrict and order the fill; None or empty means all faces in order.

    Returns
    -------
    list of BoundaryPartition
        One partition per requested alpha, nested by construction.

    Raises
    ------
    ValueError
        If an alpha exceeds the measure of ``faces`` (of the whole boundary
        when ``faces`` is None or empty), leaves no Neumann facet, or is too
        small to contain a single facet, or if two alphas snap to the same
        facet union.
    """
    alphas = [float(a) for a in alphas]
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly decreasing")

    n_facets = len(mesh._facet_measures)
    spans = {(axis, side): np.arange(facets.start, facets.stop)
             for axis, side, facets, _, _ in mesh.faces()}
    # the given faces in order, or all of them in canonical order
    pool = np.concatenate([spans[_parse_face(f, mesh.dim)]
                           for f in faces or spans])
    measures = mesh._facet_measures[pool]
    cum = np.cumsum(measures)
    total_boundary = mesh.boundary_measure
    # absolute slack so 4 * 0.25 == 1.0 snaps to all four facets
    slack = 1e-12 * max(total_boundary, 1.0)
    # the most the fill can label: all of the given faces, or the boundary
    reach, where = ((float(cum[-1]), f"faces {list(faces)}") if faces
                    else (total_boundary, "the boundary"))

    out = []
    for alpha in alphas:
        if alpha > reach + slack:
            raise ValueError(
                f"alpha={alpha} exceeds the measure {reach} of {where}")
        k = int(np.searchsorted(cum, alpha + slack, side="right"))
        if k == 0:
            raise ValueError(
                f"alpha={alpha} smaller than the first facet "
                f"(measure {measures[0]}); refine the mesh or raise alpha")
        if k == n_facets:
            raise ValueError(
                f"alpha={alpha} would label the whole boundary Dirichlet")
        labels = np.zeros(n_facets, dtype=bool)
        labels[pool[:k]] = True
        out.append(BoundaryPartition(mesh, tuple(labels.tolist())))
    snapped = [p.alpha for p in out]
    if any(b >= a for a, b in zip(snapped, snapped[1:])):
        raise ValueError(
            f"alphas snap to non-distinct facet unions {snapped}; "
            f"refine the mesh or spread the alphas")
    return out
