"""Simplicial meshes, P1 grid functions, one-point quadrature, and the
sparse operators through which all assembly goes.

Only this module knows the P1 format.  The gradient map ``Dg`` and the
centroid map ``C`` take nodal values to element gradients and centroid
values; derivatives of element integrals are their adjoint products, and the
constant-exponent stiffness and mass are Dg^T diag(meas) Dg and
C^T diag(meas) C.  Second derivatives are sums of (d+1) x (d+1) element
blocks, which ``BlockPattern`` scatters into one fixed sparse pattern on the
interior vertices.  A mesh caches its derived data and operators on first
use, the symmetric LU of its interior stiffness among them (``_splu``), so
its arrays must not be modified after construction.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ShapeError

__all__ = [
    "Mesh",
    "BlockPattern",
    "GridFunction",
    "build_interval_mesh",
    "build_rect_mesh",
    "element_gradients",
    "gradient_of",
    "centroid_values",
    "integrate",
]


class BlockPattern(NamedTuple):
    """CSR pattern of a sum of element blocks on the interior vertices.

    The blocks of all elements are stacked element-last, with shape
    (d+1, d+1, n_elements): entry (i, j, e) couples the local vertices i and
    j of element e.  ``keep`` flags, over that stack flattened, the entries
    whose vertices are both interior, and ``slot[k]`` is the data index of
    the k-th kept entry, so the matrix data is
    ``np.bincount(slot, blocks.ravel()[keep], nnz)``.  ``indptr`` and
    ``indices`` are sorted CSR arrays over the interior numbering of
    ``Mesh.interior``; the pattern is symmetric.  ``live`` flags the
    elements with at least one interior vertex: the others have no kept
    entry, and a function with zero trace vanishes on them.
    """

    keep: np.ndarray     # ((d+1)^2 * n_elements,) bool
    slot: np.ndarray     # (keep.sum(),) data index of each kept entry
    indptr: np.ndarray   # (n_interior + 1,)
    indices: np.ndarray  # (nnz,)
    live: np.ndarray     # (n_elements,) bool


@dataclass(eq=False)
class Mesh:
    """A 1-D or 2-D simplicial mesh with a Dirichlet boundary mask."""

    dimension: int
    vertices: np.ndarray          # (n_vertices, dimension)
    elements: np.ndarray          # (n_elements, dimension + 1) vertex indices
    boundary_mask: np.ndarray     # (n_vertices,) bool
    element_measures: np.ndarray  # (n_elements,) lengths / areas

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def measure(self) -> float:
        """Total measure of the meshed domain."""
        return float(self.element_measures.sum())

    @cached_property
    def element_centroids(self) -> np.ndarray:
        """(n_elements, dimension) centroid coordinates."""
        return self.vertices[self.elements].mean(axis=1)

    @cached_property
    def interior(self) -> np.ndarray:
        """Indices of the non-boundary vertices."""
        return np.flatnonzero(~self.boundary_mask)

    def _element_map(self, weights: np.ndarray) -> scipy.sparse.csr_matrix:
        """CSR map from nodal values to element rows: with k rows of
        ``weights`` per element, row r weights the vertices of element r // k."""
        rows_per_element = weights.shape[0] // self.n_elements
        cols = np.repeat(self.elements, rows_per_element, axis=0)
        indptr = np.arange(0, weights.size + 1, self.dimension + 1)
        return scipy.sparse.csr_matrix(
            (weights.ravel(), cols.ravel(), indptr),
            shape=(weights.shape[0], self.n_vertices),
        )

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """(n_elements, dimension, dimension + 1): column i of element e is
        the constant gradient of the hat function of its local vertex i.

        With the edge vectors x_i - x_0 of an element as the rows of E, the
        gradient is E^{-1} (u_i - u_0), so the columns are [-E^{-1} 1, E^{-1}].
        The array is stored element-last, so ``hat_gradients.transpose(1, 2, 0)``
        is contiguous for element-wise products.
        """
        coords = self.vertices[self.elements]  # (n_e, d+1, d)
        einv = np.linalg.inv(coords[:, 1:] - coords[:, :1])  # (n_e, d, d)
        hats = np.concatenate([-einv.sum(axis=2, keepdims=True), einv], axis=2)
        return np.ascontiguousarray(hats.transpose(1, 2, 0)).transpose(2, 0, 1)

    @cached_property
    def gradient_map(self) -> scipy.sparse.csr_matrix:
        """Dg, shape (n_elements * dimension, n_vertices): nodal values to
        element gradients, component k on element e in row e*dimension + k,
        whose weights are row k of the element's ``hat_gradients``."""
        return self._element_map(self.hat_gradients.reshape(-1, self.dimension + 1))

    @cached_property
    def interior_pattern(self) -> BlockPattern:
        """The ``BlockPattern`` of the element blocks on the interior vertices."""
        n = len(self.interior)
        position = np.full(self.n_vertices, -1)
        position[self.interior] = np.arange(n)
        local = position[self.elements].T  # (d+1, n_e), -1 on the boundary
        rows, cols = (x.ravel() for x in np.broadcast_arrays(local[:, None], local[None]))
        keep = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.zeros(n + 1, dtype=np.int32)  # scipy's own index type
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return BlockPattern(keep, slot.ravel(), indptr, (keys % n).astype(np.int32),
                            (local >= 0).any(axis=0))

    @cached_property
    def gradient_adjoint(self) -> scipy.sparse.csr_matrix:
        """Dg^T as its own CSR matrix, so adjoint products build no transpose."""
        return self.gradient_map.T.tocsr()

    @cached_property
    def centroid_map(self) -> scipy.sparse.csr_matrix:
        """C, shape (n_elements, n_vertices): nodal values to centroid values,
        where each hat function of an element takes the value 1/(d + 1)."""
        nloc = self.dimension + 1
        return self._element_map(np.full(self.elements.shape, 1.0 / nloc))

    @cached_property
    def centroid_adjoint(self) -> scipy.sparse.csr_matrix:
        """C^T as its own CSR matrix, so adjoint products build no transpose."""
        return self.centroid_map.T.tocsr()

    @cached_property
    def stiffness(self) -> scipy.sparse.csr_matrix:
        """Constant-exponent (p = 2) stiffness Dg^T diag(meas) Dg."""
        meas = scipy.sparse.diags(np.repeat(self.element_measures, self.dimension))
        return (self.gradient_adjoint @ meas @ self.gradient_map).tocsr()

    @cached_property
    def interior_stiffness(self) -> scipy.sparse.csc_matrix:
        """The stiffness restricted to the interior vertices."""
        idx = self.interior
        return self.stiffness[np.ix_(idx, idx)].tocsc()

    @cached_property
    def interior_stiffness_lu(self) -> scipy.sparse.linalg.SuperLU:
        """The symmetric LU (``_splu``) of the interior stiffness, factored
        once per mesh: every stiffness solve goes through its ``solve``."""
        return _splu(self.interior_stiffness)

    @cached_property
    def mass(self) -> scipy.sparse.csr_matrix:
        """Centroid-quadrature mass C^T diag(meas) C."""
        meas = scipy.sparse.diags(self.element_measures)
        return (self.centroid_adjoint @ meas @ self.centroid_map).tocsr()


def _splu(S: scipy.sparse.csc_matrix) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of the symmetric CSC matrix S, factored as symmetric:
    minimum-degree order on S + S^T and the diagonal pivot wherever it is
    nonzero, so the row order equals the column order unless a diagonal
    pivot vanishes; it never does when S is positive definite.  Raises
    RuntimeError when S is singular.  It factors the interior stiffness once
    per mesh (``Mesh.interior_stiffness_lu``), and the solver's Newton steps
    and Morse counts factor the sparse part of J'' with it."""
    return scipy.sparse.linalg.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options=dict(SymmetricMode=True))


def build_interval_mesh(n: int, a_end: float, b_end: float) -> Mesh:
    """Uniform mesh of n segments on (a_end, b_end); endpoints are boundary."""
    if n < 2:
        raise ShapeError(f"interval mesh needs at least 2 elements, got {n}")
    if not a_end < b_end:
        raise ShapeError(f"degenerate interval ({a_end}, {b_end})")
    x = np.linspace(a_end, b_end, n + 1)
    vertices = x[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    mask = np.zeros(n + 1, dtype=bool)
    mask[0] = mask[-1] = True
    measures = np.diff(x)
    return Mesh(1, vertices, elements, mask, measures)


def build_rect_mesh(nx: int, ny: int, rect) -> Mesh:
    """Criss-cross triangulation of a rectangle, nx by ny cells split in two.

    ``rect`` is a pair of opposite corner points ((x0, y0), (x1, y1)); all
    four sides are flagged as Dirichlet boundary.
    """
    if nx < 2 or ny < 2:
        raise ShapeError(f"rect mesh needs at least 2x2 cells, got {nx}x{ny}")
    (x0, y0), (x1, y1) = rect
    if not (x0 < x1 and y0 < y1):
        raise ShapeError(f"degenerate rectangle {rect}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys)  # row-major in y
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j), in row-major order, has lower-left vertex j*(nx+1) + i and
    # is split along its diagonal into (v00, v10, v11) and (v00, v11, v01)
    jj, ii = np.divmod(np.arange(nx * ny), nx)
    v00 = jj * (nx + 1) + ii
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    elements = np.stack([np.stack([v00, v10, v11], axis=1),
                         np.stack([v00, v11, v01], axis=1)], axis=1).reshape(-1, 3)

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    mask = ((ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)).ravel()

    coords = vertices[elements]
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    measures = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return Mesh(2, vertices, elements, mask, measures)


@dataclass(eq=False, frozen=True)
class GridFunction:
    """Nodal P1 function with zero trace on the flagged boundary.

    Construction copies the values and zeroes the flagged vertices, so raw
    nodal data can be wrapped directly; the copy is read-only and the
    instance frozen, so the trace stays zero and consumers need not check.
    """

    mesh: Mesh
    nodal_values: np.ndarray

    def __post_init__(self):
        values = np.array(self.nodal_values, dtype=float)
        if values.shape != (self.mesh.n_vertices,):
            raise ShapeError(
                f"expected {self.mesh.n_vertices} nodal values, got {values.shape}"
            )
        values[self.mesh.boundary_mask] = 0.0
        values.flags.writeable = False
        object.__setattr__(self, "nodal_values", values)


def element_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-element gradient of the P1 interpolant of raw nodal data.

    The boundary mask is ignored; exact for nodal samples of any affine
    function.  Returns an (n_elements, dimension) array.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ShapeError(
            f"expected {mesh.n_vertices} nodal values, got {values.shape}"
        )
    return (mesh.gradient_map @ values).reshape(mesh.n_elements, mesh.dimension)


def gradient_of(u: GridFunction) -> np.ndarray:
    """Piecewise-constant gradient of a grid function, one row per element."""
    return element_gradients(u.mesh, u.nodal_values)


def centroid_values(u: GridFunction) -> np.ndarray:
    """P1 interpolant evaluated at element centroids."""
    return u.mesh.centroid_map @ u.nodal_values


def integrate(f, mesh: Mesh) -> float:
    """Midpoint quadrature: sum of per-element values times element measures."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_elements,):
        raise ShapeError(f"expected {mesh.n_elements} element values, got {f.shape}")
    return float(np.dot(f, mesh.element_measures))
