"""Simplicial meshes, P1 grid functions, one-point quadrature, and the
sparse operators through which all assembly goes.

Only this module knows the P1 format.  The gradient map ``Dg`` and the
centroid map ``C`` take nodal values to element gradients and centroid
values; derivatives of element integrals are their adjoint products, which,
like the gathers, call scipy's CSR kernel directly (``_ElementMap``).  Second
derivatives are sums of (d+1) x (d+1) element blocks, which one scatter,
``BlockPattern.scatter``, adds into one fixed sparse pattern on the
interior vertices, and so are the two constant operators, the p = 2
stiffness Dg^T diag(meas) Dg and the mass C^T diag(meas) C
(``Mesh.interior_stiffness_data``, ``Mesh.interior_mass``).  A matrix on
that pattern is passed around as its data; ``Mesh.interior_pattern_matrix``
builds the CSC matrix only where one is used, on the pattern's read-only
index arrays, and a dense array (``Mesh.interior_pattern_dense``) straight
from the data.  A mesh caches its derived data and operators on first use:
the Gram blocks of its hat gradients (``Mesh.hat_gram``), which every
Hessian adds, and the factor of its interior stiffness among them, so
its arrays must not be modified after construction.

Three factors, one per job, each the same on every mesh: the stiffness
is factored by LAPACK's band Cholesky (``Mesh.interior_stiffness_lu``); a
matrix on the interior pattern that is solved with by LAPACK's band LU,
its data scattered straight into the band array
(``Mesh.interior_pattern_lu``); and one whose inertia is counted by
SuperLU's symmetric LU in minimum-degree order
(``Mesh.interior_pattern_splu``, ``_splu``), as the row interchanges of a
band LU hide it.  Both band arrays are sized by the mesh's interior
bandwidth (``Mesh.interior_bandwidth``).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

from .errors import DomainError, ShapeError

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
    the k-th kept entry, so ``scatter`` adds a stack into the matrix data
    with one ``np.bincount``.  ``indptr`` and ``indices`` are sorted CSR
    arrays over the interior numbering of ``Mesh.interior``; the pattern is
    symmetric.  ``live`` flags the elements with at least one interior
    vertex: the others have no kept entry, and a function with zero trace
    vanishes on them.  The arrays are read-only: every matrix on the
    pattern shares ``indptr`` and ``indices``, so an in-place change of one
    matrix's structure (such as ``eliminate_zeros``) raises instead of
    rewriting the pattern.
    """

    keep: np.ndarray     # ((d+1)^2 * n_elements,) bool
    slot: np.ndarray     # (keep.sum(),) data index of each kept entry
    indptr: np.ndarray   # (n_interior + 1,)
    indices: np.ndarray  # (nnz,)
    live: np.ndarray     # (n_elements,) bool

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """The pattern data of the sum of the element-last stack ``blocks``,
        (d+1, d+1, n_elements): every kept entry added into its slot.  The
        only scatter of element blocks: the stiffness, the mass and every
        Hessian go through it."""
        return np.bincount(self.slot, blocks.ravel()[self.keep], len(self.indices))


class _ElementMap(scipy.sparse.csr_matrix):
    """A CSR map between nodal and element values: ``Mesh.gradient_map``,
    ``Mesh.centroid_map`` and their adjoints, through which every gather
    and every adjoint product goes.  Its product with a float64 vector
    calls scipy's CSR kernel (``csr_matvec``) directly, the kernel that
    ``@`` reaches only after a generic operand dispatch: the same sums, bit
    for bit, without the dispatch's 4 us, most of a product on the small
    meshes.  Every other operand goes through ``@``."""

    def __matmul__(self, other):
        if (type(other) is np.ndarray and other.dtype == np.float64
                and other.shape == (self.shape[1],)):
            out = np.zeros(self.shape[0])
            _sparsetools.csr_matvec(self.shape[0], self.shape[1], self.indptr,
                                    self.indices, self.data, other, out)
            return out
        return super().__matmul__(other)


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
        """(n_elements, dimension) centroid coordinates: the sum of an
        element's d + 1 vertex coordinates, added in local vertex order,
        over d + 1, bitwise the ``mean`` of its vertices.  The coordinates
        are gathered by ``np.take``, which copies whole rows, several times
        faster than the same gather by fancy indexing."""
        coords = np.take(self.vertices, self.elements.T, axis=0)  # (d+1, n_e, d)
        total = coords[0] + coords[1]
        for vertex in coords[2:]:
            total += vertex
        total /= self.dimension + 1
        return total

    @cached_property
    def interior(self) -> np.ndarray:
        """Indices of the non-boundary vertices."""
        return np.flatnonzero(~self.boundary_mask)

    def _element_map(self, weights: np.ndarray) -> _ElementMap:
        """CSR map from nodal values to element rows: with k rows of
        ``weights`` per element, row r weights the vertices of element r // k."""
        rows_per_element = weights.shape[0] // self.n_elements
        cols = np.repeat(self.elements, rows_per_element, axis=0)
        indptr = np.arange(0, weights.size + 1, self.dimension + 1)
        return _ElementMap(
            (weights.ravel(), cols.ravel(), indptr),
            shape=(weights.shape[0], self.n_vertices),
        )

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """(n_elements, dimension, dimension + 1): column i of element e is
        the constant gradient of the hat function of its local vertex i.

        With the edge vectors x_i - x_0 of an element as the rows of E, the
        gradient is E^{-1} (u_i - u_0), so the columns are [-E^{-1} 1, E^{-1}].
        E^{-1} is 1/E in 1-D and the adjugate over the determinant in 2-D.
        The array is stored element-last, so ``hat_gradients.transpose(1, 2, 0)``
        is contiguous for element-wise products.
        """
        d = self.dimension
        coords = np.take(self.vertices, self.elements.T, axis=0)  # (d+1, n_e, d)
        edges = (coords[1:] - coords[:1]).transpose(0, 2, 1)  # E, element-last
        hats = np.empty((d, d + 1, self.n_elements))
        if d == 1:
            hats[0, 1] = 1.0 / edges[0, 0]
        else:
            (a, b), (c, e) = edges
            hats[:, 1:] = np.array([[e, -b], [-c, a]]) / (a * e - b * c)
        hats[:, 0] = -hats[:, 1:].sum(axis=1)
        return hats.transpose(2, 0, 1)

    @cached_property
    def gradient_map(self) -> _ElementMap:
        """Dg, shape (n_elements * dimension, n_vertices): nodal values to
        element gradients, component k on element e in row e*dimension + k,
        whose weights are row k of the element's ``hat_gradients``."""
        return self._element_map(self.hat_gradients.reshape(-1, self.dimension + 1))

    @cached_property
    def hat_gram(self) -> np.ndarray:
        """(d+1, d+1, n_elements): the Gram block G^T G of each element's hat
        gradients G, element-last; entry (i, j, e) is the dot product of the
        gradients of the hat functions of local vertices i and j."""
        G = self.hat_gradients.transpose(1, 2, 0)
        return np.einsum("kie,kje->ije", G, G)

    @cached_property
    def interior_pattern(self) -> BlockPattern:
        """The ``BlockPattern`` of the element blocks on the interior vertices.

        The block rows and columns of the element-last stack are the int32
        interior positions of the elements' vertices, repeated and tiled;
        the kept entries get one int64 key, row * n + col, each.  A stable
        argsort groups equal keys, and the slot of an entry is the number
        of distinct keys before its group (a cumsum over the first entry of
        each run), so the keys need no ``np.unique`` and its temporaries.
        """
        n, nloc = len(self.interior), self.dimension + 1
        position = np.full(self.n_vertices, -1, dtype=np.int32)
        position[self.interior] = np.arange(n, dtype=np.int32)
        local = position[self.elements].T  # (d+1, n_e), -1 on the boundary
        rows = np.repeat(local, nloc, axis=0).ravel()  # entry (i, j, e) is local[i, e]
        cols = np.tile(local, (nloc, 1)).ravel()       # ... and local[j, e]
        keep = (rows >= 0) & (cols >= 0)
        keys = rows[keep].astype(np.int64)
        keys *= n
        keys += cols[keep]
        del rows, cols
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.ones(len(ranked), dtype=bool)  # the first entry of each run of a key
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        unique = ranked[first]
        # the slots, in the buffers of the keys: the k-th ranked entry has as
        # many distinct keys before it as runs start up to it, less one
        np.cumsum(first, out=keys)
        keys -= 1
        slot = ranked
        slot[order] = keys
        indptr = np.zeros(n + 1, dtype=np.int32)  # scipy's own index type
        indptr[1:] = np.searchsorted(unique, n * np.arange(1, n + 1))  # keys before row r + 1
        pattern = BlockPattern(keep, slot, indptr, (unique % n).astype(np.int32),
                               (local >= 0).any(axis=0))
        for array in pattern:  # shared by every matrix on the pattern
            array.flags.writeable = False
        return pattern

    @cached_property
    def interior_bandwidth(self) -> int:
        """kl, the largest |i - j| over the entries (i, j) of
        ``interior_pattern``: the widest spread of interior positions within
        one element.  The pattern is symmetric and its rows are sorted
        within each column, so kl is read off it as the largest last row of
        a column minus that column.  The interior numbering of
        ``build_interval_mesh`` has kl = 1, and that of
        ``build_rect_mesh(nx, ny, ...)`` kl = nx."""
        indptr = self.interior_pattern.indptr
        filled = np.flatnonzero(np.diff(indptr))  # the columns with an entry
        return int(np.max(self.interior_pattern.indices[indptr[filled + 1] - 1] - filled,
                          initial=0))

    def _pattern_columns(self) -> np.ndarray:
        """The CSC column of each entry of ``interior_pattern``'s data; its
        row is ``indices``."""
        indptr = self.interior_pattern.indptr
        return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))

    @cached_property
    def _band_slots(self) -> np.ndarray:
        """The index of each entry of ``interior_pattern``'s data in the
        flat band array that ``interior_pattern_lu`` factors: entry (i, j)
        sits in row 2 kl + i - j of column j, of 3 kl + 1 rows, at flat
        index (2 kl + i - j) + j (3 kl + 1)."""
        kl = self.interior_bandwidth
        return 2 * kl + self.interior_pattern.indices + 3 * kl * self._pattern_columns()

    @cached_property
    def gradient_adjoint(self) -> _ElementMap:
        """Dg^T as its own CSR matrix, so adjoint products build no transpose."""
        return _ElementMap(self.gradient_map.T.tocsr())

    @cached_property
    def centroid_map(self) -> _ElementMap:
        """C, shape (n_elements, n_vertices): nodal values to centroid values,
        where each hat function of an element takes the value 1/(d + 1)."""
        nloc = self.dimension + 1
        return self._element_map(np.full(self.elements.shape, 1.0 / nloc))

    @cached_property
    def centroid_adjoint(self) -> _ElementMap:
        """C^T as its own CSR matrix, so adjoint products build no transpose."""
        return _ElementMap(self.centroid_map.T.tocsr())

    @cached_property
    def interior_stiffness_data(self) -> np.ndarray:
        """The pattern data of the interior stiffness Dg^T diag(meas) Dg, on
        ``interior_pattern``, exact zeros included: the blocks
        (g_i meas) . g_j of the hat gradients g_i of each element, summed
        over the gradient components as the operator product sums them, and
        scattered (``BlockPattern.scatter``).  In 1-D the entries are
        bitwise those of the operator product; in 2-D only the order in
        which the element terms are added differs."""
        G = self.hat_gradients.transpose(1, 2, 0)
        return self.interior_pattern.scatter(
            np.einsum("kie,kje->ije", G * self.element_measures, G))

    @cached_property
    def interior_stiffness_lu(self) -> "_BandCholesky":
        """LAPACK's band Cholesky K = U^T U of the interior stiffness
        (``_band_cholesky``), factored once per mesh, at every bandwidth:
        every stiffness solve goes through its ``solve``, and the solver's
        pencils are whitened by its U (``_BandCholesky.factor``).  The upper
        triangle of the stiffness's pattern data is scattered into the
        kl + 1 rows of its band, entry (i, j) in row kl + i - j of column j,
        so the band array holds n (kl + 1) doubles: 16.6 MB on the 128^2
        square."""
        kl = self.interior_bandwidth
        rows, cols = self.interior_pattern.indices, self._pattern_columns()
        upper = rows <= cols
        band = np.zeros((len(self.interior), kl + 1))  # its transpose is the band, column-major
        band.ravel()[(kl + rows + kl * cols)[upper]] = \
            self.interior_stiffness_data[upper]
        return _band_cholesky(band.T)

    def interior_pattern_matrix(self, data: np.ndarray) -> scipy.sparse.csc_matrix:
        """The symmetric matrix on ``interior_pattern`` with pattern data
        ``data``, as CSC: its CSR arrays are its CSC arrays.  Its index
        arrays are the pattern's own, read-only; a caller that changes the
        structure copies the matrix first.  Only a caller that needs the
        matrix itself builds it; an LU on the pattern takes the data
        (``interior_pattern_lu``)."""
        pattern, n = self.interior_pattern, len(self.interior)
        return scipy.sparse.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))

    def interior_pattern_dense(self, data: np.ndarray) -> np.ndarray:
        """The matrix on ``interior_pattern`` with pattern data ``data`` as a
        dense array, filled in one scatter: entry k goes to row
        ``indices[k]`` of its CSC column, so the array is bitwise
        ``interior_pattern_matrix(data).toarray()`` without the matrix."""
        n = len(self.interior)
        dense = np.zeros((n, n))
        dense[self.interior_pattern.indices, self._pattern_columns()] = data
        return dense

    def interior_pattern_lu(self, data: np.ndarray) -> "_BandLU":
        """LAPACK's band LU with partial pivoting (``_BandLU``) of the
        matrix on ``interior_pattern`` with pattern data ``data``, to solve
        with, at every bandwidth: the data are scattered through
        ``_band_slots`` into a fresh band array, which ``dgbtrf`` factors in
        place.  Raises RuntimeError when the matrix is singular (an exactly
        zero pivot).
        """
        kl, n = self.interior_bandwidth, len(self.interior)
        band = np.zeros((n, 3 * kl + 1))  # its transpose is the band, column-major
        band.ravel()[self._band_slots] = data
        return _band_lu(band.T, kl)

    def interior_pattern_splu(self, data: np.ndarray) -> scipy.sparse.linalg.SuperLU:
        """The symmetric SuperLU (``_splu``) of the matrix on
        ``interior_pattern`` with pattern data ``data``
        (``interior_pattern_matrix``): the LU whose pivots give the matrix's
        inertia.  Raises RuntimeError when the matrix is singular."""
        return _splu(self.interior_pattern_matrix(data))

    @cached_property
    def interior_mass(self) -> scipy.sparse.csc_matrix:
        """The centroid-quadrature mass C^T diag(meas) C on the interior
        vertices, on ``interior_pattern``: every element adds the term
        (c meas) c, c = 1/(d + 1), to each entry it couples
        (``BlockPattern.scatter``).  In 1-D the entries are bitwise those of
        the operator product; in 2-D only the order in which the element
        terms are added differs."""
        nloc = self.dimension + 1
        c = 1.0 / nloc
        blocks = np.broadcast_to(c * self.element_measures * c, (nloc, nloc, self.n_elements))
        return self.interior_pattern_matrix(self.interior_pattern.scatter(blocks))


# SuperLU's supernode relaxation and panel size, in columns, for its LU in
# ``_splu``: the thin factors of these meshes gain nothing from wider
# supernodes, which cost more to set up than they save (SuperLU's defaults
# are 10 and 20; at 32^2 the LU of a Hessian takes 1.36 against 1.62 ms).
_RELAX = 2
_PANEL_SIZE = 2


def _splu(S: scipy.sparse.csc_matrix) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of the symmetric CSC matrix S, factored as symmetric:
    minimum-degree order on S + S^T and the diagonal pivot wherever it is
    nonzero, so the row order equals the column order unless a diagonal
    pivot vanishes; it never does when S is positive definite.  Supernodes
    are small (``_RELAX``, ``_PANEL_SIZE``).  Raises RuntimeError when S is
    singular.  It factors the shifted sparse parts of J'' whose inertia the
    solver's Morse counts read (``Mesh.interior_pattern_splu``)."""
    return scipy.sparse.linalg.splu(S, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    relax=_RELAX, panel_size=_PANEL_SIZE,
                                    options=dict(SymmetricMode=True))


class _BandLU(NamedTuple):
    """LAPACK's band LU (``dgbtrf``) of a matrix with kl sub- and
    superdiagonals: ``lu`` is the factored band array of 3 kl + 1 rows and
    ``ipiv`` its row interchanges."""

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S^{-1} rhs, for one right-hand side or a column of them."""
        return lapack.dgbtrs(self.lu, self.kl, self.kl, rhs, self.ipiv)[0]


def _band_lu(band: np.ndarray, kl: int) -> _BandLU:
    """The band LU of the column-major band array ``band`` (3 kl + 1 rows:
    kl for the fill of the row interchanges, then the band, entry (i, j) in
    row 2 kl + i - j), factored in place.  Raises RuntimeError on an exactly
    zero pivot, as SuperLU does."""
    lu, ipiv, info = lapack.dgbtrf(band, kl, kl, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    return _BandLU(lu, ipiv, kl)


class _BandCholesky(NamedTuple):
    """LAPACK's band Cholesky (``dpbtrf``) S = U^T U: ``factor`` is the
    band array of the upper factor U, kl + 1 rows, with whose two halves
    the solver also whitens its pencils (``solver._PencilOperator``)."""

    factor: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S^{-1} rhs, for one right-hand side or a column of them."""
        return lapack.dpbtrs(self.factor, rhs)[0]


def _band_cholesky(band: np.ndarray) -> _BandCholesky:
    """The band Cholesky of the column-major band array ``band`` of a
    symmetric positive definite matrix with kl sub- and superdiagonals: kl + 1
    rows holding its upper triangle, entry (i, j) in row kl + i - j, factored
    in place.  Raises RuntimeError when the matrix is not positive
    definite."""
    factor, info = lapack.dpbtrf(band, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("the matrix is not positive definite")
    return _BandCholesky(factor)


def build_interval_mesh(n: int, a_end: float, b_end: float) -> Mesh:
    """Uniform mesh of n segments on (a_end, b_end); endpoints are boundary.
    ShapeError for fewer than 2 segments, an end or a length that is not
    finite, or segments that round to zero length."""
    if n < 2:
        raise ShapeError(f"interval mesh needs at least 2 elements, got {n}")
    if not math.isfinite(float(b_end) - float(a_end)):  # inf and nan ends included
        raise ShapeError(f"interval ({a_end}, {b_end}) needs finite ends and length")
    if not a_end < b_end:
        raise ShapeError(f"degenerate interval ({a_end}, {b_end})")
    x = np.linspace(a_end, b_end, n + 1)
    measures = np.diff(x)
    if not np.all(measures > 0.0):
        raise ShapeError(f"the segments of ({a_end}, {b_end}) round to zero length")
    vertices = x[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    mask = np.zeros(n + 1, dtype=bool)
    mask[0] = mask[-1] = True
    return Mesh(1, vertices, elements, mask, measures)


def build_rect_mesh(nx: int, ny: int, rect) -> Mesh:
    """Criss-cross triangulation of a rectangle, nx by ny cells split in two.

    ``rect`` is a pair of opposite corner points ((x0, y0), (x1, y1)); all
    four sides are flagged as Dirichlet boundary.  ShapeError for fewer
    than 2 cells a side, a corner or an area that is not finite, or
    triangles that round to zero area.
    """
    if nx < 2 or ny < 2:
        raise ShapeError(f"rect mesh needs at least 2x2 cells, got {nx}x{ny}")
    (x0, y0), (x1, y1) = rect
    # inf and nan corners included; no triangle is larger than the rectangle
    if not math.isfinite((float(x1) - float(x0)) * (float(y1) - float(y0))):
        raise ShapeError(f"rectangle {rect} needs finite corners and area")
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

    coords = np.take(vertices, elements, axis=0)
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    measures = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if not np.all(measures > 0.0):
        raise ShapeError(f"the triangles of rectangle {rect} round to zero area")
    return Mesh(2, vertices, elements, mask, measures)


@dataclass(eq=False, frozen=True)
class GridFunction:
    """Nodal P1 function with zero trace on the flagged boundary.

    Construction copies the values and zeroes the flagged vertices, so raw
    nodal data can be wrapped directly; the copy is read-only and the
    instance frozen, so the trace stays zero and consumers need not check.
    Raises DomainError when a value it keeps is not finite (NaN or inf on
    a flagged vertex is zeroed first), so a non-finite point never reaches
    the energy or the solvers.
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
        if not np.isfinite(values).all():
            raise DomainError("nodal values must be finite")
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
