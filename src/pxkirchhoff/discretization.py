"""Simplicial meshes, P1 grid functions, one-point quadrature, and the
sparse operators through which all assembly goes.

Only this module knows the P1 format.  The gradient map ``Dg`` and the
centroid map ``C`` take nodal values to element gradients and centroid
values; derivatives of element integrals are their adjoint products, which,
like the gathers, call scipy's CSR kernel directly (``_ElementMap``).  Second
derivatives are sums of (d+1) x (d+1) element blocks, which ``BlockPattern``
scatters into one fixed sparse pattern on the interior vertices, and so are
the two constant operators, the p = 2 stiffness Dg^T diag(meas) Dg and the
mass C^T diag(meas) C (``Mesh.interior_stiffness``,
``Mesh.interior_mass``): their element terms are added in the order of the
operator products, whose values they reproduce bit for bit.  A matrix on
that pattern is passed around as its data; ``Mesh.interior_pattern_matrix``
builds the CSC matrix only where one is used, on the pattern's read-only
index arrays, and a dense array (``Mesh.interior_pattern_dense``) straight
from the data.  A mesh caches its derived data and operators on first use:
the Gram blocks of its hat gradients (``Mesh.hat_gram``), which every second
derivative adds, and the factor of its interior stiffness among them, so
its arrays must not be modified after construction.

The stiffness is factored by LAPACK's band Cholesky on every mesh
(``Mesh.interior_stiffness_lu``).  How a matrix on the interior pattern is
factored to solve with depends on the mesh's interior bandwidth alone
(``Mesh.interior_bandwidth``): up to _BAND_MAX by LAPACK's band LU, its
data scattered straight into the band array, and above it by SuperLU as
symmetric (``Mesh.interior_pattern_lu``, ``_splu``).  That symmetric
SuperLU of a matrix on the pattern (``Mesh.interior_pattern_splu``) is
also the one LU whose pivots give the matrix's inertia, on every mesh.
The mesh keeps the column order of its first one, which depends on the
pattern alone, so the data of every later matrix on the pattern are
renumbered by it and factored without a new ordering, the analyze-once,
factor-many split of sparse direct solvers (George-Liu 1981).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import lapack
from scipy.sparse import _sparsetools

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
    entry, and a function with zero trace vanishes on them.  The arrays are
    read-only: every matrix on the pattern shares ``indptr`` and
    ``indices``, so an in-place change of one matrix's structure (such as
    ``eliminate_zeros``) raises instead of rewriting the pattern.
    """

    keep: np.ndarray     # ((d+1)^2 * n_elements,) bool
    slot: np.ndarray     # (keep.sum(),) data index of each kept entry
    indptr: np.ndarray   # (n_interior + 1,)
    indices: np.ndarray  # (nnz,)
    live: np.ndarray     # (n_elements,) bool


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
    # set by the first ``interior_pattern_splu``
    _pattern_order: "_PatternOrder | None" = field(default=None, init=False, repr=False)

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
        coords = np.take(self.vertices, self.elements, axis=0)  # (n_e, d+1, d)
        edges = (coords[:, 1:] - coords[:, :1]).transpose(1, 2, 0)  # E, element-last
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
        np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
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

    def _sum_in_element_order(self, terms: np.ndarray) -> np.ndarray:
        """The pattern data of a sum of element terms: ``terms`` has shape
        (n_elements, m, (d+1)^2), elements in decreasing order, and its term
        (e, k, i (d+1) + j) belongs to the block entry (i, j) of its element.
        The terms of each entry are added one by one in that order
        (``np.add.at``, into the slots of ``interior_pattern``), the order
        of scipy's operator products, whose first product leaves its rows
        reversed.  The slots are int32, which ``np.add.at`` reads without
        the intp copy that ``np.bincount`` makes."""
        pattern, nloc = self.interior_pattern, self.dimension + 1
        nnz = len(pattern.indices)
        slots = np.full(pattern.keep.shape, nnz, dtype=np.int32)  # nnz: a boundary vertex
        slots[pattern.keep] = pattern.slot
        slots = slots.reshape(nloc * nloc, self.n_elements).T[::-1]
        data = np.zeros(nnz + 1)
        np.add.at(data, np.repeat(slots[:, None], terms.shape[1], axis=1).ravel(),
                  terms.ravel())
        return data[:nnz]

    @cached_property
    def interior_stiffness_data(self) -> np.ndarray:
        """The pattern data of the interior stiffness Dg^T diag(meas) Dg, on
        ``interior_pattern``, exact zeros included:
        entry (r, c) read as CSC sums the terms (g_r meas) g_c over the
        elements and gradient components it couples, in decreasing
        (element, component) order, so it is bitwise the entry of the
        operator product (``_sum_in_element_order``)."""
        G = self.hat_gradients[::-1, ::-1]  # elements and components decreasing
        # term (e, k, i, j) lands at CSC row j, column i: (g_j meas) g_i
        terms = G[:, :, :, None] * (G * self.element_measures[::-1, None, None])[:, :, None]
        return self._sum_in_element_order(terms)

    @cached_property
    def interior_stiffness(self) -> scipy.sparse.csc_matrix:
        """The constant-exponent (p = 2) stiffness Dg^T diag(meas) Dg on the
        interior vertices, as CSC without its exact zeros (the couplings
        along the diagonals of ``build_rect_mesh``'s cells), like the
        operator product it equals bitwise; its index arrays are its own."""
        pattern, n = self.interior_pattern, len(self.interior)
        S = scipy.sparse.csc_matrix((self.interior_stiffness_data, pattern.indices,
                                     pattern.indptr), shape=(n, n), copy=True)
        S.eliminate_zeros()
        return S

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

    def interior_pattern_lu(self, data: np.ndarray) -> "_BandLU | _PermutedLU":
        """The LU of the matrix on ``interior_pattern`` with pattern data
        ``data``, to solve with.

        Where the interior bandwidth kl is at most _BAND_MAX, it is
        LAPACK's band LU with partial pivoting (``_BandLU``): the data are
        scattered through ``_band_slots`` into a fresh band array, which
        ``dgbtrf`` factors in place.  Above it, it is
        ``interior_pattern_splu``.  Raises RuntimeError when the matrix is
        singular (an exactly zero pivot), on either route.
        """
        if self.interior_bandwidth <= _BAND_MAX:
            kl, n = self.interior_bandwidth, len(self.interior)
            band = np.zeros((n, 3 * kl + 1))  # its transpose is the band, column-major
            band.ravel()[self._band_slots] = data
            return _band_lu(band.T, kl)
        return self.interior_pattern_splu(data)

    def interior_pattern_splu(self, data: np.ndarray) -> "_PermutedLU":
        """The symmetric LU of the matrix on ``interior_pattern`` with
        pattern data ``data``, on every mesh: the LU whose pivots give the
        matrix's inertia.

        The first call on a mesh factors that matrix itself
        (``interior_pattern_matrix``, ``_splu``) and keeps the column order
        of its LU: it depends on the pattern alone.  Every later call
        scatters the data into the pattern renumbered by that order and
        factors it in natural order, so no call but the first orders the
        pattern or builds a matrix.  Raises RuntimeError when the matrix is
        singular.
        """
        if self._pattern_order is None:
            lu = _splu(self.interior_pattern_matrix(data))
            self._pattern_order = _PatternOrder(self.interior_pattern, lu.perm_c)
            return _PermutedLU(lu, np.arange(len(self.interior)))
        return self._pattern_order.factor(data)

    @cached_property
    def interior_mass(self) -> scipy.sparse.csc_matrix:
        """The centroid-quadrature mass C^T diag(meas) C on the interior
        vertices, on ``interior_pattern``: every element adds the term
        (c meas) c, c = 1/(d + 1), to each entry it couples, in decreasing
        element order, so the entries are bitwise those of the operator
        product (``_sum_in_element_order``)."""
        nloc = self.dimension + 1
        c = 1.0 / nloc
        terms = (c * self.element_measures[::-1] * c)[:, None, None]
        return self.interior_pattern_matrix(self._sum_in_element_order(
            np.broadcast_to(terms, (self.n_elements, 1, nloc * nloc))))


# Meshes whose interior bandwidth (``Mesh.interior_bandwidth``) is at most
# this factor the matrices on their interior pattern with LAPACK's band LU,
# wider ones with SuperLU (the stiffness is a band Cholesky at every
# bandwidth).  A band factor costs O(n kl^2) and has no per-column overhead.
# On the Hessians of square meshes the band LU takes 0.41 ms against
# SuperLU's 1.06 (in its kept order) at kl = 32 and 2.3 against 4.1 ms at
# kl = 48.  At kl = 64 its lead is 10% (7.4 against 8.2 ms) while a band
# solve costs 1.8 times SuperLU's, and at kl = 96 the band LU loses, 19
# against 15 ms (``benchmarks/analyze_once.py lu``, BLAS on one thread).
_BAND_MAX = 56

# SuperLU's supernode relaxation and panel size, in columns, for every LU:
# the thin factors of these meshes gain nothing from wider supernodes, which
# cost more to set up than they save (SuperLU's defaults are 10 and 20).
_RELAX = 2
_PANEL_SIZE = 2


def _splu(S: scipy.sparse.csc_matrix,
          permc_spec: str = "MMD_AT_PLUS_A") -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of the symmetric CSC matrix S, factored as symmetric:
    minimum-degree order on S + S^T (or S's own order, for ``"NATURAL"``)
    and the diagonal pivot wherever it is nonzero, so the row order equals
    the column order unless a diagonal pivot vanishes; it never does when S
    is positive definite.  Supernodes are small (``_RELAX``,
    ``_PANEL_SIZE``).  Raises RuntimeError when S is singular.  It factors
    every matrix on the interior pattern that is solved with on a mesh
    wider than _BAND_MAX (``Mesh.interior_pattern_lu``) and, on every mesh,
    the sparse part of J'' whose inertia the solver's Morse count reads
    (``Mesh.interior_pattern_splu``)."""
    return scipy.sparse.linalg.splu(S, permc_spec=permc_spec, diag_pivot_thresh=0.0,
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


class _PermutedLU(NamedTuple):
    """The LU of S renumbered: ``lu`` factors the matrix whose entry (i, j)
    is S[order[i], order[j]], so S x = r is solved as
    ``lu.solve(r[order])`` placed back at ``order``.  By Sylvester's law
    the renumbered matrix has S's inertia."""

    lu: scipy.sparse.linalg.SuperLU
    order: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S^{-1} rhs, for one right-hand side or a column of them."""
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x


class _PatternOrder:
    """A symmetric ``BlockPattern`` renumbered by the column order
    ``perm_c`` of an LU on it: row and column r become perm_c[r].
    ``renumbered`` holds ``data_map``, which sends the data of any matrix on
    the pattern to the renumbered CSC arrays, and that renumbered matrix,
    which SuperLU then factors in natural order.  Both are built at the
    first factorization, so a mesh with one LU on its pattern builds
    neither; the matrix is kept and refilled for each factorization, and
    SuperLU copies the values it factors."""

    def __init__(self, pattern: BlockPattern, perm_c: np.ndarray):
        self.pattern, self.perm_c = pattern, perm_c
        self.order = np.argsort(perm_c)

    @cached_property
    def renumbered(self) -> tuple[np.ndarray, scipy.sparse.csc_matrix]:
        """(data_map, matrix): the gather from pattern data to the
        renumbered CSC data, and the renumbered matrix."""
        pattern, perm_c = self.pattern, self.perm_c
        n = len(pattern.indptr) - 1
        rows = perm_c[pattern.indices]
        cols = np.repeat(perm_c, np.diff(pattern.indptr))
        # column-major, rows sorted; each (row, col) pair occurs once
        data_map = np.argsort(cols.astype(np.int64) * n + rows)
        new_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=new_indptr[1:])
        matrix = scipy.sparse.csc_matrix(
            (np.zeros(len(rows)), rows[data_map].astype(np.int32), new_indptr),
            shape=(n, n))
        return data_map, matrix

    def factor(self, data: np.ndarray) -> _PermutedLU:
        """The symmetric LU of the matrix with pattern data ``data``."""
        data_map, matrix = self.renumbered
        matrix.data = data[data_map]
        return _PermutedLU(_splu(matrix, "NATURAL"), self.order)


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

    coords = np.take(vertices, elements, axis=0)
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
