import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import scipy.linalg

from pxkirchhoff import (
    DomainError,
    GridFunction,
    Mesh,
    ShapeError,
    build_interval_mesh,
    build_rect_mesh,
    centroid_values,
    element_gradients,
    gradient_of,
    integrate,
)
from pxkirchhoff.discretization import _BandCholesky, _BandLU, _splu
from pxkirchhoff.energy import _hessian_of_elements, _point
from pxkirchhoff.exponents import constant_exponent
from oracles import (interior_bandwidth_by_elements, interior_pattern_by_unique,
                     mass_by_operators, stiffness_by_operators)


def test_uniform_interval():
    mesh = build_interval_mesh(4, 0.0, 1.0)
    assert mesh.n_vertices == 5 and mesh.n_elements == 4
    assert np.allclose(mesh.element_measures, 0.25)
    assert mesh.boundary_mask[0] and mesh.boundary_mask[-1]
    assert not mesh.boundary_mask[1:-1].any()

    mesh2 = build_interval_mesh(2, 0.0, 2.0)
    assert np.allclose(mesh2.element_measures, [1.0, 1.0])


def test_degenerate_interval_rejected():
    with pytest.raises(ShapeError):
        build_interval_mesh(1, 0.0, 1.0)
    with pytest.raises(ShapeError):
        build_interval_mesh(4, 1.0, 1.0)


@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("ends", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf),
                                  (np.nan, 1.0), (0.0, np.nan)])
def test_interval_with_an_end_that_is_not_finite_is_rejected(ends, n):
    # above 128 interior vertices an infinite end used to reach ARPACK
    with pytest.raises(ShapeError, match="needs finite ends and length"):
        build_interval_mesh(n, *ends)


def test_interval_whose_segments_are_not_sized_is_rejected():
    # finite ends whose length overflows, or whose segments round to nothing
    with pytest.raises(ShapeError, match="needs finite ends and length"):
        build_interval_mesh(10, -1e308, 1e308)
    with pytest.raises(ShapeError, match="round to zero length"):
        build_interval_mesh(10, 1.0, 1.0 + 4e-16)


@pytest.mark.parametrize("n", [8, 200])
@pytest.mark.parametrize("rect", [((0.0, 0.0), (np.inf, 1.0)), ((-np.inf, 0.0), (1.0, 1.0)),
                                  ((0.0, 0.0), (1.0, np.inf)), ((np.nan, 0.0), (1.0, 1.0)),
                                  ((0.0, 0.0), (1.0, np.nan))])
def test_rect_with_a_corner_that_is_not_finite_is_rejected(rect, n):
    with pytest.raises(ShapeError, match="needs finite corners and area"):
        build_rect_mesh(n, 2, rect)


def test_rect_whose_triangles_are_not_sized_is_rejected():
    # finite corners whose extent or area overflows, or whose triangles
    # round to nothing
    for rect in [((-1e308, 0.0), (1e308, 1.0)), ((0.0, 0.0), (1e200, 1e200))]:
        with pytest.raises(ShapeError, match="needs finite corners and area"):
            build_rect_mesh(4, 4, rect)
    with pytest.raises(ShapeError, match="round to zero area"):
        build_rect_mesh(10, 2, ((1.0, 0.0), (1.0 + 4e-16, 1.0)))


def test_rect_mesh_counts():
    mesh = build_rect_mesh(2, 2, ((0.0, 0.0), (1.0, 1.0)))
    assert mesh.n_vertices == 9 and mesh.n_elements == 8
    assert mesh.measure == pytest.approx(1.0, rel=1e-12)

    mesh32 = build_rect_mesh(3, 2, ((0.0, 0.0), (3.0, 1.0)))
    assert mesh32.measure == pytest.approx(3.0, rel=1e-12)


def test_rect_boundary_flags():
    mesh = build_rect_mesh(3, 3, ((0.0, 0.0), (1.0, 1.0)))
    on_edge = (
        (mesh.vertices[:, 0] == 0.0) | (mesh.vertices[:, 0] == 1.0)
        | (mesh.vertices[:, 1] == 0.0) | (mesh.vertices[:, 1] == 1.0)
    )
    assert np.array_equal(mesh.boundary_mask, on_edge)


def test_degenerate_rect_rejected():
    with pytest.raises(ShapeError):
        build_rect_mesh(2, 2, ((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ShapeError):
        build_rect_mesh(1, 2, ((0.0, 0.0), (1.0, 1.0)))


def _criss_cross_by_cells(nx, ny):
    """The elements of the criss-cross rectangle, cell by cell in row-major
    order, each cell split into (v00, v10, v11) and (v00, v11, v01)."""
    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris, dtype=int)


@pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (7, 3), (32, 32), (48, 48)])
def test_rect_elements_match_the_cell_loop(nx, ny):
    # equal arrays, dtype included, keep every element number (the dead
    # corner triangles 62 and 1985 at 32 x 32 among them)
    elements = build_rect_mesh(nx, ny, ((0.0, 0.0), (1.0, 2.0))).elements
    ref = _criss_cross_by_cells(nx, ny)
    assert elements.dtype == ref.dtype
    assert np.array_equal(elements, ref)


def test_gradient_affine_1d():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    grads = element_gradients(mesh, mesh.vertices[:, 0])
    assert np.allclose(grads, 1.0)
    assert np.allclose(element_gradients(mesh, np.zeros(11)), 0.0)


def test_gradient_tent():
    mesh = build_interval_mesh(10, 0.0, 1.0)
    x = mesh.vertices[:, 0]
    tent = GridFunction(mesh, 2.0 * np.minimum(x, 1.0 - x))
    grads = gradient_of(tent)[:, 0]
    assert np.allclose(grads[:5], 2.0) and np.allclose(grads[5:], -2.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_affine_reproduction(dim):
    rng = np.random.default_rng(5)
    if dim == 1:
        mesh = build_interval_mesh(13, -0.3, 1.7)
        coef = rng.standard_normal(2)
        values = coef[0] + coef[1] * mesh.vertices[:, 0]
        expected = coef[1:2]
    else:
        mesh = build_rect_mesh(4, 5, ((-1.0, 0.0), (2.0, 2.0)))
        coef = rng.standard_normal(3)
        values = coef[0] + mesh.vertices @ coef[1:]
        expected = coef[1:]
    grads = element_gradients(mesh, values)
    assert np.allclose(grads, expected[None, :], atol=1e-13)


def test_integrate_basics():
    mesh = build_interval_mesh(8, 0.0, 1.0)
    assert integrate(np.ones(8), mesh) == pytest.approx(1.0, rel=1e-12)
    assert integrate(np.full(8, 3.5), mesh) == pytest.approx(3.5, rel=1e-12)
    alternating = np.resize([1.0, -1.0], 8)
    assert integrate(alternating, mesh) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ShapeError):
        integrate(np.ones(7), mesh)


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(37, 0.2, 1.9),
        build_rect_mesh(5, 7, ((0.0, -1.0), (2.5, 1.0))),
    ],
)
def test_quadrature_total_measure(mesh):
    expected = 1.7 if mesh.dimension == 1 else 5.0
    assert integrate(np.ones(mesh.n_elements), mesh) == pytest.approx(
        expected, rel=1e-12
    )


def test_refinement_convergence_rate():
    # integral of |d/dx sin(pi x)|^2 over (0,1) is pi^2/2
    errors = []
    for n in (20, 40, 80):
        mesh = build_interval_mesh(n, 0.0, 1.0)
        u = GridFunction(mesh, np.sin(np.pi * mesh.vertices[:, 0]))
        grads = gradient_of(u)[:, 0]
        errors.append(abs(integrate(grads**2, mesh) - np.pi**2 / 2.0))
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0
    assert errors[2] < 2e-3


def test_gridfunction_zeroes_boundary():
    mesh = build_rect_mesh(3, 3, ((0.0, 0.0), (1.0, 1.0)))
    u = GridFunction(mesh, np.ones(mesh.n_vertices))
    assert np.all(u.nodal_values[mesh.boundary_mask] == 0.0)
    assert np.all(u.nodal_values[~mesh.boundary_mask] == 1.0)
    with pytest.raises(ShapeError):
        GridFunction(mesh, np.ones(3))
    # a non-finite value on the boundary is zeroed; one inside is refused
    values = np.ones(mesh.n_vertices)
    values[0], values[3] = np.nan, np.inf
    assert np.array_equal(GridFunction(mesh, values).nodal_values, u.nodal_values)
    for bad in (np.nan, np.inf, -np.inf):
        values[mesh.interior[0]] = bad
        with pytest.raises(DomainError, match="nodal values must be finite"):
            GridFunction(mesh, values)


def test_interval_stiffness_is_scaled_second_difference():
    mesh = build_interval_mesh(10, 0.0, 2.0)
    h = 0.2
    K = stiffness_by_operators(mesh).toarray()
    tridiag = (2.0 * np.eye(11) - np.eye(11, k=1) - np.eye(11, k=-1)) / h
    assert np.allclose(K[1:-1], tridiag[1:-1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(9, -1.0, 0.7),
        build_rect_mesh(4, 6, ((0.0, -1.0), (2.5, 1.0))),
    ],
)
def test_stiffness_rows_sum_to_zero_and_mass_sums_to_measure(mesh):
    # constants lie in the kernel of the gradient; the centroid rows sum to 1
    assert np.allclose(stiffness_by_operators(mesh).sum(axis=1), 0.0, rtol=0.0, atol=1e-12)
    assert mass_by_operators(mesh).sum() == pytest.approx(mesh.measure, rel=1e-13)


def test_centroid_map_and_cached_adjoints():
    mesh = build_rect_mesh(4, 3, ((0.0, 0.0), (1.0, 2.0)))
    u = GridFunction(mesh, np.random.default_rng(4).standard_normal(mesh.n_vertices))
    assert np.allclose(
        centroid_values(u), u.nodal_values[mesh.elements].mean(axis=1),
        rtol=1e-14, atol=1e-15,
    )
    assert np.array_equal(mesh.gradient_adjoint.toarray(), mesh.gradient_map.toarray().T)
    assert np.array_equal(mesh.centroid_adjoint.toarray(), mesh.centroid_map.toarray().T)


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(7, 0.0, 1.0),
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
])
def test_interior_pattern_matches_the_element_pairs(mesh):
    # brute force over elements: each pair of interior vertices of an element
    # is an entry, counted once per element that holds both
    position = {v: k for k, v in enumerate(mesh.interior)}
    counts = {}
    for tri in mesh.elements:
        for i in tri:
            for j in tri:
                if i in position and j in position:
                    key = (position[i], position[j])
                    counts[key] = counts.get(key, 0) + 1
    pattern = mesh.interior_pattern
    data = np.bincount(pattern.slot, minlength=len(pattern.indices))
    found = {}
    for row in range(len(mesh.interior)):
        for k in range(pattern.indptr[row], pattern.indptr[row + 1]):
            found[(row, int(pattern.indices[k]))] = int(data[k])
    assert found == counts
    for lo, hi in zip(pattern.indptr[:-1], pattern.indptr[1:]):
        assert np.all(np.diff(pattern.indices[lo:hi]) > 0)  # sorted rows
    nloc = mesh.dimension + 1
    keep = pattern.keep.reshape(nloc, nloc, mesh.n_elements)
    assert not keep[:, :, ~pattern.live].any()
    assert np.array_equal(pattern.live, ~mesh.boundary_mask[mesh.elements].all(axis=1))


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(7, 0.0, 1.0),
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
])
def test_hat_gradients_are_the_gradient_map(mesh):
    rng = np.random.default_rng(2)
    values = rng.standard_normal(mesh.n_vertices)
    grads = np.einsum("edi,ei->ed", mesh.hat_gradients, values[mesh.elements])
    assert np.allclose(grads, element_gradients(mesh, values), rtol=1e-13, atol=1e-13)
    # the hat gradients of an element sum to zero: constants have no gradient
    assert np.allclose(mesh.hat_gradients.sum(axis=2), 0.0, atol=1e-12)


def _wide_rect_mesh(ny, rect=((0.0, 0.0), (2.0, 1.0))):
    """A rect mesh of interior bandwidth nx = 57, wider than that of any
    benchmark mesh (mp2d 32, eig2d 48)."""
    return build_rect_mesh(57, ny, rect)


@pytest.mark.parametrize("mesh", [_wide_rect_mesh(3), _wide_rect_mesh(7)])
def test_interior_stiffness_lu_is_symmetric_and_solves(mesh):
    # on a wide mesh too the stiffness is a band Cholesky
    assert mesh.interior_bandwidth == 57
    lu = mesh.interior_stiffness_lu
    assert lu is mesh.interior_stiffness_lu  # factored once, on first use
    assert isinstance(lu, _BandCholesky)
    S = mesh.interior_pattern_matrix(mesh.interior_stiffness_data).toarray()
    rhs = np.random.default_rng(3).standard_normal(S.shape[0])
    ref = np.linalg.solve(S, rhs)
    assert np.linalg.norm(lu.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)


def _jittered_rect_mesh(nx, ny, seed):
    """A criss-cross mesh of the unit square with its interior vertices
    moved at random by up to a quarter of a cell."""
    mesh = build_rect_mesh(nx, ny, ((0.0, 0.0), (1.0, 1.0)))
    rng = np.random.default_rng(seed)
    vertices = mesh.vertices.copy()
    vertices[mesh.interior] += rng.uniform(-0.25, 0.25, (len(mesh.interior), 2)) / [nx, ny]
    e1, e2 = (vertices[mesh.elements[:, k]] - vertices[mesh.elements[:, 0]] for k in (1, 2))
    measures = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    return Mesh(2, vertices, mesh.elements, mesh.boundary_mask, measures)


@pytest.mark.parametrize("mesh", [build_interval_mesh(17, -0.3, 1.9),
                                  build_rect_mesh(7, 5, ((-0.5, 0.2), (1.3, 2.0)))],
                         ids=["1d", "2d"])
def test_hat_gradients_are_bitwise_the_element_major_gather(mesh):
    # the edge vectors come from a vertex-major gather; the element-major
    # gather gives the same differences, so the same bits
    d = mesh.dimension
    coords = np.take(mesh.vertices, mesh.elements, axis=0)
    edges = (coords[:, 1:] - coords[:, :1]).transpose(1, 2, 0)
    ref = np.empty((d, d + 1, mesh.n_elements))
    if d == 1:
        ref[0, 1] = 1.0 / edges[0, 0]
    else:
        (a, b), (c, e) = edges
        ref[:, 1:] = np.array([[e, -b], [-c, a]]) / (a * e - b * c)
    ref[:, 0] = -ref[:, 1:].sum(axis=1)
    assert np.array_equal(mesh.hat_gradients, ref.transpose(2, 0, 1))


@pytest.mark.parametrize("mesh", [
    Mesh(1, np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.5, 2.0, 9)])[:, None],
         np.column_stack([np.arange(9), np.arange(1, 10)]),
         np.r_[True, np.zeros(8, bool), True], np.ones(9)),
    _jittered_rect_mesh(7, 6, seed=5),
], ids=["1d_graded", "2d_jittered"])
def test_hat_gradients_match_the_inverted_edge_matrices(mesh):
    coords = mesh.vertices[mesh.elements]
    einv = np.linalg.inv(coords[:, 1:] - coords[:, :1])
    ref = np.concatenate([-einv.sum(axis=2, keepdims=True), einv], axis=2)
    assert np.max(np.abs(mesh.hat_gradients - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(12, 0.0, 1.0),
    _jittered_rect_mesh(7, 6, seed=9),
], ids=["1d", "2d_jittered"])
def test_element_map_products_are_scipys_bitwise(mesh):
    # the direct kernel call gives scipy's own product; any other operand
    # takes scipy's route, its checks included
    rng = np.random.default_rng(10)
    for name in ("gradient_map", "centroid_map", "gradient_adjoint", "centroid_adjoint"):
        A = getattr(mesh, name)
        plain = scipy.sparse.csr_matrix(A)
        x = rng.standard_normal(2 * A.shape[1])
        for v in (x[:A.shape[1]], x[::2]):  # contiguous and strided
            assert (A @ v).tobytes() == (plain @ v).tobytes()
        X = x[:2 * A.shape[1]].reshape(-1, 2)
        assert np.array_equal(A @ X, plain @ X)
        ints = np.arange(A.shape[1])
        assert np.array_equal(A @ ints, plain @ ints)
        assert np.array_equal((A @ plain.T).toarray(), (plain @ plain.T).toarray())
        with pytest.raises(ValueError, match="dimension mismatch"):
            A @ x


def test_interior_mass_is_the_interior_block_of_the_mass():
    mesh = _jittered_rect_mesh(5, 4, seed=6)
    idx = mesh.interior
    assert mesh.interior_mass is mesh.interior_mass  # built once, on first use
    assert mesh.interior_mass.format == "csc"
    ref = mass_by_operators(mesh)[np.ix_(idx, idx)].toarray()
    # 2-D: the element terms are added in another order than the product's
    assert np.abs(mesh.interior_mass.toarray() - ref).max() <= _SUM_ORDER_TOL * np.abs(ref).max()


def _interior_block(matrix, mesh):
    """The interior rows and columns of an operator product, as CSC."""
    return matrix[np.ix_(mesh.interior, mesh.interior)].tocsc()


def _same_structure(A, B):
    return (A.format == B.format == "csc" and A.shape == B.shape
            and np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices))


# the largest difference, relative to the largest entry, between an operator
# scattered from its element blocks and the operator product on a 2-D mesh:
# each entry sums the same terms in another order (measured: 1.35 eps)
_SUM_ORDER_TOL = 4 * np.finfo(float).eps


_OPERATOR_MESHES = {
    "1d_12": build_interval_mesh(12, 0.0, 1.0),
    "1d_400": build_interval_mesh(400, 0.0, 1.0),
    "1d_graded": Mesh(
        1, np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.5, 2.0, 9)])[:, None],
        np.column_stack([np.arange(9), np.arange(1, 10)]),
        np.r_[True, np.zeros(8, bool), True], np.ones(9)),
    "2d_32": build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0))),
    "2d_48": build_rect_mesh(48, 48, ((0.0, 0.0), (1.0, 1.0))),
    "2d_57x7": build_rect_mesh(57, 7, ((0.0, 0.0), (1.0, 1.0))),
    "2d_96": build_rect_mesh(96, 96, ((0.0, 0.0), (1.0, 1.0))),
    "2d_jittered_9x7": _jittered_rect_mesh(9, 7, seed=7),
    "2d_jittered_16x12": _jittered_rect_mesh(16, 12, seed=8),
}
OPERATOR_MESHES = pytest.mark.parametrize("mesh", list(_OPERATOR_MESHES.values()),
                                          ids=list(_OPERATOR_MESHES))


def _renumbered(mesh, seed):
    """``mesh`` with its vertices numbered in a random order."""
    order = np.random.default_rng(seed).permutation(mesh.n_vertices)  # new k is old order[k]
    return Mesh(mesh.dimension, mesh.vertices[order], np.argsort(order)[mesh.elements],
                mesh.boundary_mask[order], mesh.element_measures)


# interior vertex 0 lies in no element, so column 0 of the pattern is empty
_ISOLATED_VERTEX = Mesh(1, np.arange(5.0)[:, None], np.array([[1, 2], [2, 3], [3, 4]]),
                        np.array([False, True, False, False, True]), np.ones(3))


@pytest.mark.parametrize("mesh", [
    *_OPERATOR_MESHES.values(),
    build_interval_mesh(2, 0.0, 1.0),
    build_rect_mesh(2, 2, ((0.0, 0.0), (1.0, 1.0))),
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
    build_rect_mesh(8, 150, ((0.0, 0.0), (1.0, 1.0))),
    _wide_rect_mesh(3),
    _renumbered(build_rect_mesh(12, 9, ((0.0, 0.0), (1.0, 1.0))), seed=16),
    _renumbered(build_interval_mesh(30, 0.0, 1.0), seed=17),
    Mesh(1, np.array([[0.0], [1.0]]), np.array([[0, 1]]), np.array([True, True]),
         np.ones(1)),
    _ISOLATED_VERTEX,
], ids=[*_OPERATOR_MESHES, "1d_2", "2d_2", "2d_5x4", "2d_8x150", "2d_wide",
        "2d_renumbered", "1d_renumbered", "no_interior", "isolated_vertex"])
def test_interior_bandwidth_is_the_widest_spread_within_an_element(mesh):
    # read off the pattern, it is the element-based kl of the vertex positions
    assert mesh.interior_bandwidth == interior_bandwidth_by_elements(mesh)


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(12, 0.0, 1.0),
    _OPERATOR_MESHES["1d_graded"],
    build_rect_mesh(12, 12, ((0.0, 0.0), (1.0, 1.0))),
    _jittered_rect_mesh(9, 7, seed=7),
    _renumbered(build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0))), seed=18),
], ids=["1d_12", "1d_graded", "2d_12", "2d_jittered_9x7", "2d_renumbered"])
def test_dense_pattern_matrix_is_the_csc_toarray_bitwise(mesh):
    # entry k in row indices[k] of its CSC column, so a data vector that is
    # no symmetric matrix lands where the CSC matrix has it, and so do the
    # stiffness's exact zeros
    random = np.random.default_rng(19).standard_normal(len(mesh.interior_pattern.indices))
    for data in (random, mesh.interior_stiffness_data, mesh.interior_mass.data):
        dense, ref = mesh.interior_pattern_dense(data), mesh.interior_pattern_matrix(data).toarray()
        assert dense.dtype == ref.dtype and dense.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(12, 0.0, 1.0),
    _OPERATOR_MESHES["1d_graded"],
    build_rect_mesh(48, 48, ((0.0, 0.0), (1.0, 1.0))),
    _jittered_rect_mesh(16, 12, seed=8),
    _renumbered(build_rect_mesh(6, 5, ((-1.0, 0.5), (2.0, 1.0))), seed=20),
], ids=["1d_12", "1d_graded", "2d_48", "2d_jittered_16x12", "2d_renumbered"])
def test_element_centroids_are_the_vertex_mean_bitwise(mesh):
    ref = mesh.vertices[mesh.elements].mean(axis=1)
    assert mesh.element_centroids.shape == ref.shape
    assert mesh.element_centroids.tobytes() == ref.tobytes()


@OPERATOR_MESHES
def test_interior_stiffness_and_mass_are_the_operator_products(mesh):
    # the stiffness's exact zeros, +0.0, are where the products have no
    # entry; they are eliminated from a copy, as the pattern's index arrays
    # are read-only.  In 1-D every entry sums at most two terms, so the
    # values are the products' bit for bit; in 2-D the element terms are
    # added in another order than the products'
    data = mesh.interior_stiffness_data
    assert not np.signbit(data[data == 0.0]).any()
    stiffness = mesh.interior_pattern_matrix(data).copy()
    stiffness.eliminate_zeros()
    for got, ref in [(stiffness, _interior_block(stiffness_by_operators(mesh), mesh)),
                     (mesh.interior_mass, _interior_block(mass_by_operators(mesh), mesh))]:
        assert _same_structure(got, ref)
        if mesh.dimension == 1:
            assert got.data.tobytes() == ref.data.tobytes()
        else:
            assert np.abs(got.data - ref.data).max() <= _SUM_ORDER_TOL * np.abs(ref.data).max()
    assert mesh.interior_stiffness_data is mesh.interior_stiffness_data  # built once


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(400, 0.0, 1.0),
    build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0))),
    build_rect_mesh(56, 3, ((0.0, 0.0), (2.0, 1.0))),
    _jittered_rect_mesh(9, 7, seed=7),
    _wide_rect_mesh(3),
], ids=["1d_400", "2d_32", "2d_56x3", "2d_jittered", "2d_wide"])
def test_band_cholesky_is_dpbtrf_of_the_operator_band(mesh):
    # the upper triangle of the stiffness, entry (i, j) in row kl + i - j of
    # column j of a band of kl + 1 rows, factored by LAPACK
    K, kl = mesh.interior_pattern_matrix(mesh.interior_stiffness_data), mesh.interior_bandwidth
    n = K.shape[0]
    band = np.zeros((kl + 1, n), order="F")
    cols = np.repeat(np.arange(n), np.diff(K.indptr))
    upper = K.indices <= cols
    band[kl + K.indices[upper] - cols[upper], cols[upper]] = K.data[upper]
    factor, info = scipy.linalg.lapack.dpbtrf(band)
    assert info == 0
    assert isinstance(mesh.interior_stiffness_lu, _BandCholesky)
    assert mesh.interior_stiffness_lu.factor.tobytes() == factor.tobytes()


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(12, 0.0, 1.0),
    build_interval_mesh(400, 0.0, 1.0),
    build_rect_mesh(2, 2, ((0.0, 0.0), (1.0, 1.0))),
    build_rect_mesh(32, 32, ((0.0, 0.0), (1.0, 1.0))),
    build_rect_mesh(48, 48, ((0.0, 0.0), (1.0, 1.0))),
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
], ids=["1d_12", "1d_400", "2d_2", "2d_32", "2d_48", "2d_5x4"])
def test_interior_pattern_is_bitwise_the_unique_construction(mesh):
    # the sort-and-cumsum build gives np.unique's pattern, dtypes included
    pattern = mesh.interior_pattern
    for name, got, ref in zip(pattern._fields, pattern, interior_pattern_by_unique(mesh)):
        assert got.dtype == ref.dtype, name
        assert got.shape == ref.shape and np.array_equal(got, ref), name


def _pattern_matrix(mesh, rng):
    """A random nonsingular matrix on the interior pattern, from symmetric
    element blocks."""
    nloc = mesh.dimension + 1
    blocks = rng.standard_normal((nloc, nloc, mesh.n_elements))
    blocks = blocks + blocks.transpose(1, 0, 2) + 4.0 * nloc * np.eye(nloc)[:, :, None]
    pattern = mesh.interior_pattern
    data = pattern.scatter(blocks)
    n = len(mesh.interior)
    return scipy.sparse.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(40, 0.0, 1.0),
    _jittered_rect_mesh(57, 3, seed=7),
], ids=["1d", "2d"])
def test_pattern_splu_is_the_splu_of_the_matrix_of_its_data(mesh):
    # every symmetric SuperLU on the pattern builds the matrix of its data
    # (interior_pattern_matrix) and orders it by minimum degree, as an LU of
    # that matrix does, and solves as it does; it keeps nothing on the mesh
    rng = np.random.default_rng(9)
    n, cached = len(mesh.interior), set(vars(mesh)) | {"interior", "interior_pattern"}
    for _ in range(3):
        S = _pattern_matrix(mesh, rng)
        built = mesh.interior_pattern_matrix(S.data)
        assert built.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(built, name), getattr(S, name))
        lu, fresh = mesh.interior_pattern_splu(S.data), _splu(S)
        assert np.array_equal(lu.perm_c, fresh.perm_c)
        assert np.array_equal(lu.perm_r, lu.perm_c)  # every pivot on the diagonal
        assert lu.L.nnz == fresh.L.nnz and lu.U.nnz == fresh.U.nnz
        rhs = rng.standard_normal((n, 2))
        ref = fresh.solve(rhs)
        assert np.max(np.abs(lu.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(lu.solve(rhs[:, 0]) - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref))
        assert set(vars(mesh)) == cached


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(7, 0.0, 1.0),
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
])
def test_hat_gram_blocks_assemble_the_stiffness(mesh):
    gram = mesh.hat_gram
    assert gram is mesh.hat_gram  # built once, on first use
    ref = np.einsum("edi,edj->ije", mesh.hat_gradients, mesh.hat_gradients)
    assert np.allclose(gram, ref, rtol=1e-14, atol=0.0)
    K = mesh.interior_pattern_matrix(mesh.interior_pattern.scatter(gram * mesh.element_measures))
    S = mesh.interior_pattern_matrix(mesh.interior_stiffness_data)
    assert abs(K - S).max() <= 1e-13 * abs(S).max()


SCATTER_MESHES = pytest.mark.parametrize("mesh", [
    build_interval_mesh(12, 0.0, 1.0),
    _OPERATOR_MESHES["1d_graded"],
    build_rect_mesh(5, 4, ((0.0, 0.0), (2.0, 1.0))),
    _jittered_rect_mesh(9, 7, seed=7),
    _renumbered(build_rect_mesh(6, 5, ((0.0, 0.0), (1.0, 1.0))), seed=18),
    _ISOLATED_VERTEX,
], ids=["1d_12", "1d_graded", "2d_5x4", "2d_jittered_9x7", "2d_renumbered", "isolated_vertex"])


@SCATTER_MESHES
def test_scatter_adds_each_kept_block_entry_at_its_interior_positions(mesh):
    # the dense reference adds entry (i, j, e) of the blocks, which need not
    # be symmetric, at the interior positions of vertices i and j of element
    # e, in CSR order, and drops it where either vertex is on the boundary
    nloc, n = mesh.dimension + 1, len(mesh.interior)
    blocks = np.random.default_rng(21).standard_normal((nloc, nloc, mesh.n_elements))
    position = np.full(mesh.n_vertices, -1)
    position[mesh.interior] = np.arange(n)
    local = position[mesh.elements].T  # (d+1, n_e)
    rows, cols = np.broadcast_arrays(local[:, None], local[None])
    kept = (rows >= 0) & (cols >= 0)
    ref = np.zeros((n, n))
    np.add.at(ref, (rows[kept], cols[kept]), blocks[kept])
    pattern = mesh.interior_pattern
    got = scipy.sparse.csr_matrix((pattern.scatter(blocks), pattern.indices, pattern.indptr),
                                  shape=(n, n)).toarray()
    assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * np.abs(blocks).max())


@SCATTER_MESHES
def test_interior_stiffness_is_the_hessian_of_the_p2_integral(mesh):
    # at p = 2, A(u) = I(|grad u|^2 / 2) is quadratic: A'' is the stiffness
    # at every point, and the Hessian kernel with K = 1 and no lower-order
    # term assembles it from the Gram blocks
    u = np.random.default_rng(22).standard_normal(mesh.n_vertices)
    data, _ = _hessian_of_elements(mesh, constant_exponent(2.0, mesh), _point(mesh, u),
                                   1.0, 0.0)
    stiffness = mesh.interior_stiffness_data
    assert data.shape == stiffness.shape
    assert np.abs(data - stiffness).max() <= _SUM_ORDER_TOL * np.abs(stiffness).max()


@pytest.mark.parametrize("mesh, kl", [
    (build_interval_mesh(400, 0.0, 1.0), 1),
    (_jittered_rect_mesh(9, 7, seed=7), 9),
    (build_rect_mesh(8, 150, ((0.0, 0.0), (1.0, 1.0))), 8),
    (build_rect_mesh(56, 3, ((0.0, 0.0), (2.0, 1.0))), 56),
    (_wide_rect_mesh(3), 57),
], ids=["1d_400", "2d_9x7", "2d_8x150", "2d_56x3", "2d_wide"])
def test_the_bandwidth_only_sizes_the_band_factors(mesh, kl):
    # the factors are the same at every bandwidth, which only sizes the
    # band arrays of the stiffness's Cholesky and of every pattern LU
    pattern, n = mesh.interior_pattern, len(mesh.interior)
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    assert mesh.interior_bandwidth == kl == np.max(np.abs(pattern.indices - rows))
    data = _pattern_matrix(mesh, np.random.default_rng(12)).data
    cholesky, lu = mesh.interior_stiffness_lu, mesh.interior_pattern_lu(data)
    assert isinstance(cholesky, _BandCholesky) and cholesky.factor.shape == (kl + 1, n)
    assert isinstance(lu, _BandLU) and lu.kl == kl and lu.lu.shape == (3 * kl + 1, n)
    assert isinstance(mesh.interior_pattern_splu(data), scipy.sparse.linalg.SuperLU)


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(40, 0.0, 1.0),
    _jittered_rect_mesh(9, 7, seed=7),
    build_rect_mesh(56, 3, ((0.0, 0.0), (2.0, 1.0))),
], ids=["1d", "2d", "2d_56x3"])
def test_band_factors_solve_as_superlu_does(mesh):
    rng = np.random.default_rng(13)
    n = len(mesh.interior)
    factors = [(mesh.interior_stiffness_lu,
                mesh.interior_pattern_matrix(mesh.interior_stiffness_data))]
    assert factors[0][0] is mesh.interior_stiffness_lu  # factored once, on first use
    for _ in range(2):
        S = _pattern_matrix(mesh, rng)
        factors.append((mesh.interior_pattern_lu(S.data), S))
    assert [type(f) for f, _ in factors] == [_BandCholesky, _BandLU, _BandLU]
    for factor, S in factors:
        rhs = rng.standard_normal((n, 2))
        ref = _splu(S).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(factor.solve(rhs[:, 0]) - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", [
    build_interval_mesh(40, 0.0, 1.0),
    _jittered_rect_mesh(9, 7, seed=7),
], ids=["1d", "2d"])
def test_a_singular_band_matrix_raises_as_superlu_does(mesh):
    n, pattern = len(mesh.interior), mesh.interior_pattern
    data = _pattern_matrix(mesh, np.random.default_rng(14)).data
    cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
    data[(pattern.indices == n // 2) | (cols == n // 2)] = 0.0  # a zero row and column
    for singular in (data, np.zeros_like(data)):
        with pytest.raises(RuntimeError, match="Factor is exactly singular"):
            _splu(mesh.interior_pattern_matrix(singular))
        with pytest.raises(RuntimeError, match="Factor is exactly singular"):
            mesh.interior_pattern_lu(singular)
