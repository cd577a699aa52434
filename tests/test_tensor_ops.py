import numpy as np
import pytest

import ttlearn.tensor_ops as top
from ttlearn.penalties import Penalty, dc_smooth_grad, penalty_value, svt
from ttlearn.transforms import dct_transform, identity_transform


def random_tensor(rng, shape):
    return rng.standard_normal(shape)


def bdiag(xhat):
    """Dense block-diagonal matrix of transformed frontal slices (oracle helper)."""
    n1, n2, n3 = xhat.shape
    out = np.zeros((n1 * n3, n2 * n3))
    for k in range(n3):
        out[k * n1 : (k + 1) * n1, k * n2 : (k + 1) * n2] = xhat[:, :, k]
    return out


class TestUnfoldFold:
    def test_unfold_1x1x2(self):
        x = np.array([[[2.0, 5.0]]])
        np.testing.assert_array_equal(top.unfold3(x), [[2.0], [5.0]])

    def test_unfold_2x2x1_column_major(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]]).reshape(2, 2, 1)
        np.testing.assert_array_equal(top.unfold3(x), [[1.0, 2.0, 3.0, 4.0]])

    def test_unfold_entry_indexing(self):
        rng = np.random.default_rng(0)
        x = random_tensor(rng, (3, 4, 2))
        m = top.unfold3(x)
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    assert m[k, i + j * 3] == x[i, j, k]

    def test_fold_examples(self):
        np.testing.assert_array_equal(
            top.fold3(np.array([[7.0], [8.0]]), (1, 1, 2)), [[[7.0, 8.0]]]
        )
        np.testing.assert_array_equal(top.fold3(np.zeros((2, 6)), (3, 2, 2)), np.zeros((3, 2, 2)))

    def test_round_trips(self):
        rng = np.random.default_rng(1)
        for shape in [(4, 3, 5), (3, 4, 6), (1, 1, 1)]:
            x = random_tensor(rng, shape)
            np.testing.assert_array_equal(top.fold3(top.unfold3(x), shape), x)
            m = top.unfold3(x)
            np.testing.assert_array_equal(top.unfold3(top.fold3(m, shape)), m)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError, match="fold"):
            top.fold3(np.zeros((2, 5)), (2, 3, 2))


class TestTransformApplication:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(2)
        x = random_tensor(rng, (4, 3, 3))
        np.testing.assert_allclose(top.apply_transform(x, identity_transform(3)), x)

    def test_matches_unfold_definition(self):
        rng = np.random.default_rng(3)
        x = random_tensor(rng, (5, 4, 3))
        u = dct_transform(3)
        expected = top.fold3(u.matrix @ top.unfold3(x), x.shape)
        np.testing.assert_allclose(top.apply_transform(x, u), expected, atol=1e-13)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        x = random_tensor(rng, (5, 4, 3))
        u = dct_transform(3)
        back = top.inverse_transform(top.apply_transform(x, u), u)
        np.testing.assert_allclose(back, x, rtol=1e-14, atol=1e-14)

    def test_constant_tubes_concentrate_under_dct(self):
        # a length-2 tube of ones maps to (sqrt(2), 0) under the 2-point DCT
        x = np.ones((2, 2, 2))
        xhat = top.apply_transform(x, dct_transform(2))
        np.testing.assert_allclose(xhat[:, :, 0], np.sqrt(2) * np.ones((2, 2)), atol=1e-12)
        np.testing.assert_allclose(xhat[:, :, 1], np.zeros((2, 2)), atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(5)
        for u in (identity_transform(4), dct_transform(4)):
            x = random_tensor(rng, (6, 5, 4))
            before = top.fro_norm(x)
            after = top.fro_norm(top.apply_transform(x, u))
            assert abs(after - before) <= 1e-12 * before

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="transform size"):
            top.apply_transform(np.zeros((2, 2, 3)), dct_transform(4))

    def test_zero_tensor_maps_to_zero(self):
        u = dct_transform(3)
        np.testing.assert_array_equal(top.inverse_transform(np.zeros((2, 2, 3)), u), 0.0)


class TestTProduct:
    def test_identity_tensor_is_neutral(self):
        rng = np.random.default_rng(6)
        u = dct_transform(3)
        a = random_tensor(rng, (4, 4, 3))
        eye = top.t_identity(4, 3, u)
        np.testing.assert_allclose(top.t_product(a, eye, u), a, atol=1e-12)

    def test_degenerate_case_is_matrix_product(self):
        rng = np.random.default_rng(7)
        a = random_tensor(rng, (3, 4, 1))
        b = random_tensor(rng, (4, 2, 1))
        got = top.t_product(a, b, identity_transform(1))
        np.testing.assert_allclose(got[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-13)

    def test_matches_block_diagonal_oracle(self):
        rng = np.random.default_rng(8)
        u = dct_transform(4)
        a = random_tensor(rng, (3, 2, 4))
        b = random_tensor(rng, (2, 5, 4))
        prod = bdiag(top.apply_transform(a, u)) @ bdiag(top.apply_transform(b, u))
        expected_hat = np.stack(
            [prod[k * 3 : (k + 1) * 3, k * 5 : (k + 1) * 5] for k in range(4)], axis=2
        )
        expected = top.inverse_transform(expected_hat, u)
        np.testing.assert_allclose(top.t_product(a, b, u), expected, atol=1e-12)

    def test_shape_errors(self):
        u = dct_transform(2)
        with pytest.raises(ValueError, match="inner"):
            top.t_product(np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), u)
        with pytest.raises(ValueError, match="third"):
            top.t_product(np.zeros((2, 3, 2)), np.zeros((3, 3, 3)), u)


class TestTTranspose:
    def test_n3_one_is_matrix_transpose(self):
        rng = np.random.default_rng(9)
        x = random_tensor(rng, (3, 5, 1))
        got = top.t_transpose(x, identity_transform(1))
        np.testing.assert_array_equal(got[:, :, 0], x[:, :, 0].T)

    def test_double_transpose(self):
        rng = np.random.default_rng(10)
        u = dct_transform(4)
        x = random_tensor(rng, (5, 3, 4))
        np.testing.assert_array_equal(top.t_transpose(top.t_transpose(x, u), u), x)

    def test_symmetric_slices_fixed(self):
        rng = np.random.default_rng(11)
        u = dct_transform(3)
        sym_hat = np.zeros((4, 4, 3))
        for k in range(3):
            m = rng.standard_normal((4, 4))
            sym_hat[:, :, k] = m + m.T
        x = top.inverse_transform(sym_hat, u)
        np.testing.assert_allclose(top.t_transpose(x, u), x, atol=1e-12)

    def test_product_transpose_identity(self):
        rng = np.random.default_rng(12)
        u = dct_transform(3)
        a = random_tensor(rng, (4, 2, 3))
        b = random_tensor(rng, (2, 5, 3))
        lhs = top.t_transpose(top.t_product(a, b, u), u)
        rhs = top.t_product(top.t_transpose(b, u), top.t_transpose(a, u), u)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTSVD:
    def test_zero_tensor(self):
        f = top.t_svd(np.zeros((3, 4, 2)), dct_transform(2))
        np.testing.assert_array_equal(f.sigma, np.zeros((2, 3)))

    def test_diagonal_slice(self):
        x = np.diag([3.0, 1.0]).reshape(2, 2, 1)
        f = top.t_svd(x, identity_transform(1))
        np.testing.assert_allclose(f.sigma, [[3.0, 1.0]])

    def test_sigma_matches_dense_block_svd(self):
        rng = np.random.default_rng(13)
        u = dct_transform(5)
        x = random_tensor(rng, (8, 6, 5))
        f = top.t_svd(x, u)
        xhat = top.apply_transform(x, u)
        for k in range(5):
            np.testing.assert_allclose(
                f.sigma[k], np.linalg.svd(xhat[:, :, k], compute_uv=False), atol=1e-10
            )

    def test_reconstruction_and_factor_orthogonality(self):
        rng = np.random.default_rng(14)
        for u in (identity_transform(3), dct_transform(3)):
            x = random_tensor(rng, (5, 4, 3))
            f = top.t_svd(x, u)
            assert top.fro_norm(f.reconstruct() - x) <= 1e-10 * top.fro_norm(x)
            uhat = top.apply_transform(f.u_tensor, u)
            vhat = top.apply_transform(f.v_tensor, u)
            for k in range(3):
                np.testing.assert_allclose(uhat[:, :, k] @ uhat[:, :, k].T, np.eye(5), atol=1e-10)
                np.testing.assert_allclose(vhat[:, :, k] @ vhat[:, :, k].T, np.eye(4), atol=1e-10)
            assert np.all(np.diff(f.sigma, axis=1) <= 0)
            assert np.all(f.sigma >= 0)

    def test_t_product_chain_reconstruction(self):
        rng = np.random.default_rng(15)
        u = dct_transform(4)
        x = random_tensor(rng, (6, 3, 4))
        f = top.t_svd(x, u)
        chain = top.t_product(
            top.t_product(f.u_tensor, f.sigma_tensor(), u), top.t_transpose(f.v_tensor, u), u
        )
        assert top.fro_norm(chain - x) <= 1e-10 * top.fro_norm(x)


class TestSpectralQuantities:
    def test_zero_tensor_norms(self):
        u = dct_transform(2)
        z = np.zeros((3, 3, 2))
        assert top.tensor_nuclear_norm(z, u) == 0.0
        assert top.spectral_norm(z, u) == 0.0

    def test_diagonal_slices_identity_transform(self):
        x = np.zeros((2, 2, 2))
        x[:, :, 0] = np.diag([2.0, 1.0])
        x[:, :, 1] = np.diag([3.0, 0.0])
        u = identity_transform(2)
        assert top.tensor_nuclear_norm(x, u) == pytest.approx(6.0)
        assert top.spectral_norm(x, u) == pytest.approx(3.0)

    def test_nuclear_norm_is_block_matrix_nuclear_norm(self):
        rng = np.random.default_rng(16)
        u = dct_transform(4)
        x = random_tensor(rng, (6, 5, 4))
        dense = np.linalg.svd(bdiag(top.apply_transform(x, u)), compute_uv=False).sum()
        assert top.tensor_nuclear_norm(x, u) == pytest.approx(dense, rel=1e-10)

    def test_spectral_below_nuclear(self):
        rng = np.random.default_rng(17)
        u = dct_transform(3)
        for _ in range(200):
            x = random_tensor(rng, (4, 3, 3))
            assert top.spectral_norm(x, u) <= top.tensor_nuclear_norm(x, u) + 1e-12

    def test_nuclear_norm_triangle_inequality(self):
        rng = np.random.default_rng(18)
        u = dct_transform(3)
        for _ in range(50):
            a = random_tensor(rng, (5, 4, 3))
            b = random_tensor(rng, (5, 4, 3))
            lhs = top.tensor_nuclear_norm(a + b, u)
            rhs = top.tensor_nuclear_norm(a, u) + top.tensor_nuclear_norm(b, u)
            assert lhs <= rhs + 1e-8

    def test_spectral_nuclear_pairing(self):
        rng = np.random.default_rng(19)
        u = dct_transform(3)
        for _ in range(50):
            a = random_tensor(rng, (4, 4, 3))
            b = random_tensor(rng, (4, 4, 3))
            lhs = abs(top.inner_prod(a, b))
            assert lhs <= top.spectral_norm(a, u) * top.tensor_nuclear_norm(b, u) + 1e-8


class TestMultiRank:
    def test_zero_tensor(self):
        np.testing.assert_array_equal(top.multi_rank(np.zeros((3, 3, 2)), dct_transform(2)), [0, 0])

    def test_mixed_diagonal_slices(self):
        x = np.zeros((2, 2, 2))
        x[:, :, 0] = np.diag([5.0, 0.0])
        x[:, :, 1] = np.diag([1.0, 1.0])
        np.testing.assert_array_equal(top.multi_rank(x, identity_transform(2)), [1, 2])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            top.multi_rank(np.zeros((2, 2, 2)), identity_transform(2), tol=-1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite"):
            top.multi_rank(np.ones((2, 2, 2)), identity_transform(2), tol=tol)


class TestBoxAndNorms:
    def test_project_box_inside_unchanged(self):
        x = np.full((2, 2, 2), 0.5)
        np.testing.assert_array_equal(top.project_box(x, 1.0), x)

    def test_project_box_clamps(self):
        x = np.array([[[2.5, -3.0]]])
        np.testing.assert_array_equal(top.project_box(x, 1.0), [[[1.0, -1.0]]])
        np.testing.assert_array_equal(top.project_box(x, 2.0), [[[2.0, -2.0]]])

    def test_project_box_idempotent(self):
        rng = np.random.default_rng(20)
        x = 3 * rng.standard_normal((4, 3, 2))
        once = top.project_box(x, 1.5)
        np.testing.assert_array_equal(top.project_box(once, 1.5), once)

    def test_project_box_bad_radius(self):
        with pytest.raises(ValueError):
            top.project_box(np.zeros((1, 1, 1)), 0.0)

    def test_norms_zero(self):
        z = np.zeros((2, 3, 2))
        assert top.fro_norm(z) == 0.0
        assert top.inf_norm(z) == 0.0
        assert top.inner_prod(z, z) == 0.0

    def test_norms_all_ones(self):
        x = np.ones((2, 2, 2))
        assert top.fro_norm(x) == pytest.approx(np.sqrt(8))
        assert top.inf_norm(x) == 1.0

    def test_inner_is_squared_fro(self):
        rng = np.random.default_rng(21)
        x = random_tensor(rng, (3, 4, 2))
        assert top.inner_prod(x, x) == pytest.approx(top.fro_norm(x) ** 2)

    def test_inner_matches_slice_trace_oracle(self):
        rng = np.random.default_rng(22)
        a = random_tensor(rng, (4, 3, 5))
        b = random_tensor(rng, (4, 3, 5))
        oracle = sum(np.trace(a[:, :, k].T @ b[:, :, k]) for k in range(5))
        assert top.inner_prod(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_inner_shape_mismatch(self):
        with pytest.raises(ValueError):
            top.inner_prod(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_as_tensor3_rejects_bad_input():
    with pytest.raises(ValueError, match="third-order"):
        top.as_tensor3(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        top.as_tensor3(np.full((1, 1, 1), np.nan))


@pytest.mark.parametrize(
    "call",
    [
        top.apply_transform,
        top.inverse_transform,
        top.transformed_singular_values,
        lambda x, u: svt(x, 0.5, u),
        lambda x, u: penalty_value(x, u, Penalty("mcp", lam=1.0, gamma=2.7)),
        lambda x, u: svt(x, 0.0, u),
        lambda x, u: dc_smooth_grad(x, u, Penalty("convex", lam=1.0)),
        lambda x, u: top.t_product(x, np.zeros((2, 2, 2)), u),
        lambda x, u: top.t_product(np.zeros((2, 2, 2)), x, u),
    ],
    ids=["apply_transform", "inverse_transform", "transformed_singular_values", "svt",
         "penalty_value", "svt_tau_zero", "convex_dc_smooth_grad", "t_product_left",
         "t_product_right"],
)
def test_transform_entry_points_reject_a_matrix(call):
    with pytest.raises(ValueError, match="expected a third-order tensor, got ndim=2"):
        call(np.zeros((2, 2)), identity_transform(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda x, u: svt(x, 0.0, u),
        lambda x, u: dc_smooth_grad(x, u, Penalty("convex", lam=1.0)),
    ],
    ids=["svt_tau_zero", "convex_dc_smooth_grad"],
)
def test_early_returns_reject_a_transform_of_the_wrong_size(call):
    with pytest.raises(ValueError, match="transform size 2 does not match n3=3"):
        call(np.zeros((2, 2, 3)), dct_transform(2))


def test_reconstruction_over_random_corpus():
    from ttlearn.transforms import data_driven_transform

    rng = np.random.default_rng(23)
    for trial in range(100):
        shape = (rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 5))
        x = rng.standard_normal(shape)
        transforms = (
            identity_transform(shape[2]),
            dct_transform(shape[2]),
            data_driven_transform(rng.standard_normal(shape)),
        )
        for u in transforms:
            f = top.t_svd(x, u)
            err = top.fro_norm(f.reconstruct() - x)
            assert err <= 1e-10 * max(top.fro_norm(x), 1e-12)


def _layouts(x):
    """``x`` as a contiguous array and as three non-contiguous views of the same values."""
    n1, n2, n3 = x.shape
    wide = np.zeros((n1, n2, 2 * n3))
    wide[:, :, ::2] = x
    return {
        "contiguous": x,
        "transposed": np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2),
        "slices-last": np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0),
        "strided": wide[:, :, ::2],
    }


class TestKernelsMatchReferenceFormulas:
    """The GEMM transforms and the norm equal the formulas they replaced, bit for bit."""

    @pytest.mark.parametrize("kind", ["identity", "dct", "data"])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (10, 10, 3), (7, 5, 4), (30, 30, 10), (3, 2, 12)])
    def test_transforms_equal_tensordot(self, kind, shape):
        from ttlearn.transforms import data_driven_transform

        rng = np.random.default_rng(sum(shape))
        n3 = shape[2]
        u = {
            "identity": lambda: identity_transform(n3),
            "dct": lambda: dct_transform(n3),
            "data": lambda: data_driven_transform(rng.standard_normal(shape)),
        }[kind]()
        for name, x in _layouts(rng.standard_normal(shape)).items():
            forward = np.tensordot(x, u.matrix, axes=([2], [1]))
            backward = np.tensordot(x, u.matrix, axes=([2], [0]))
            assert np.array_equal(top.apply_transform(x, u), forward), name
            assert np.array_equal(top.inverse_transform(x, u), backward), name

    def test_slice_views_equal_moveaxis(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        first = top._slices_first(x)
        assert first.strides == np.moveaxis(x, 2, 0).strides
        assert np.shares_memory(first, x) and np.array_equal(first, np.moveaxis(x, 2, 0))
        last = top._slices_last(first)
        assert last.strides == x.strides and np.array_equal(last, x)

    @pytest.mark.parametrize(
        "x",
        [
            np.zeros((2, 3, 2)),
            np.random.default_rng(31).standard_normal((10, 10, 3)),
            np.random.default_rng(32).standard_normal((30, 30, 10)) * 1e-160,
            np.random.default_rng(33).standard_normal((4, 5, 6)).transpose(2, 0, 1),
            [[[1, 2], [3, 4]]],
            7,
        ],
        ids=["zero", "small", "tiny-values", "transposed", "int-list", "int"],
    )
    def test_fro_norm_equals_sqrt_of_sum_of_squares(self, x):
        expected = np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2))
        got = top.fro_norm(x)
        assert type(got) is float
        assert got == float(expected)
