import numpy as np
import pytest

from ttlearn.transforms import (
    OrthogonalTransform,
    data_driven_transform,
    dct_transform,
    identity_transform,
    validate_orthogonal,
)


def test_identity_transform_small():
    np.testing.assert_array_equal(identity_transform(1).matrix, [[1.0]])
    np.testing.assert_array_equal(identity_transform(3).matrix, np.eye(3))


def test_identity_requires_positive_size():
    # the DCT shares the rule
    for make in (identity_transform, dct_transform):
        with pytest.raises(ValueError, match="n3 must be >= 1"):
            make(0)


def test_dct_n1_is_one():
    np.testing.assert_allclose(dct_transform(1).matrix, [[1.0]])


def test_dct_n2_matches_hand_values():
    # evaluating the DCT-II formula at n3=2 by hand
    expected = np.array([[0.70710678, 0.70710678], [0.70710678, -0.70710678]])
    np.testing.assert_allclose(dct_transform(2).matrix, expected, atol=1e-8)


def test_dct_orthogonality():
    mat = dct_transform(8).matrix
    np.testing.assert_allclose(mat @ mat.T, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("n3", [1, 2, 5, 16])
def test_constructors_pass_validation(n3):
    assert validate_orthogonal(identity_transform(n3).matrix)
    assert validate_orthogonal(dct_transform(n3).matrix)


def test_validate_rejects_non_orthogonal():
    assert not validate_orthogonal(np.ones((2, 2)))
    assert not validate_orthogonal(np.ones((2, 3)))


def test_transform_constructor_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not orthogonal"):
        OrthogonalTransform(np.ones((2, 2)))


def test_data_driven_n3_one():
    pilot = np.random.default_rng(0).standard_normal((4, 3, 1))
    np.testing.assert_allclose(data_driven_transform(pilot).matrix, [[1.0]])


def test_data_driven_pilot_must_be_third_order():
    with pytest.raises(ValueError, match="third-order"):
        data_driven_transform(np.ones((3, 4)))


def test_data_driven_zero_pilot_rejected():
    with pytest.raises(ValueError, match="zero"):
        data_driven_transform(np.zeros((3, 3, 2)))


def test_data_driven_orthogonal_rows_pilot_gives_signed_permutation():
    # unfold3(pilot) has orthogonal rows with distinct scales, so the left
    # singular vectors are coordinate axes ordered by scale
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    rows = (q * np.array([1.0, 3.0, 2.0])).T  # scales 1, 3, 2
    pilot = rows.T.reshape(3, 4, 3, order="F")
    mat = data_driven_transform(pilot).matrix
    perm = np.abs(mat) > 0.5
    np.testing.assert_array_equal(perm.sum(axis=0), [1, 1, 1])
    np.testing.assert_array_equal(perm.sum(axis=1), [1, 1, 1])
    # descending scale order: first row picks the scale-3 original row
    assert perm[0, 1] and perm[1, 2] and perm[2, 0]


def test_data_driven_rows_diagonalize_gram():
    rng = np.random.default_rng(2)
    pilot = rng.standard_normal((6, 5, 4))
    n1, n2, n3 = pilot.shape
    unfolding = pilot.reshape(n1 * n2, n3, order="F").T
    mat = data_driven_transform(pilot).matrix
    gram = mat @ (unfolding @ unfolding.T) @ mat.T
    off_diag = gram - np.diag(np.diag(gram))
    assert np.linalg.norm(off_diag) <= 1e-8
    # eigenvalues sorted descending
    diag = np.diag(gram)
    assert np.all(np.diff(diag) <= 1e-10)


def test_data_driven_deterministic():
    rng = np.random.default_rng(3)
    pilot = rng.standard_normal((5, 4, 3))
    first = data_driven_transform(pilot).matrix
    second = data_driven_transform(pilot.copy()).matrix
    np.testing.assert_array_equal(first, second)


def test_data_driven_sign_convention():
    rng = np.random.default_rng(4)
    pilot = rng.standard_normal((5, 4, 3))
    mat = data_driven_transform(pilot).matrix
    peaks = np.abs(mat).argmax(axis=1)
    assert np.all(mat[np.arange(3), peaks] >= 0)


def test_data_driven_requests_no_square_right_factor(monkeypatch):
    # the n3 x n1*n2 unfolding's full right factor would be (n1*n2)^2 and is never used
    real_svd, requested = np.linalg.svd, []

    def recorded_svd(a, full_matrices=True, **kwargs):
        requested.append((np.shape(a), full_matrices))
        return real_svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    rng = np.random.default_rng(0)
    data_driven_transform(rng.standard_normal((30, 30, 10)))
    assert requested == [((10, 900), False)]
    # with fewer columns than rows the full left factor is still square
    u = data_driven_transform(rng.standard_normal((2, 2, 8)))
    assert u.matrix.shape == (8, 8)
    assert validate_orthogonal(u.matrix)
