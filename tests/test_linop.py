import numpy as np
import pytest

import oracles
from conftest import random_dataset
from sparsemsvm.linop import (_apply_T_adjoint_aug, _apply_T_aug, features_aug_norm,
                              operator_norm)
from sparsemsvm.model import Dataset, ModelVector


def _random_model(rng, ds):
    return ModelVector(rng.standard_normal((ds.n_classes, ds.n_features)),
                       rng.standard_normal(ds.n_classes))


def test_apply_T_spec_cases():
    ds = Dataset.from_arrays(np.array([[1.0]]), [1], n_classes=2, one_based=True)
    x = ModelVector(np.array([[1.0], [0.0]]), np.zeros(2))
    np.testing.assert_array_equal(_apply_T_aug(x.augmented(), ds), [[0.0, -1.0]])
    zero = ModelVector.zeros(2, 1)
    np.testing.assert_array_equal(_apply_T_aug(zero.augmented(), ds), [[0.0, 0.0]])


def test_own_class_column_exact_zero(rng):
    for _ in range(20):
        ds = random_dataset(rng)
        Y = _apply_T_aug(_random_model(rng, ds).augmented(), ds)
        assert np.all(Y[np.arange(ds.n_samples), ds.labels] == 0.0)


def test_apply_T_matches_dense_matrix(rng):
    for _ in range(20):
        ds = random_dataset(rng)
        x = _random_model(rng, ds)
        T = oracles.dense_T_matrix(ds)
        expected = (T @ oracles.flatten_model(x)).reshape(ds.n_samples, ds.n_classes)
        np.testing.assert_allclose(_apply_T_aug(x.augmented(), ds), expected, atol=1e-12)


def test_linearity(rng):
    ds = random_dataset(rng, L=4, M=3, K=3)
    x1, x2 = _random_model(rng, ds), _random_model(rng, ds)
    a, b = 0.7, -1.3
    combo = ModelVector(a * x1.weights + b * x2.weights,
                        a * x1.offsets + b * x2.offsets)
    np.testing.assert_allclose(_apply_T_aug(combo.augmented(), ds),
                               a * _apply_T_aug(x1.augmented(), ds)
                               + b * _apply_T_aug(x2.augmented(), ds),
                               rtol=1e-12, atol=1e-12)


def test_adjoint_spec_case():
    ds = Dataset.from_arrays(np.array([[1.0]]), [1], n_classes=2, one_based=True)
    adj = _apply_T_adjoint_aug(np.array([[0.0, 1.0]]), ds)
    np.testing.assert_array_equal(adj, [[-1.0, -1.0], [1.0, 1.0]])
    # <Tx, y> = <x, T^T y> = -1 on this worked example
    x = ModelVector(np.array([[1.0], [0.0]]), np.zeros(2))
    assert np.vdot(_apply_T_aug(x.augmented(), ds), [[0.0, 1.0]]) == pytest.approx(-1.0)
    assert np.vdot(x.augmented(), adj) == pytest.approx(-1.0)


def test_adjoint_of_zero(rng):
    ds = random_dataset(rng)
    adj = _apply_T_adjoint_aug(np.zeros((ds.n_samples, ds.n_classes)), ds)
    assert adj.shape == (ds.n_classes, ds.n_features + 1)
    assert np.all(adj == 0.0)


@pytest.mark.parametrize("sparse", [False, True])
def test_adjoint_identity_random(rng, sparse):
    for _ in range(100):
        ds = random_dataset(rng, sparse=sparse)
        x = _random_model(rng, ds)
        y = rng.standard_normal((ds.n_samples, ds.n_classes))
        lhs = np.vdot(_apply_T_aug(x.augmented(), ds), y)
        rhs = np.vdot(x.augmented(), _apply_T_adjoint_aug(y, ds))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_operator_norm_single_sample_spec_case():
    ds = Dataset.from_arrays(np.array([[1.0]]), [1], n_classes=2, one_based=True)
    est = operator_norm(ds)
    assert est.converged
    # dense singular value is exactly 2; the estimate carries a 1% inflation
    assert est.value == pytest.approx(2.0, rel=0.011)
    assert est.value >= 2.0 * 0.999999


def test_operator_norm_zero_features_spec_case():
    ds = Dataset.from_arrays(np.array([[0.0, 0.0]]), [1], n_classes=2, one_based=True)
    est = operator_norm(ds)
    assert est.value == pytest.approx(np.sqrt(2.0), rel=0.011)


def test_operator_norm_matches_dense_svd(rng):
    for _ in range(25):
        ds = random_dataset(rng, L=int(rng.integers(1, 6)),
                            M=int(rng.integers(1, 5)), K=int(rng.integers(1, 4)))
        truth = np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)
        truth = truth[0] if truth.size else 0.0
        est = operator_norm(ds)
        if truth == 0.0:
            assert est.value == 0.0
            continue
        # epsilon for float noise: a tightly converged estimate sits exactly
        # at the 1% bound because of the 1.01 safety inflation
        assert abs(est.value - truth) <= 0.01 * truth + 1e-9
        assert est.value >= truth * (1.0 - 1e-9)  # safety factor keeps it an upper bound


def test_operator_norm_rejects_bad_tol():
    ds = Dataset.from_arrays(np.zeros((1, 1)), [0], n_classes=1)
    with pytest.raises(ValueError):
        operator_norm(ds, tol=0.0)


def test_operator_norm_nonconvergence_flag():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, L=6, M=4, K=3)
    est = operator_norm(ds, tol=1e-15, max_iter=2)
    assert not est.converged
    assert est.value > 0


def test_features_aug_norm(rng):
    for _ in range(10):
        ds = random_dataset(rng)
        feats = ds.dense_features()
        aug = np.hstack([feats, np.ones((ds.n_samples, 1))])
        truth = np.linalg.svd(aug, compute_uv=False)[0]
        est = features_aug_norm(ds)
        assert abs(est.value - truth) <= 0.011 * truth

