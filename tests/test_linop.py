import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import oracles
from conftest import random_dataset
from sparsemsvm import linop
from sparsemsvm.linop import (_apply_T_adjoint_aug, _apply_T_aug, features_aug_norm,
                              operator_norm)
from sparsemsvm.data import make_synthetic
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
        adj = _apply_T_adjoint_aug(y, ds)
        # row-major for CSR features too, so the primal step runs in place
        assert adj.flags.c_contiguous
        rhs = np.vdot(x.augmented(), adj)
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


def test_operator_norm_nonconvergence_flag(monkeypatch):
    # one Lanczos restart is too few for this spectrum; both norms run out
    monkeypatch.setattr(linop, "EXACT_GRAM_MAX_SIDE", 0)
    monkeypatch.setattr(linop, "_LANCZOS_MAX_RESTARTS", 1)
    rng = np.random.default_rng(0)
    ds = Dataset.from_arrays(rng.standard_normal((200, 200)), np.arange(200) % 3, n_classes=3)
    for est in (operator_norm(ds), features_aug_norm(ds)):
        assert not est.converged and np.isnan(est.value)
        assert est.iterations > 1
        with pytest.raises(ValueError, match=f"did not converge in {est.iterations} "
                                             "Lanczos products$"):
            est.checked()


def test_features_aug_norm(rng):
    for _ in range(10):
        ds = random_dataset(rng)
        feats = ds.dense_features()
        aug = np.hstack([feats, np.ones((ds.n_samples, 1))])
        truth = np.linalg.svd(aug, compute_uv=False)[0]
        est = features_aug_norm(ds)
        assert abs(est.value - truth) <= 0.011 * truth



def _norm_case(name, sparse):
    """Datasets for the exact norms. `tall` (L > M+1) and `wide` (L <= M+1)
    put the smaller Gram on either side; the others are edge cases."""
    rng = np.random.default_rng(7)
    L, M, K = {"tall": (9, 2, 3), "wide": (3, 6, 3), "one-class": (4, 3, 1),
               "one-sample": (1, 3, 3), "zero-features": (5, 3, 3),
               "empty-class": (6, 4, 4)}[name]
    X = np.zeros((L, M)) if name == "zero-features" else rng.standard_normal((L, M))
    labels = np.arange(L) % K
    if name == "empty-class":
        labels = np.where(labels == 1, 2, labels)  # class 1 has no samples
    if sparse:
        X[rng.random((L, M)) < 0.4] = 0.0
        X = sp.csr_matrix(X)
    return Dataset.from_arrays(X, labels, n_classes=K)


NORM_CASES = ["tall", "wide", "one-class", "one-sample", "zero-features", "empty-class"]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("name", NORM_CASES)
def test_exact_operator_norm_matches_dense_svd(name, sparse):
    ds = _norm_case(name, sparse)
    truth = 1.01 * np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)[0]
    est = operator_norm(ds)
    assert (est.converged, est.iterations) == (True, 0)
    # both Grams, whichever operator_norm picks
    for value in (est.value, linop._exact_norm(linop._gram_TTt(ds)).value,
                  linop._exact_norm(linop._gram_TtT(ds)).value):
        if name == "one-class":
            assert value == 0.0  # T is zero with one class
        else:
            assert value == pytest.approx(truth, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("name", NORM_CASES)
def test_exact_features_aug_norm_matches_dense_svd(name, sparse):
    ds = _norm_case(name, sparse)
    aug = np.hstack([ds.dense_features(), np.ones((ds.n_samples, 1))])
    truth = 1.01 * np.linalg.svd(aug, compute_uv=False)[0]
    est = features_aug_norm(ds)
    assert (est.converged, est.iterations) == (True, 0)
    for value in (est.value, linop._exact_norm(linop._gram_rows(ds.features)).value,
                  linop._exact_norm(linop._gram_cols(ds.features)).value):
        assert value == pytest.approx(truth, rel=1e-12, abs=0.0)


def test_exact_operator_norm_memory_stays_small():
    # the leukemia shape: T would be 114 x 21 390 (19.5 MB), the features 2.2 MB
    ds = make_synthetic(3, 7129, 38, seed=0)
    tracemalloc.start()
    try:
        est = operator_norm(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.iterations == 0
    assert peak < 0.25 * ds.features.nbytes, peak


def _large_case(L, M, K, sparse):
    """A dataset whose two Grams of T, or of [F, 1] for K=1, both have side
    over EXACT_GRAM_MAX_SIDE."""
    rng = np.random.default_rng(L + M + K)
    X = rng.standard_normal((L, M))
    if sparse:
        X[rng.random((L, M)) < 0.6] = 0.0
        X = sp.csr_matrix(X)
    ds = Dataset.from_arrays(X, np.arange(L) % K, n_classes=K)
    assert min(L * K, K * (M + 1)) > linop.EXACT_GRAM_MAX_SIDE
    return ds


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_lanczos_operator_norm_matches_dense_svd(sparse):
    ds = _large_case(140, 150, 3, sparse)  # Gram sides 420 and 453
    truth = np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)[0]
    est = operator_norm(ds)
    assert est.converged and est.iterations > 0
    assert est.value == pytest.approx(1.01 * truth, rel=1e-8, abs=0.0)
    assert est.value >= truth
    assert operator_norm(ds) == est  # the same bits on every call


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_lanczos_features_aug_norm_matches_dense_svd(sparse):
    ds = _large_case(410, 401, 1, sparse)  # Gram sides 410 and 402
    aug = np.hstack([ds.dense_features(), np.ones((ds.n_samples, 1))])
    truth = np.linalg.svd(aug, compute_uv=False)[0]
    est = features_aug_norm(ds)
    assert est.converged and est.iterations > 0
    assert est.value == pytest.approx(1.01 * truth, rel=1e-8, abs=0.0)
    assert est.value >= truth
    assert features_aug_norm(ds) == est


@pytest.mark.parametrize("norm, L, M, K, side", [
    (operator_norm, 140, 150, 3, 420),  # T T^T, against T^T T of side 453
    (operator_norm, 150, 140, 3, 423),  # T^T T, against T T^T of side 450
    (features_aug_norm, 401, 410, 1, 401),  # the rows' Gram, against side 411
    (features_aug_norm, 410, 401, 1, 402),  # the columns' Gram, against side 410
])
def test_lanczos_runs_on_the_smaller_gram(monkeypatch, norm, L, M, K, side):
    ds = _large_case(L, M, K, False)
    if norm is operator_norm:
        truth = np.linalg.svd(oracles.dense_T_matrix(ds), compute_uv=False)[0]
    else:
        truth = np.linalg.svd(np.hstack([ds.dense_features(), np.ones((L, 1))]),
                              compute_uv=False)[0]
    sides = []

    def eigsh(A, *args, inner=scipy.sparse.linalg.eigsh, **kwargs):
        sides.append(A.shape)
        return inner(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    est = norm(ds)
    assert sides == [(side, side)]
    assert est.converged and est.value == pytest.approx(1.01 * truth, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("K, M, L, exact", [
    (10, 15, 40, True),       # the tiny shape, criterion 8's
    (3, 7129, 38, True),      # the leukemia shape, perfbench's
    (10, 39, 40, True),       # side 400, the side up to which the Gram is exact
    (3, 7129, 140, True),     # side 420: exact in 10 ms, Lanczos in 88
    (3, 7129, 300, True),     # side 900: exact in 71 ms, Lanczos in 196
    (3, 7129, 500, False),    # side 1500: Lanczos in 220 ms, exact in 344
    (10, 2000, 100, False),   # side 1000: Lanczos in 31 ms, exact in 95
    (20, 40, 45, False),      # side 820 over few entries
    (20, 2000, 2000, False),  # the wide shape
])
def test_the_norm_rule_weighs_the_gram_against_the_lanczos_products(K, M, L, exact):
    # Grams that stand in for the real ones: the exact branch reads 0
    # products, the Lanczos branch stops after its first on a zero map
    est = linop._norm((L, K), (K, M + 1), lambda: np.eye(2), lambda: np.eye(2),
                      lambda v: np.zeros(1), lambda w: np.zeros(1), (L * M + L) * K)
    assert est.iterations == (0 if exact else 1)


def test_lanczos_restarts_are_seeded():
    # T of rank one: ARPACK draws fresh vectors for its restarts, and from a
    # fixed seed, so every call counts the same products
    ds = Dataset.from_arrays(np.ones((450, 250)), np.arange(450) % 2, n_classes=2)
    assert len({operator_norm(ds) for _ in range(4)}) == 1


def test_zero_operator_above_the_exact_limit():
    # one class makes T zero, which ARPACK cannot start from
    ds = _large_case(401, 400, 1, False)
    assert operator_norm(ds) == (0.0, True, 1)


def _restricted_case(n_active, K=3, M=2000, L=30, first=False):
    """A dense dataset and an iterate whose weights are nonzero in
    `n_active` columns only, random ones or the first, with nonzero
    offsets."""
    rng = np.random.default_rng(n_active)
    ds = make_synthetic(K, M, L, seed=1)
    x = np.zeros((K, M + 1))
    cols = np.arange(n_active) if first else rng.choice(M, n_active, replace=False)
    x[:, cols] = rng.standard_normal((K, n_active))
    x[:, -1] = rng.standard_normal(K)
    return ds, x


_M = 2000
_AT_SHARE = int(linop.ACTIVE_COLUMNS_MAX_SHARE * _M)


# the first cap + 1 columns all nonzero in row 0 settle a dense iterate
# without the full scan; the first cap columns alone do not
@pytest.mark.parametrize("count, first", [(0, False), (1, False), (_AT_SHARE, False),
                                          (_AT_SHARE + 1, False), (_AT_SHARE, True),
                                          (_AT_SHARE + 1, True), (_M, True)],
                         ids=["none", "one", "at-share", "above-share", "first-at-share",
                              "first-above-share", "dense"])
def test_T_over_the_active_columns_matches_the_full_product(count, first):
    ds, x = _restricted_case(count, M=_M, first=first)
    assert np.flatnonzero(x[:, :-1].any(axis=0)).size == count
    scores = ds.features @ x[:, :-1].T + x[:, -1]
    expected = scores - scores[np.arange(ds.n_samples), ds.labels][:, None]
    got = _apply_T_aug(x, ds)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    assert np.all(got[np.arange(ds.n_samples), ds.labels] == 0.0)
    assert linop._scores_aug(x, ds).flags.c_contiguous
    if count == 0:
        # no weight column enters: every score is its class's offset
        np.testing.assert_array_equal(linop._scores_aug(x, ds),
                                      np.broadcast_to(x[:, -1], (ds.n_samples, 3)))
    if count > _AT_SHARE:
        # above the share the scores are the full GEMM's, bit for bit
        full = np.add((x[:, :-1] @ ds.features.T).T, x[:, -1], order="C")
        np.testing.assert_array_equal(linop._scores_aug(x, ds), full)


def test_a_dense_iterate_with_a_zero_first_class_takes_the_full_product():
    ds, x = _restricted_case(_M, M=_M, first=True)
    x[0, :-1] = 0.0
    full = np.add((x[:, :-1] @ ds.features.T).T, x[:, -1], order="C")
    np.testing.assert_array_equal(linop._scores_aug(x, ds), full)


@pytest.mark.parametrize("count, first", [(5, False), (_AT_SHARE, True)],
                         ids=["five", "first-at-share"])
def test_T_below_the_share_never_reads_a_zero_weight_column(count, first):
    # a full GEMM would turn 0 * nan into nan; over the active columns the
    # nan column never enters
    ds, x = _restricted_case(count, M=_M, first=first)
    feats = ds.dense_features().copy()
    feats[:, np.flatnonzero(~x[:, :-1].any(axis=0))[::7]] = np.nan
    with_nan = Dataset(feats, ds.labels, ds.n_classes, ds.margins)
    np.testing.assert_array_equal(_apply_T_aug(x, with_nan), _apply_T_aug(x, ds))
