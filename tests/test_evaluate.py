import numpy as np
import pytest

import oracles
from conftest import random_dataset
from sparsemsvm.data import make_synthetic
from sparsemsvm.evaluate import (count_nonzero_groups, count_nonzeros,
                                 evaluate_model, hinge_sum, objective_value,
                                 predict)
from sparsemsvm.model import BlockStructure, ModelVector, RegularizerSpec
from sparsemsvm.prox import prox_regularizer_aug
from sparsemsvm.solvers import SolverConfig, solve_regularized_fbpd


def test_predict_tie_rule_zero_model():
    m = ModelVector.zeros(4, 3)
    assert predict(m, np.zeros(3)) == 1


def test_predict_offsets_decide():
    m = ModelVector(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]))
    assert predict(m, np.array([5.0, -2.0])) == 2


def test_predict_batch_and_dim_check(rng):
    m = ModelVector(rng.standard_normal((3, 4)), rng.standard_normal(3))
    X = rng.standard_normal((10, 4))
    batch = predict(m, X)
    assert batch.shape == (10,)
    assert all(predict(m, X[i]) == batch[i] for i in range(10))
    with pytest.raises(ValueError):
        predict(m, np.zeros(5))


def test_predict_scale_invariance(rng):
    m = ModelVector(rng.standard_normal((4, 3)), rng.standard_normal(4))
    X = rng.standard_normal((25, 3))
    base = predict(m, X)
    scaled = ModelVector(3.7 * m.weights, 3.7 * m.offsets)
    np.testing.assert_array_equal(predict(scaled, X), base)


def test_zero_hinge_sum_implies_zero_training_errors():
    ds = make_synthetic(2, 5, 30, separation=8.0, seed=0)
    rep = solve_regularized_fbpd(ds, RegularizerSpec("l2sq"),
                                 SolverConfig(lam=100.0, max_iter=200000,
                                              rel_tol=1e-10))
    assert rep.hinge_sum < 1e-6
    preds = predict(rep.model, ds.features)
    assert np.sum(preds != ds.labels + 1) == 0


class TestCountNonzeros:
    def test_zero_model(self):
        counts = count_nonzeros(ModelVector.zeros(3, 5))
        np.testing.assert_array_equal(counts, [0, 0, 0])

    def test_l1_prox_kills_everything(self, rng):
        aug = rng.uniform(-1, 1, (2, 7))
        m = ModelVector.from_augmented(prox_regularizer_aug(aug, RegularizerSpec("l1"), 1.0))
        np.testing.assert_array_equal(count_nonzeros(m), [0, 0])

    def test_threshold_behavior(self):
        m = ModelVector(np.array([[2e-5, 1e-5, 0.5]]), np.array([9.0]))
        np.testing.assert_array_equal(count_nonzeros(m), [2])  # strict >
        np.testing.assert_array_equal(count_nonzeros(m, threshold=1e-4), [1])
        with pytest.raises(ValueError):
            count_nonzeros(m, threshold=-1.0)

    def test_offsets_excluded(self):
        m = ModelVector(np.zeros((2, 3)), np.array([5.0, -5.0]))
        np.testing.assert_array_equal(count_nonzeros(m), [0, 0])


def test_count_nonzero_groups_modes():
    W = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0]])
    m = ModelVector(W, np.zeros(2))
    per = RegularizerSpec("l12", BlockStructure.contiguous(4, 2))
    assert count_nonzero_groups(m, per) == 2
    cross = RegularizerSpec("l12", BlockStructure.contiguous(4, 2, mode="cross-class"))
    assert count_nonzero_groups(m, cross) == 2
    with pytest.raises(ValueError):
        count_nonzero_groups(m, RegularizerSpec("l1"))

    # unequal sizes {0,1}, {2,3}, {4}: the short last group is counted too
    W = np.array([[1.0, 0.0, 0.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0, 0.0, 0.0]])
    m = ModelVector(W, np.zeros(2))
    per = RegularizerSpec("l12", BlockStructure.contiguous(5, 2))
    assert count_nonzero_groups(m, per) == 3
    cross = RegularizerSpec("l12", BlockStructure.contiguous(5, 2, mode="cross-class"))
    assert count_nonzero_groups(m, cross) == 2


class TestObjectiveValue:
    def test_zero_model_values(self, rng):
        ds = random_dataset(rng)
        m = ModelVector.zeros(ds.n_classes, ds.n_features)
        obj = objective_value(m, ds, RegularizerSpec("l1"), lam=2.0)
        assert obj.g_value == 0.0
        assert obj.hinge_sum == pytest.approx(ds.margins.sum())
        assert obj.total == pytest.approx(2.0 * ds.margins.sum())

    def test_unit_margin_zero_model(self):
        ds = make_synthetic(3, 4, 12, seed=1)
        m = ModelVector.zeros(3, 4)
        assert objective_value(m, ds, RegularizerSpec("l1"), lam=1.0).hinge_sum == 12.0

    def test_matches_direct_reimplementation(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            aug = rng.standard_normal((ds.n_classes, ds.n_features + 1))
            m = ModelVector.from_augmented(aug)
            lam = float(rng.uniform(0.1, 3.0))
            obj = objective_value(m, ds, RegularizerSpec("l2sq"), lam=lam)
            want = oracles.reg_value_direct(aug, "l2sq") \
                + lam * oracles.hinge_objective(aug, ds)
            assert obj.total == pytest.approx(want, rel=1e-10)

    def test_constrained_mode_total_is_g(self, rng):
        ds = random_dataset(rng)
        m = ModelVector(np.ones((ds.n_classes, ds.n_features)),
                        np.zeros(ds.n_classes))
        obj = objective_value(m, ds, RegularizerSpec("l1"))
        assert obj.total == obj.g_value


def test_evaluate_model_report(rng):
    ds = make_synthetic(3, 4, 30, separation=5.0, seed=2)
    m = ModelVector.zeros(3, 4)
    rep = evaluate_model(m, ds, RegularizerSpec("l1"), lam=1.0)
    # zero model predicts class 1 everywhere; classes are balanced
    assert rep.error_count == 20
    assert rep.error_rate == pytest.approx(2 / 3)
    assert rep.nonzero_groups is None
    spec = RegularizerSpec("l12", BlockStructure.contiguous(4, 2))
    rep = evaluate_model(m, ds, spec, lam=1.0)
    assert rep.nonzero_groups == 0


def test_hinge_sum_matches_multiclass_hinge_rows(rng):
    from sparsemsvm.linop import _apply_T_aug
    from sparsemsvm.model import make_margin_offsets
    ds = random_dataset(rng)
    m = ModelVector(rng.standard_normal((ds.n_classes, ds.n_features)),
                    rng.standard_normal(ds.n_classes))
    Y = _apply_T_aug(m.augmented(), ds)
    r = make_margin_offsets(ds)
    want = sum((Y[i] + r[i]).max() for i in range(ds.n_samples))
    assert hinge_sum(m, ds) == pytest.approx(want, rel=1e-12)
