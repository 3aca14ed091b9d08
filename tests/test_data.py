import math
import os
import tempfile
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsemsvm import data
from sparsemsvm.data import (DataFormatError, apply_standardize, load_dense_csv,
                             load_sparse_svmlight, load_standardize_stats,
                             make_synthetic, save_dense_csv,
                             save_sparse_svmlight, save_standardize_stats,
                             split, standardize)
from sparsemsvm.evaluate import predict
from sparsemsvm.model import Dataset, RegularizerSpec
from sparsemsvm.solvers import SolverConfig, solve_regularized_fbpd


class TestDenseCsv:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,0.5,1.5\n2,-1,0\n")
        ds = load_dense_csv(p)
        assert ds.n_samples == 2 and ds.n_features == 2 and ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])
        np.testing.assert_array_equal(ds.dense_features(), [[0.5, 1.5], [-1, 0]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_dense_csv(p)

    @pytest.mark.parametrize("text", ["", "\n\n", " \r\n"])
    def test_an_empty_file_warns_nothing(self, tmp_path, text):
        p = tmp_path / "e.csv"
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataFormatError, match=r"e\.csv: empty file"):
                load_dense_csv(p)
        assert caught == []

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,1,2\n2,3\n")
        with pytest.raises(DataFormatError):
            load_dense_csv(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("1,abc\n")
        with pytest.raises(DataFormatError):
            load_dense_csv(p)
        p.write_text("x,1.0\n")
        with pytest.raises(DataFormatError):
            load_dense_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_names_its_line(self, tmp_path, cell):
        p = tmp_path / "f.csv"
        p.write_text(f"1,0.5,1.5\n\n2,{cell},0\n")
        with pytest.raises(DataFormatError, match=r"f\.csv:3: non-finite"):
            load_dense_csv(p)

    @pytest.mark.parametrize("cell", [" 1.5", "1_0", "0x10", "", "infinity", "+nan", "1d5",
                                      "--1", "1e", "\u0661.\u0665", "4.9e-324", "-0"])
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        p = tmp_path / "c.csv"
        p.write_text(f"1,0.5,{cell},2\n", encoding="utf-8")
        try:
            value = float(cell)
        except ValueError:
            with pytest.raises(DataFormatError, match=r"c\.csv:1: non-numeric"):
                load_dense_csv(p)
            return
        if not math.isfinite(value):
            with pytest.raises(DataFormatError, match=r"c\.csv:1: non-finite"):
                load_dense_csv(p)
            return
        got = load_dense_csv(p).dense_features()[0, 1]
        assert got.tobytes() == np.float64(value).tobytes()

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=200, deadline=None)
    def test_finite_matrices_load_back_bitwise(self, X):
        ds = Dataset.from_arrays(X, np.arange(X.shape[0]) % 2, n_classes=2)
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "m.csv")
            save_dense_csv(p, ds)
            again = load_dense_csv(p).dense_features()
        assert again.tobytes() == X.tobytes()

    def test_round_trip(self, tmp_path, rng):
        ds = make_synthetic(3, 5, 20, seed=3)
        p = tmp_path / "rt.csv"
        save_dense_csv(p, ds)
        again = load_dense_csv(p)
        np.testing.assert_array_equal(again.dense_features(), ds.dense_features())
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.n_classes == ds.n_classes


# cells of every kind the two CSV reads meet: labels in and out of range
# (2**53 and above leave the one-pass read, 2**63 and above int64), the
# spellings that only float() or int() accepts, non-finite and empty cells
CSV_LABEL = st.one_of(
    st.integers(1, 3).map(str),
    st.sampled_from(["0", "-1", "4", " 2 ", "+1", "1_0", "\u0662", "2.0", "x", "", "\ufeff1",
                     "9007199254740992", "9007199254740993", "9223372036854775807",
                     "9223372036854775808", "99999999999999999999999"]))
CSV_ODD_CELL = st.sampled_from([
    " 1.5", "1_0", "0x10", "", "infinity", "+nan", "1d5", "--1", "1e", "\u0661.\u0665",
    "4.9e-324", "-0", "nan", "-inf", "1e999", "2.5 ", "\t-3", "\xa07", "1#2", "1 2", "2\x00"])
CSV_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10 ** 20, 10 ** 20).map(str))


@st.composite
def csv_files(draw):
    """(bytes, n_classes) of a CSV file: rows of one width, with blank,
    whitespace-only and ragged lines among them, LF or CRLF endings and
    maybe a byte-order mark; no rows at all makes an empty file."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            n = width if kind == "row" else draw(st.sampled_from([0, width - 1, width + 1]))
            cells = [draw(CSV_ODD_CELL if draw(st.integers(0, 15)) == 0 else CSV_CELL)
                     for _ in range(n)]
            label = draw(CSV_LABEL if draw(st.integers(0, 7)) == 0 else st.integers(1, 3).map(str))
            lines.append(",".join([label] + cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    bom = draw(st.sampled_from(["", "", "", "\ufeff"]))
    return (bom + text).encode("utf-8"), draw(st.one_of(st.none(), st.integers(1, 4)))


def _outcome(read):
    """What a read gives: the dataset's features (bytes, shape and layout),
    labels and class count, or the message of its DataFormatError."""
    try:
        ds = read()
    except DataFormatError as exc:
        return str(exc)
    feats = ds.features
    return feats.tobytes(), feats.shape, feats.flags.c_contiguous, ds.labels.tolist(), ds.n_classes


@given(csv_files())
@example((b"1,0.5\n9007199254740993,2\n", None))  # read as float, it would be 2**53
@example((b"9223372036854775807,1\n", None))
# below 2**53, but too many classes for 300 features: the pass leaves it to the loop
@example((b"1" + b",1" * 300 + b"\n4503599627370496" + b",2" * 300 + b"\n", None))
@example((b"1,1\n2,inf\n", None))
@example((b"\r\n \r\n", None))
@example((b"3,1\n", 2))
@example((b"0,1\n", None))
@settings(max_examples=400, deadline=None)
def test_the_one_pass_read_is_the_row_loops(file):
    content, n_classes = file
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        p = os.path.join(tmp, "x.csv")
        with open(p, "wb") as fh:
            fh.write(content)
        loop = _outcome(lambda: Dataset.from_arrays(*data._read_dense_csv_rows(p, n_classes),
                                                    n_classes=n_classes, one_based=True))
        assert _outcome(lambda: load_dense_csv(p, n_classes)) == loop


class TestSvmlight:
    def test_single_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("2 1:0.5 7:1.0\n")
        ds = load_sparse_svmlight(p, n_features=7)
        assert ds.n_samples == 1 and ds.n_features == 7
        row = ds.dense_features()[0]
        np.testing.assert_array_equal(row, [0.5, 0, 0, 0, 0, 0, 1.0])
        assert ds.labels[0] == 1  # 0-based internal

    def test_duplicate_index_rejected(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("1 2:1.0 2:3.0\n")
        with pytest.raises(DataFormatError):
            load_sparse_svmlight(p)

    def test_decreasing_index_rejected(self, tmp_path):
        p = tmp_path / "dec.txt"
        p.write_text("1 3:1.0 2:3.0\n")
        with pytest.raises(DataFormatError):
            load_sparse_svmlight(p)

    @pytest.mark.parametrize("line", ["1 0:1.5", "1 -2:1.5", "1 2:1.0 0:1.5", "1 2:1.0 -3:1.5"])
    def test_an_index_below_one_is_not_1_based(self, tmp_path, line):
        p = tmp_path / "z.txt"
        p.write_text(f"2 1:1.0\n{line}\n")
        index = line.split()[-1].split(":")[0]
        with pytest.raises(DataFormatError, match=rf"^.*z\.txt:2: indices are 1-based \(got {index}\)$"):
            load_sparse_svmlight(p)

    def test_bad_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2:1.0 oops\n")
        with pytest.raises(DataFormatError):
            load_sparse_svmlight(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        p = tmp_path / "f.txt"
        p.write_text(f"1 1:0.5\n2\n# note\n3 2:1.0 4:{value}\n1 1:2.0\n")
        with pytest.raises(DataFormatError, match=r"f\.txt:4: non-finite"):
            load_sparse_svmlight(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\n1 1:2.0  # trailing\n")
        ds = load_sparse_svmlight(p)
        assert ds.n_samples == 1

    def test_round_trip(self, tmp_path, rng):
        X = rng.standard_normal((6, 5))
        X[rng.random((6, 5)) < 0.6] = 0.0
        from sparsemsvm.model import Dataset
        ds = Dataset.from_arrays(sp.csr_matrix(X), rng.integers(0, 3, 6), n_classes=3)
        p = tmp_path / "rt.txt"
        save_sparse_svmlight(p, ds)
        again = load_sparse_svmlight(p, n_features=5)
        np.testing.assert_array_equal(again.dense_features(), ds.dense_features())
        np.testing.assert_array_equal(again.labels, ds.labels)


class TestStandardize:
    def test_constant_feature_centered(self):
        from sparsemsvm.model import Dataset
        X = np.array([[1.0, 5.0], [3.0, 5.0]])
        ds = Dataset.from_arrays(X, [0, 1], n_classes=2)
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.dense_features()[:, 1], 0.0)
        assert stats.scale[1] == 1.0

    def test_constant_column_with_inexact_mean(self):
        # three 0.1 entries average to 0.10000000000000002: the column is
        # still constant, so it gets scale 1 and maps to exact zeros
        X = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]])
        out, stats = standardize(Dataset.from_arrays(X, [0, 1, 0], n_classes=2))
        assert stats.scale[0] == 1.0
        np.testing.assert_array_equal(out.dense_features()[:, 0], [0.0, 0.0, 0.0])
        col = X[:, 1]
        np.testing.assert_array_equal(out.dense_features()[:, 1],
                                      (col - col.mean()) / col.std())

    def test_already_standardized_near_identity(self, rng):
        X = rng.standard_normal((500, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        from sparsemsvm.model import Dataset
        ds = Dataset.from_arrays(X, rng.integers(0, 2, 500), n_classes=2)
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.dense_features(), X, atol=1e-10)

    def test_stats_replay_matches(self, rng, tmp_path):
        from sparsemsvm.model import Dataset
        X = rng.standard_normal((40, 4)) * 3 + 1
        ds = Dataset.from_arrays(X, rng.integers(0, 2, 40), n_classes=2)
        _, stats = standardize(ds)
        Y = rng.standard_normal((10, 4))
        test = Dataset.from_arrays(Y, rng.integers(0, 2, 10), n_classes=2)
        replayed = apply_standardize(test, stats)
        np.testing.assert_allclose(replayed.dense_features(),
                                   (Y - stats.mean) / stats.scale)
        p = tmp_path / "st.stats"
        save_standardize_stats(p, stats)
        loaded = load_standardize_stats(p)
        np.testing.assert_array_equal(loaded.mean, stats.mean)
        np.testing.assert_array_equal(loaded.scale, stats.scale)

    def test_sparse_scaled_not_centered(self, rng):
        X = rng.standard_normal((30, 6)) * 2 + 0.5
        X[rng.random(X.shape) < 0.6] = 0.0
        X[:, 2] = 0.0  # all-zero column keeps scale 1
        X[:, 4] = 0.1  # constant, with a mean that does not round to 0.1
        ds = Dataset.from_arrays(sp.csr_matrix(X), rng.integers(0, 2, 30), n_classes=2)
        out, stats = standardize(ds)
        assert sp.issparse(out.features)
        assert out.features.nnz == ds.features.nnz
        np.testing.assert_array_equal(stats.mean, 0.0)
        scale = np.where(np.ptp(X, axis=0) > 0, X.std(axis=0), 1.0)
        np.testing.assert_allclose(stats.scale, scale, rtol=1e-12)
        assert stats.scale[2] == stats.scale[4] == 1.0
        np.testing.assert_allclose(out.dense_features(), X / scale, rtol=1e-12)

        Y = rng.standard_normal((5, 6))
        Y[rng.random(Y.shape) < 0.5] = 0.0
        test = Dataset.from_arrays(sp.csr_matrix(Y), rng.integers(0, 2, 5), n_classes=2)
        replayed = apply_standardize(test, stats)
        assert sp.issparse(replayed.features)
        np.testing.assert_array_equal(replayed.dense_features(), Y / stats.scale)

    def test_sparse_replay_of_centering_stats_densifies(self, rng):
        X = rng.standard_normal((8, 3)) + 2.0
        _, stats = standardize(Dataset.from_arrays(X, rng.integers(0, 2, 8), n_classes=2))
        Y = sp.csr_matrix(rng.standard_normal((4, 3)))
        out = apply_standardize(Dataset.from_arrays(Y, [0, 1, 0, 1], n_classes=2), stats)
        assert not sp.issparse(out.features)
        np.testing.assert_array_equal(out.features, (Y.toarray() - stats.mean) / stats.scale)

    def test_stats_feature_count_must_match(self, rng):
        _, stats = standardize(Dataset.from_arrays(rng.standard_normal((4, 3)), [0, 1, 0, 1]))
        for feats in (rng.standard_normal((2, 4)), sp.csr_matrix(rng.standard_normal((2, 1)))):
            with pytest.raises(ValueError, match="stats cover 3 features"):
                apply_standardize(Dataset.from_arrays(feats, [0, 1]), stats)


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(3, 4, 20, seed=5)
        b = make_synthetic(3, 4, 20, seed=5)
        np.testing.assert_array_equal(a.dense_features(), b.dense_features())
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_single_class(self):
        ds = make_synthetic(1, 3, 7, seed=0)
        assert np.all(ds.labels == 0)

    def test_large_separation_is_separable(self):
        ds = make_synthetic(3, 6, 45, separation=10.0, seed=1)
        rep = solve_regularized_fbpd(ds, RegularizerSpec("l2sq"),
                                     SolverConfig(lam=1000.0, max_iter=300000,
                                                  rel_tol=1e-10))
        assert rep.hinge_sum < 1e-6
        assert np.all(predict(rep.model, ds.features) == ds.labels + 1)


class TestSplit:
    def test_fraction_one_empty_test(self):
        ds = make_synthetic(3, 2, 12, seed=2)
        train, test = split(ds, train_fraction=1.0, seed=0)
        assert train.n_samples == 12
        assert test is None

    def test_per_class_counts(self):
        ds = make_synthetic(4, 2, 40, seed=3)
        train, test = split(ds, per_class=5, seed=0)
        assert train.n_samples == 20
        for k in range(4):
            assert np.sum(train.labels == k) == 5
        assert test.n_samples == 20

    def test_disjoint_union(self):
        ds = make_synthetic(3, 3, 21, seed=4)
        train, test = split(ds, train_fraction=0.6, seed=9)
        f = np.vstack([train.dense_features(), test.dense_features()])
        want = ds.dense_features()
        # order-preserving within splits, disjoint, union equals the pool
        assert train.n_samples + test.n_samples == ds.n_samples
        got = sorted(map(tuple, f))
        assert got == sorted(map(tuple, want))

    def test_insufficient_class_members(self):
        ds = make_synthetic(3, 2, 7, seed=5)
        with pytest.raises(ValueError):
            split(ds, per_class=5, seed=0)

    def test_negative_per_class_rejected(self):
        ds = make_synthetic(3, 5, 30, seed=3)
        with pytest.raises(ValueError, match="per_class"):
            split(ds, per_class=-1, seed=0)

    def test_requires_exactly_one_mode(self):
        ds = make_synthetic(2, 2, 6, seed=6)
        with pytest.raises(ValueError):
            split(ds)
        with pytest.raises(ValueError):
            split(ds, train_fraction=0.5, per_class=1)

    def test_deterministic_given_seed(self):
        ds = make_synthetic(3, 2, 30, seed=7)
        a1, b1 = split(ds, per_class=4, seed=11)
        a2, b2 = split(ds, per_class=4, seed=11)
        np.testing.assert_array_equal(a1.dense_features(), a2.dense_features())
        np.testing.assert_array_equal(b1.labels, b2.labels)
