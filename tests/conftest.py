import importlib.util
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from sparsemsvm.model import BlockStructure, Dataset, RegularizerSpec
from sparsemsvm.solvers import _rel_change

TINY_M, TINY_K, TINY_L = 2, 3, 5
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_file(path, name):
    """The Python file at `path` as a module named `name`, loaded from the
    file without registering it in sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_dataset(seed):
    """Deterministic M=2, K=3, L=5 instance; must match the construction
    used by scripts/make_reference_values.py."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((TINY_L, TINY_M))
    labels = rng.integers(0, TINY_K, TINY_L)
    return Dataset.from_arrays(X, labels, n_classes=TINY_K)


def spec_from_record(rec, n_features=TINY_M):
    blocks = None
    if rec["sizes"] is not None:
        groups, lo = [], 0
        for s in rec["sizes"]:
            groups.append(np.arange(lo, lo + s))
            lo += s
        blocks = BlockStructure(tuple(groups))
    return RegularizerSpec(rec["kind"], blocks)


def random_dataset(rng, L=None, M=None, K=None, sparse=False):
    L = L or int(rng.integers(2, 7))
    M = M or int(rng.integers(1, 5))
    K = K or int(rng.integers(1, 4))
    X = rng.standard_normal((L, M))
    if sparse:
        import scipy.sparse as sp
        X[rng.random((L, M)) < 0.5] = 0.0
        X = sp.csr_matrix(X)
    labels = rng.integers(0, K, L)
    margins = rng.uniform(0.3, 2.0, L)
    return Dataset.from_arrays(X, labels, n_classes=K, margins=margins)


class RelChanges:
    """A solver callback that collects the relative change of x at every
    iteration, as the solver's stopping rule computes it. Solves start at
    zero, and only the previous iterate is kept."""

    def __init__(self):
        self.values, self._prev = [], None

    def __call__(self, it, x):
        prev = np.zeros_like(x) if self._prev is None else self._prev
        self.values.append(_rel_change(x, prev))
        self._prev = x


def windowed_residual_check(rel_changes, width=50, slack=1.10):
    """The decreasing-residual diagnostic: 50-iteration window means must
    not grow by more than the slack once past the start-up transient.

    Entries above 1e3 come from the iterate leaving the zero start (the
    first is infinite) and are excluded.
    """
    w = np.asarray(rel_changes, dtype=float)
    w = w[w < 1e3]
    n = (len(w) // width) * width
    if n < 3 * width:
        return True
    means = w[:n].reshape(-1, width).mean(axis=1)
    means = means[int(np.argmax(means)):]
    return bool(np.all(means[1:] <= slack * means[:-1]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
