"""Workload definitions: the seeded input generator, the CLI command
sequence of each workload and the frozen parameters its checks use.
Why each workload was chosen is recorded in BENCHMARK.json.

The generator is the benchmark's own copy of the Gaussian-cluster design
(random unit centers scaled by `separation`, labels cycling through the
classes, unit-variance noise), so a change to the package's `data` module
cannot change the workloads. The training part of a draw equals what
`sparsemsvm.data.make_synthetic(K, M, n_train, separation, seed)` gives
today; the test part continues from the same generator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n_classes: int
    n_features: int
    n_train: int
    n_test: int
    separation: float


@dataclass(frozen=True)
class Workload:
    """One `train` then `eval` pass on a shape."""
    name: str
    shape: Shape
    solver_args: tuple        # CLI flags of the train command
    alpha: float
    reg: str = "l1"
    block_size: int | None = None
    constrained: bool = False
    # objective may differ from the frozen optimum by this share
    objective_rel_bound: float | None = None
    # fbpd-con: hinge sum may exceed eta by this share of eta
    budget_rel_bound: float | None = None


LEUKEMIA = Shape(n_classes=3, n_features=7129, n_train=38, n_test=34, separation=4.0)

# --max-iter sits below the iterations that --tol needs on every seed tried,
# so each pass does the same work whatever the seed: run to tolerance, the
# iterations vary by 0.17 to 0.21 (interquartile range over median) across
# seeds, too much for a 0.25 spread bound. The fewest iterations to
# tolerance seen on seeds 0 to 109 were 3335 (leukemia-l1inf, seeds 0 to 6
# run to tolerance, none of 0 to 109 under 3000) and 8358 (leukemia-con,
# seed 102). An iteration cut shows once it brings a seed under the cap.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="leukemia-l1inf", shape=LEUKEMIA,
        solver_args=("--solver", "fbpd-reg", "--reg", "l1inf", "--blocks", "5",
                     "--tol", "1e-4", "--max-iter", "3000"),
        alpha=1.0, reg="l1inf", block_size=5,
        objective_rel_bound=0.05,
    ),
    Workload(
        name="leukemia-con", shape=LEUKEMIA,
        solver_args=("--solver", "fbpd-con", "--reg", "l1", "--tol", "1e-4",
                     "--max-iter", "7500"),
        alpha=0.1, reg="l1", constrained=True,
        objective_rel_bound=0.01, budget_rel_bound=0.05,
    ),
]}


def make_clusters(shape: Shape, seed: int):
    """Train and test arrays (features, 0-based labels) for one seed."""
    K, M = shape.n_classes, shape.n_features
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((K, M))
    centers /= np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    centers *= shape.separation
    train_labels = np.arange(shape.n_train) % K
    train = centers[train_labels] + rng.standard_normal((shape.n_train, M))
    test_labels = np.arange(shape.n_test) % K
    test = centers[test_labels] + rng.standard_normal((shape.n_test, M))
    return (train, train_labels), (test, test_labels)


def write_csv(path, features, labels):
    """Dense CSV in the package's input format: 1-based label, then the
    features at 17 significant digits (an exact round trip)."""
    with open(path, "w") as fh:
        for label, row in zip(labels, features):
            fh.write(str(int(label) + 1) + "," + ",".join(format(v, ".17g") for v in row) + "\n")


def write_inputs(workload: Workload, seed: int, directory):
    """Write the workload's input files; return the in-memory arrays."""
    (train, train_labels), (test, test_labels) = make_clusters(workload.shape, seed)
    write_csv(os.path.join(directory, "train.csv"), train, train_labels)
    write_csv(os.path.join(directory, "test.csv"), test, test_labels)
    return {"train": (train, train_labels), "test": (test, test_labels)}


def commands(workload: Workload, directory):
    """The CLI argument lists of one pass, run back to back."""
    model = os.path.join(directory, "model.txt")
    return [["train", "--data", os.path.join(directory, "train.csv"), *workload.solver_args,
             "--alpha", repr(workload.alpha), "--out", model],
            ["eval", "--model", model, "--data", os.path.join(directory, "test.csv")]]
