"""Output checks. Each returns a list of failure messages; an empty list
means the output passed. The objective is recomputed here with the
benchmark's own numpy hinge and penalty code from the saved model file,
never through the package.

Stated bounds:
- the report's and eval's objectives equal the recomputed ones to
  RECOMPUTE_REL (17-digit text round trip, different summation order);
- the train objective is within the workload's `objective_rel_bound` of
  the frozen optimum, on the seeds that have a reference;
- fbpd-con: the recomputed hinge sum is at most eta * (1 + budget_rel_bound).
"""

from __future__ import annotations

import numpy as np

RECOMPUTE_REL = 1e-9


def parse_model(path):
    """The augmented (K, M+1) parameter array of a saved model file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "sparsemsvm-model v1":
        raise ValueError(f"{path}: not a model file")
    end = lines.index("end-header")
    header = dict(line.partition(" ")[::2] for line in lines[1:end])
    K = int(header["classes"])
    aug = np.array([[float(v) for v in line.split()] for line in lines[end + 1:end + 1 + K]])
    if aug.shape != (K, int(header["features"]) + 1):
        raise ValueError(f"{path}: parameter block has shape {aug.shape}")
    return aug


def parse_pairs(text):
    """`key value` lines (train report, eval text output) as a dict."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if value:
            out[key] = value
    return out


def hinge_sum(aug, features, labels):
    """Sum over samples of max(0, max_{k != z} 1 + s_k - s_z)."""
    scores = features @ aug[:, :-1].T + aug[:, -1]
    own = scores[np.arange(len(labels)), labels]
    gaps = scores - own[:, None] + 1.0
    gaps[np.arange(len(labels)), labels] = 0.0
    return float(gaps.max(axis=1).sum())


def penalty(aug, reg, block_size=None):
    W = np.abs(aug[:, :-1])
    if reg == "l1":
        return float(W.sum())
    if reg == "l1inf":
        starts = np.arange(0, W.shape[1], block_size)
        return float(np.maximum.reduceat(W, starts, axis=1).sum())
    raise ValueError(f"no penalty code for {reg!r}")


def errors(aug, features, labels):
    scores = features @ aug[:, :-1].T + aug[:, -1]
    return int(np.sum(np.argmax(scores, axis=1) != labels))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def objective(workload, aug, features, labels):
    g = penalty(aug, workload.reg, workload.block_size)
    h = hinge_sum(aug, features, labels)
    return (g if workload.constrained else g + h / workload.alpha), h


def check_train(workload, report_text, model_path, train, reference=None):
    fails = []
    report = parse_pairs(report_text)
    aug = parse_model(model_path)
    obj, h = objective(workload, aug, *train)
    reported = float(report["objective"])
    if not _close(reported, obj, RECOMPUTE_REL):
        fails.append(f"reported objective {reported!r} != recomputed {obj!r}")
    if reference is not None:
        rel = abs(obj - reference) / abs(reference)
        if rel > workload.objective_rel_bound:
            fails.append(f"objective {obj!r} is {rel:.3g} from the reference {reference!r} "
                         f"(bound {workload.objective_rel_bound})")
    if workload.constrained:
        eta = workload.alpha * len(train[1])
        if h > eta * (1.0 + workload.budget_rel_bound):
            fails.append(f"hinge sum {h!r} exceeds eta {eta!r} by more than "
                         f"{workload.budget_rel_bound} of eta")
    return fails


def check_eval(workload, eval_text, model_path, test):
    fails = []
    out = parse_pairs(eval_text)
    aug = parse_model(model_path)
    obj, _ = objective(workload, aug, *test)
    n_err = errors(aug, *test)
    if out.get("errors") != f"{n_err}/{len(test[1])}":
        fails.append(f"eval errors {out.get('errors')!r} != recomputed {n_err}/{len(test[1])}")
    reported = float(out["objective"])
    if not _close(reported, obj, RECOMPUTE_REL):
        fails.append(f"eval objective {reported!r} != recomputed {obj!r}")
    return fails

