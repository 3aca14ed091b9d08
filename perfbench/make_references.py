#!/usr/bin/env python3
"""Regenerate perfbench/references.json: the optimal objective of each
train workload, for the default seed and one held-out seed.

Each reference is the optimum of a scipy HiGHS linear program (l1 and
per-class l1inf penalties are LP-representable), cross-checked against a
long tight-tolerance run of the package's own solver. The script refuses
to write a value when the two disagree by more than AGREE_REL. The long
run is cut at LONG_MAX_ITER and approaches the optimum slowly (the l1inf
run is still about 1e-3 above the LP after 100 000 iterations), so the
agreement bound only rules out a formulation mismatch; the LP value is
the reference.

Usage, from the root of the repository:
    PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, make_clusters  # noqa: E402

SEEDS = (0, 1)  # the default seed and one held-out seed
AGREE_REL = 5e-3
LONG_TOL = 1e-8
LONG_MAX_ITER = 60000
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def lp_optimum(X, labels, n_classes, block_size, lam=None, eta=None):
    """Optimal objective of the regularized (lam) or constrained (eta)
    exact-hinge problem with a per-class l1inf penalty over contiguous
    groups of `block_size` (block size 1 is the l1 penalty).

    Variables: weights W (K*M, free), offsets b (K, free), group maxima
    s (K*G, >= 0) and per-sample hinges h (L, >= 0).
    """
    L, M = X.shape
    K = n_classes
    starts = np.arange(0, M, block_size)
    G = starts.size
    group_of = np.repeat(np.arange(G), np.diff(np.append(starts, M)))
    nW, nb, ns = K * M, K, K * G
    n = nW + nb + ns + L
    iW, ib, i_s, ih = 0, nW, nW + nb, nW + nb + ns

    # |W_kj| <= s_{k,group(j)}
    k_idx = np.repeat(np.arange(K), M)
    j_idx = np.tile(np.arange(M), K)
    w_col = iW + k_idx * M + j_idx
    s_col = i_s + k_idx * G + group_of[j_idx]
    rows = np.arange(nW)
    A_abs = sp.vstack([
        sp.csr_matrix((np.concatenate([np.ones(nW), -np.ones(nW)]),
                       (np.concatenate([rows, rows]), np.concatenate([w_col, s_col]))), shape=(nW, n)),
        sp.csr_matrix((np.concatenate([-np.ones(nW), -np.ones(nW)]),
                       (np.concatenate([rows, rows]), np.concatenate([w_col, s_col]))), shape=(nW, n)),
    ])

    # (w_k - w_z).u_l + b_k - b_z + 1 - h_l <= 0 for every k != z_l
    hinge_rows, hinge_rhs = [], []
    for l in range(L):
        z = labels[l]
        for k in range(K):
            if k == z:
                continue
            row = np.zeros(n)
            row[iW + k * M: iW + (k + 1) * M] = X[l]
            row[iW + z * M: iW + (z + 1) * M] = -X[l]
            row[ib + k] = 1.0
            row[ib + z] = -1.0
            row[ih + l] = -1.0
            hinge_rows.append(row)
            hinge_rhs.append(-1.0)
    A_ub = sp.vstack([A_abs, sp.csr_matrix(np.array(hinge_rows))])
    b_ub = np.concatenate([np.zeros(2 * nW), hinge_rhs])

    c = np.zeros(n)
    c[i_s:i_s + ns] = 1.0
    if lam is not None:
        c[ih:] = lam
    else:
        budget = np.zeros((1, n))
        budget[0, ih:] = 1.0
        A_ub = sp.vstack([A_ub, sp.csr_matrix(budget)])
        b_ub = np.append(b_ub, eta)
    bounds = [(None, None)] * (nW + nb) + [(0, None)] * (ns + L)
    res = linprog(c, A_ub=A_ub.tocsr(), b_ub=b_ub, bounds=bounds, method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


def long_run(X, labels, workload):
    """Objective and hinge sum of a long tight-tolerance package solve."""
    from sparsemsvm.model import BlockStructure, Dataset, RegularizerSpec
    from sparsemsvm.solvers import SOLVERS, SolverConfig

    ds = Dataset.from_arrays(X, labels, n_classes=workload.shape.n_classes)
    blocks = None
    if workload.block_size:
        blocks = BlockStructure.contiguous(ds.n_features, workload.block_size)
    spec = RegularizerSpec(workload.reg, blocks)
    cfg = SolverConfig(max_iter=LONG_MAX_ITER, rel_tol=LONG_TOL)
    if workload.constrained:
        cfg.eta = workload.alpha * ds.n_samples
        report = SOLVERS["fbpd-con"](ds, spec, cfg)
    else:
        cfg.lam = 1.0 / workload.alpha
        report = SOLVERS["fbpd-reg"](ds, spec, cfg)
    return report.primal_objective, report.hinge_sum, report.iterations


def reference(workload, seed):
    (X, labels), _ = make_clusters(workload.shape, seed)
    K = workload.shape.n_classes
    if workload.constrained:
        eta = workload.alpha * workload.shape.n_train
        lp = lp_optimum(X, labels, K, 1, eta=eta)
    else:
        lp = lp_optimum(X, labels, K, workload.block_size or 1, lam=1.0 / workload.alpha)
    fb, hinge, iters = long_run(X, labels, workload)
    rel = abs(fb - lp) / max(abs(lp), 1e-12)
    print(f"{workload.name} seed {seed}: LP {lp:.12g}  long fbpd {fb:.12g} "
          f"({iters} iterations, hinge {hinge:.6g})  rel diff {rel:.2e}", flush=True)
    if rel > AGREE_REL:
        raise SystemExit(f"{workload.name} seed {seed}: LP and long run disagree by {rel:.2e}")
    return {"objective": lp, "long_run_objective": fb, "long_run_iterations": iters}


def main():
    refs = {}
    for name, workload in WORKLOADS.items():
        if workload.objective_rel_bound is None:
            continue
        refs[name] = {str(seed): reference(workload, seed) for seed in SEEDS}
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
