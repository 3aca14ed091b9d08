#!/usr/bin/env python3
"""Leukemia benchmark: train/test errors and per-class nonzero counts for
every solver x regularizer combination, each at its best alpha from a grid
search on test accuracy (trial-and-error protocol).

Needs the prepared CSVs from scripts/fetch_leukemia.py (default location
data/leukemia/). Runtime is a few minutes per solver/regularizer pair on a
desktop.

Usage: python scripts/run_leukemia.py [--data-dir data/leukemia]
           [--alphas 0.001,...,1000] [--solvers hinge,square,logit,one-vs-all]
"""

import argparse
import pathlib
import sys
import time

from sparsemsvm import cli
from sparsemsvm.data import load_dense_csv
from sparsemsvm.evaluate import count_nonzeros, evaluate_model
from sparsemsvm.model import BlockStructure, RegularizerSpec
from sparsemsvm.solvers import SOLVERS, DivergenceError, SolverConfig
from sparsemsvm.linop import operator_norm

SOLVER_IDS = {"hinge": "fbpd-reg", "hinge-con": "fbpd-con",
              "square": "fista-square", "logit": "fb-logit",
              "one-vs-all": "one-vs-all"}
REGS = ["l2sq", "l1", "l12", "l1inf"]
BLOCK_GENES = 5


def best_over_grid(solver_id, spec, train, test, alphas, tol, max_iter, norm_T):
    """(test errors, alpha, report, evaluation, seconds) of the alpha with
    the fewest test errors; the first such alpha of the grid on a tie. An
    alpha whose solve diverges is skipped; None when every alpha did."""
    best = None
    for alpha in alphas:
        cfg = SolverConfig.for_alpha(solver_id, alpha, train.n_samples,
                                     max_iter=max_iter, rel_tol=tol, norm_T=norm_T)
        t0 = time.perf_counter()
        try:
            report = SOLVERS[solver_id](train, spec, cfg)
        except DivergenceError:
            continue
        elapsed = time.perf_counter() - t0
        ev = evaluate_model(report.model, test, spec, lam=cfg.lam)
        entry = (ev.error_count, alpha, report, ev, elapsed)
        if best is None or ev.error_count < best[0]:
            best = entry
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--data-dir", default="data/leukemia")
    ap.add_argument("--alphas", type=cli._alphas, default=cli.DEFAULT_ALPHAS)
    ap.add_argument("--solvers", type=cli._list("solvers", choices=list(SOLVER_IDS)),
                    default=["hinge", "square", "logit", "one-vs-all"])
    ap.add_argument("--regs", type=cli._list("regs", choices=REGS), default=REGS)
    ap.add_argument("--tol", type=cli._finite("tol"), default=1e-5)
    ap.add_argument("--max-iter", type=cli._count("max-iter"), default=30000)
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)

    data_dir = pathlib.Path(args.data_dir)
    train_p = data_dir / "leukemia_train.csv"
    test_p = data_dir / "leukemia_test.csv"
    if not train_p.exists() or not test_p.exists():
        raise SystemExit(f"prepared data not found under {data_dir}; run "
                         "scripts/fetch_leukemia.py first")
    train = load_dense_csv(train_p)
    test = load_dense_csv(test_p)
    print(f"train: {train.n_samples} x {train.n_features}, K={train.n_classes}; "
          f"test: {test.n_samples}")
    norm_T = operator_norm(train).checked()

    rows = []
    for solver_name in args.solvers:
        solver_id = SOLVER_IDS[solver_name]
        for reg in args.regs:
            blocks = None
            if reg in ("l12", "l1inf"):
                blocks = BlockStructure.contiguous(train.n_features, BLOCK_GENES)
            spec = RegularizerSpec(reg, blocks)
            best = best_over_grid(solver_id, spec, train, test, args.alphas, args.tol,
                                  args.max_iter, norm_T)
            if best is None:
                print(f"{solver_name:<11} {reg:<6} diverged at every alpha")
                continue
            errors, alpha, report, ev, elapsed = best
            nz = "+".join(str(int(c)) for c in count_nonzeros(report.model))
            print(f"{solver_name:<11} {reg:<6} errors {errors}/{test.n_samples}"
                  f"  nonzeros {nz}  alpha* {alpha:g}  "
                  f"({report.iterations} its, {elapsed:.1f}s)")
            rows.append((solver_name, reg, errors, nz, alpha))
            sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("solver,regularizer,errors,nonzeros,alpha\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
