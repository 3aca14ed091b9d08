"""Command-line driver: train, evaluate, sweep over the regularization
level, and benchmark solver convergence.

Exit codes: 0 on success, 2 when a solve finished without reaching the
stopping tolerance (results are still written), 1 on data or file errors
and on a diverged solve (a sweep still writes every row, with `nan` means
for the alpha that diverged), 2 on usage errors (argparse convention),
among them every option value outside the range its argparse type checks.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import data as datamod
from .data import DataFormatError, load_standardize_stats, open_text, save_standardize_stats
from .evaluate import NONZERO_THRESHOLD, evaluate_model
from .linop import operator_norm
from .model import GROUP_MODES, REGULARIZER_KINDS, BlockStructure, RegularizerSpec
from .persist import PersistedModel, _fmt, decode_groups, encode_groups, load_model, save_model
from .solvers import SOLVERS, DivergenceError, SolverConfig

DEFAULT_ALPHAS = "0.001,0.01,0.1,1,10,100,1000"


def _load_dataset(path, fmt, like=None):
    """The dataset at `path`. A held-out file is read `like` its model
    (a ModelVector) or its training pool (a Dataset): at their class
    count, and for svmlight at their width, since the file's highest
    label or index may fall short of them."""
    n_classes = n_features = None
    if like is not None:
        n_classes, n_features = like.n_classes, like.n_features
    if fmt == "csv":
        return datamod.load_dense_csv(path, n_classes)
    return datamod.load_sparse_svmlight(path, n_features, n_classes)


def _config(solver, alpha, n_samples, **kwargs):
    """`SolverConfig.for_alpha`, or ValueError naming `--alpha` when the
    parameter it sets overflows to inf (lam = 1/alpha, or eta = alpha
    times the sample count for fbpd-con)."""
    cfg = SolverConfig.for_alpha(solver, alpha, n_samples, **kwargs)
    if solver == "fbpd-con" and not math.isfinite(cfg.eta):
        raise ValueError(f"--alpha {alpha!r} times the {n_samples} samples "
                         "overflows the hinge budget eta")
    if cfg.lam is not None and not math.isfinite(cfg.lam):
        raise ValueError(f"--alpha {alpha!r} is too small: lam = 1/alpha overflows")
    return cfg


def _finite(name, zero_ok=False):
    """argparse type of a number option: finite and > 0, or >= 0 when
    `zero_ok`; `name` leads its error message."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            bound = ">= 0" if zero_ok else "> 0"
            raise argparse.ArgumentTypeError(
                f"{name} must be a finite number {bound}, got {text!r}")
        return value
    return parse


def _count(name, minimum=1):
    """argparse type of an integer option such as `--repeats`: an integer
    >= `minimum`; `name` leads its error message."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _list(name, item=str, choices=None):
    """argparse type of a comma-separated option: the `item` values of its
    non-empty entries, at least one and, with `choices`, each one of them."""
    def parse(text):
        values = [item(entry) for entry in text.split(",") if entry]
        if not values or (choices is not None and not set(values) <= set(choices)):
            what = ("at least one entry" if choices is None
                    else "one or more of " + ", ".join(choices))
            raise argparse.ArgumentTypeError(f"{name} must name {what}, got {text!r}")
        return values
    return parse


_alpha = _finite("alpha")
_threshold = _finite("threshold", zero_ok=True)
_alphas = _list("alphas", _alpha)
_solvers = _list("solvers", choices=sorted(SOLVERS))


def _block_size(arg):
    """`--blocks` as a contiguous group size, or None when it names a file."""
    try:
        return int(arg)
    except ValueError:
        return None


def _parse_blocks(arg, n_features, mode):
    """Groups from `--blocks`: contiguous runs of its size, or one group of
    1-based feature indices per line of the file it names."""
    size = _block_size(arg)
    if size is not None:
        return BlockStructure.contiguous(n_features, size, mode=mode)
    with open_text(arg) as fh:
        lines = [line for line in fh if line.strip()]
    try:
        return decode_groups(lines, n_features, mode)
    except ValueError as exc:
        raise ValueError(f"{arg}: {exc}") from None


def _build_spec(args, n_features):
    blocks = None
    if RegularizerSpec(args.reg).needs_blocks:
        blocks = _parse_blocks(args.blocks, n_features, args.group)
    return RegularizerSpec(args.reg, blocks)


def _solver_args(p):
    """The problem and stopping options that train, sweep and bench share;
    train and sweep add `--solver`, bench `--solvers`."""
    p.add_argument("--reg", default="l1", choices=REGULARIZER_KINDS)
    p.add_argument("--blocks", default="1",
                   help="group size for mixed norms, or a file of 1-based index groups")
    p.add_argument("--group", default="per-class", choices=GROUP_MODES)
    p.add_argument("--tol", type=_finite("tol"), default=1e-5)
    p.add_argument("--max-iter", type=_count("max-iter"), default=10000)


def _data_args(p):
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "svmlight"])


# ---------------------------------------------------------------------------

def cmd_train(args):
    dataset = _load_dataset(args.data, args.format)
    stats = None
    if args.standardize:
        dataset, stats = datamod.standardize(dataset)
    spec = _build_spec(args, dataset.n_features)
    cfg = _config(args.solver, args.alpha, dataset.n_samples,
                  max_iter=args.max_iter, rel_tol=args.tol)
    report = SOLVERS[args.solver](dataset, spec, cfg)

    block_size = groups_text = None
    if spec.needs_blocks:
        block_size = _block_size(args.blocks)
        if block_size is None:
            groups_text = encode_groups(spec.blocks)
    pm = PersistedModel(
        model=report.model, reg_kind=args.reg,
        block_size=block_size, groups_text=groups_text,
        group_mode=args.group, solver=args.solver, alpha=args.alpha,
        lam=cfg.lam, eta=cfg.eta, iterations=report.iterations,
        converged=report.converged, rel_change=report.final_rel_change)
    save_model(args.out, pm)
    if stats is not None:
        save_standardize_stats(args.out + ".stats", stats)

    ev = evaluate_model(report.model, dataset, spec, lam=cfg.lam, threshold=args.threshold)
    lines = [
        f"solver {args.solver}",
        f"data {args.data}",
        f"alpha {_fmt(args.alpha)}",
        f"iterations {report.iterations}",
        f"converged {int(report.converged)}",
        f"rel_change {_fmt(report.final_rel_change)}",
        f"g_value {_fmt(report.g_value)}",
        f"hinge_sum {_fmt(report.hinge_sum)}",
        f"objective {_fmt(report.primal_objective)}",
        f"train_errors {ev.error_count}",
        f"train_error_rate {_fmt(ev.error_rate)}",
        "nonzeros " + "+".join(str(int(c)) for c in ev.nonzeros_per_class),
    ]
    if report.constraint_violation is not None:
        lines.insert(9, f"constraint_violation {_fmt(report.constraint_violation)}")
    text = "\n".join(lines) + "\n"
    with open(args.out + ".report.txt", "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if report.converged else 2


def cmd_eval(args):
    pm = load_model(args.model)
    dataset = _load_dataset(args.data, args.format, like=pm.model)
    stats_path = args.model + ".stats"
    try:
        stats = load_standardize_stats(stats_path)
    except FileNotFoundError:
        stats = None
    spec = pm.regularizer_spec()
    try:
        if stats is not None:
            dataset = datamod.apply_standardize(dataset, stats)
        ev = evaluate_model(pm.model, dataset, spec, lam=pm.lam, threshold=args.threshold)
    except ValueError as exc:
        if stats is None:
            raise
        # the stats set the scale of the data the model is scored on
        raise DataFormatError(f"{stats_path}: {exc}") from None
    nz = "+".join(str(int(c)) for c in ev.nonzeros_per_class)
    groups = "" if ev.nonzero_groups is None else str(ev.nonzero_groups)
    if args.emit == "csv":
        sys.stdout.write("errors,error_rate,hinge_sum,g_value,total,nonzeros,nonzero_groups\n")
        sys.stdout.write(",".join([
            str(ev.error_count), _fmt(ev.error_rate), _fmt(ev.hinge_sum),
            _fmt(ev.g_value), _fmt(ev.total), nz, groups]) + "\n")
    else:
        sys.stdout.write(f"errors {ev.error_count}/{dataset.n_samples}\n")
        sys.stdout.write(f"error_rate {_fmt(ev.error_rate)}\n")
        sys.stdout.write(f"hinge_sum {_fmt(ev.hinge_sum)}\n")
        sys.stdout.write(f"g_value {_fmt(ev.g_value)}\n")
        sys.stdout.write(f"objective {_fmt(ev.total)}\n")
        sys.stdout.write(f"nonzeros {nz}\n")
        if groups:
            sys.stdout.write(f"nonzero_groups {groups}\n")
    return 0


def cmd_sweep(args):
    pool = _load_dataset(args.data, args.format)
    test_fixed = _load_dataset(args.test, args.format, like=pool) if args.test else None
    spec = _build_spec(args, pool.n_features)

    # repetition r uses seed + r; splits and operator norms are shared
    # across the alpha grid
    splits = []
    for rep in range(args.repeats):
        if args.train_per_class is not None:
            train, rest = datamod.split(pool, per_class=args.train_per_class,
                                        seed=args.seed + rep)
            test = test_fixed if test_fixed is not None else rest
        else:
            train, test = pool, (test_fixed if test_fixed is not None else pool)
        if test is None:
            raise ValueError("sweep needs a test set: pass --test or leave samples out")
        splits.append((train, test, operator_norm(train).checked()))

    rows, diverged = [], []
    all_converged = True
    for alpha in args.alphas:
        errors, rates, nonzeros, times = [], [], [], []
        for train, test, norm_T in splits:
            cfg = _config(args.solver, alpha, train.n_samples,
                          max_iter=args.max_iter, rel_tol=args.tol, norm_T=norm_T)
            t0 = time.perf_counter()
            try:
                report = SOLVERS[args.solver](train, spec, cfg)
            except DivergenceError as exc:
                # this alpha's row gets nan means; the grid goes on
                diverged.append((alpha, exc))
                errors = rates = nonzeros = times = [np.nan]
                break
            times.append(time.perf_counter() - t0)
            all_converged &= report.converged
            ev = evaluate_model(report.model, test, spec, lam=cfg.lam,
                                threshold=args.threshold)
            errors.append(ev.error_count)
            rates.append(ev.error_rate)
            nonzeros.append(int(ev.nonzeros_per_class.sum()))
        row = [_fmt(alpha), _fmt(np.mean(errors)), _fmt(np.mean(rates)),
               _fmt(np.mean(nonzeros))]
        if args.timing:
            row.append(_fmt(np.mean(times)))
        rows.append(",".join(row))

    header = "alpha,mean_errors,mean_error_rate,mean_nonzeros"
    if args.timing:
        header += ",mean_time_s"
    out = "\n".join([header] + rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    sys.stdout.write(out)
    for alpha, exc in diverged:
        detail = str(exc).removeprefix("diverged: ")
        print(f"error: diverged at alpha {_fmt(alpha)}: {detail}", file=sys.stderr)
    if diverged:
        return 1
    return 0 if all_converged else 2


def cmd_bench(args):
    dataset = _load_dataset(args.data, args.format)
    spec = _build_spec(args, dataset.n_features)
    norm_T = operator_norm(dataset).checked()

    lines = ["solver,iteration,rel_distance" + (",time_s" if args.timing else "")]
    all_converged = True
    for name in args.solvers:
        cfg = _config(name, args.alpha, dataset.n_samples,
                      max_iter=args.max_iter, rel_tol=args.tol, norm_T=norm_T)
        ref_cfg = replace(cfg, max_iter=args.max_iter * 10,
                          rel_tol=args.tol * args.ref_tol_factor)
        reference = SOLVERS[name](dataset, spec, ref_cfg).model.augmented()
        # near-zero references (e.g. eta >= sum of margins) switch the
        # curve to absolute distances
        ref_norm = np.linalg.norm(reference)
        if ref_norm < 1e-8:
            ref_norm = 1.0

        distances = []
        t0 = time.perf_counter()
        stamps = []

        def track(it, x_aug):
            distances.append(np.linalg.norm(x_aug - reference) / ref_norm)
            stamps.append(time.perf_counter() - t0)

        report = SOLVERS[name](dataset, spec, cfg, callback=track)
        all_converged &= report.converged
        for i, d in enumerate(distances, start=1):
            row = f"{name},{i},{_fmt(d)}"
            if args.timing:
                row += f",{_fmt(stamps[i - 1])}"
            lines.append(row)

    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    sys.stdout.write(out)
    return 0 if all_converged else 2


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsemsvm",
        description="Sparse multiclass SVM training with exact-hinge primal-dual solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier and persist the model")
    _data_args(p)
    p.add_argument("--solver", required=True, choices=sorted(SOLVERS))
    _solver_args(p)
    p.add_argument("--alpha", type=_alpha, required=True,
                   help="sweep parameter: lam = 1/alpha, or eta = alpha*L for fbpd-con")
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--threshold", type=_threshold, default=NONZERO_THRESHOLD)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a persisted model on a dataset")
    p.add_argument("--model", required=True)
    _data_args(p)
    p.add_argument("--threshold", type=_threshold, default=NONZERO_THRESHOLD)
    p.add_argument("--emit", default="text", choices=["text", "csv"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="alpha grid with repeated stratified subsets")
    _data_args(p)
    p.add_argument("--solver", required=True, choices=sorted(SOLVERS))
    _solver_args(p)
    p.add_argument("--test", default=None, help="fixed test set (defaults to held-out samples)")
    p.add_argument("--alphas", type=_alphas, default=DEFAULT_ALPHAS)
    p.add_argument("--repeats", type=_count("repeats"), default=1)
    p.add_argument("--train-per-class", type=_count("train-per-class"), default=None)
    p.add_argument("--seed", type=_count("seed", minimum=0), default=0,
                   help="seed of the first repetition's split; repetition r uses seed + r")
    p.add_argument("--threshold", type=_threshold, default=NONZERO_THRESHOLD)
    p.add_argument("--timing", action="store_true",
                   help="append a wall-time column (breaks byte-for-byte reproducibility)")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="distance-to-reference convergence curves")
    _data_args(p)
    p.add_argument("--solvers", type=_solvers, default=",".join(sorted(SOLVERS)))
    _solver_args(p)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--ref-tol-factor", type=_finite("ref-tol-factor"), default=1e-2,
                   help="reference run stops at tol times this factor")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, DivergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
