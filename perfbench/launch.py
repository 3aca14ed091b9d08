"""Run one sparsemsvm CLI command in this process and record what the
benchmark needs in a JSON file.

Usage: python3 perfbench/launch.py OUT.json TRACE -- <sparsemsvm arguments>

The entry into `cli.main` is stamped, after the interpreter has started
and imported the package, so set-up time leaves out the imports. With
TRACE 0 the only hook is at the SOLVERS boundary: a per-iteration
callback stamps the end of the first solver iteration (the end of set-up)
and each solve's iteration count and convergence flag are kept. With
TRACE 1 the names that `cli`, `solvers`, `linop` and `evaluate` bind for
the layer functions are wrapped with spans and counters as well (see
spans.py); spans and counters are named after the layer they time. A name
that no longer exists is reported as missing and its layer is left out;
the command itself still runs.

An untraced command also samples the host's speed (calibrate.py) from
before the package's imports until `cli.main` returns; a traced one does
not, so that the per-layer times hold no kernel time.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

from calibrate import Sampler
from spans import Tracer


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _t_flops(x_aug, dataset):
    return 2.0 * dataset.n_samples * dataset.n_features * x_aug.shape[0]


def _tadj_flops(y, dataset):
    return 2.0 * dataset.n_samples * dataset.n_features * y.shape[1]


# (module, name, layer, flops): calls made every iteration -> counters
HOT = [
    ("solvers", "_apply_T_aug", "linop.T", _t_flops),
    ("solvers", "_apply_T_adjoint_aug", "linop.Tadj", _tadj_flops),
    ("linop", "_apply_T_aug", "linop.T", _t_flops),
    ("linop", "_apply_T_adjoint_aug", "linop.Tadj", _tadj_flops),
    ("solvers", "prox_regularizer_aug", "prox.reg", None),
    ("solvers", "project_simplex_rows", "prox.simplex", None),
    ("solvers", "project_epigraph_max_rows", "prox.epigraph", None),
    ("solvers", "project_halfspace_sum", "prox.halfspace", None),
    ("solvers", "regularizer_value", "prox.regval", None),
    ("evaluate", "regularizer_value", "prox.regval", None),
]


def _norm_note(est):
    return {"iters": int(est.iterations), "converged": bool(est.converged)}


def _solve_note(report):
    return {"iters": int(report.iterations), "converged": bool(report.converged)}


def _modules():
    mods = {}
    for name in ("cli", "solvers", "linop", "evaluate"):
        try:
            mods[name] = importlib.import_module("sparsemsvm." + name)
        except ImportError:
            mods[name] = None
    return mods


def _replace(mods, missing, module, name, layer, make):
    mod = mods.get(module)
    if mod is None or not hasattr(mod, name):
        missing.append([f"{module}.{name}", layer])
        return
    setattr(mod, name, make(getattr(mod, name)))


def install_tracer(tracer, mods):
    """Wrap every layer name; return [name, layer] for each name that
    could not be found."""
    missing = []
    for module, name, layer, flops in HOT:
        _replace(mods, missing, module, name, layer,
                 lambda fn, layer=layer, flops=flops: tracer.counter(layer, fn, flops))

    before = []

    def load_note(_):
        return {"load_mb": _maxrss_mb() - before.pop()}

    def with_rss(fn):
        def load(*args, **kwargs):
            before.append(_maxrss_mb())
            return fn(*args, **kwargs)
        return tracer.span("data.load", load, load_note)

    _replace(mods, missing, "cli", "_load_dataset", "data.load", with_rss)
    for module in ("cli", "solvers"):
        _replace(mods, missing, module, "operator_norm", "linop.norm",
                 lambda fn: tracer.span("linop.norm", fn, _norm_note))
    _replace(mods, missing, "cli", "evaluate_model", "evaluate",
             lambda fn: tracer.span("evaluate", fn))
    _replace(mods, missing, "cli", "save_model", "persist.save",
             lambda fn: tracer.span("persist.save", fn))
    solvers = getattr(mods.get("cli"), "SOLVERS", None)
    if solvers is None:
        missing.append(["cli.SOLVERS", "solvers"])
    else:
        for key in list(solvers):
            solvers[key] = tracer.span("solvers", solvers[key], _solve_note)
    return missing


def install_setup_hook(mods, rec):
    """The one hook of an untraced run, at the SOLVERS boundary: stamp the
    end of the first iteration and keep each solve's outcome."""
    solvers = getattr(mods.get("cli"), "SOLVERS", None)
    if solvers is None:
        rec["missing"].append(["cli.SOLVERS", "solvers"])
        return
    clock = time.perf_counter
    first = rec["first_iter"]
    solves = rec["solves"]

    def hook(solver):
        def solve(dataset, spec, cfg, callback=None):
            def stamp(it, x):
                if not first:
                    first.append(clock())
                if callback is not None:
                    callback(it, x)
            report = solver(dataset, spec, cfg, callback=stamp)
            solves.append([int(report.iterations), bool(report.converged), int(cfg.max_iter)])
            return report
        return solve

    for key in list(solvers):
        solvers[key] = hook(solvers[key])


def main():
    out, traced = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py OUT.json TRACE -- <sparsemsvm arguments>")
    argv = sys.argv[4:]
    rec = {"main_start": None, "first_iter": [], "solves": [], "missing": [], "trace": None,
           "calibration": []}
    # sample from before the package's imports, which total_s includes
    sampler = None if traced else Sampler()
    if sampler is not None:
        sampler.start()
    mods = _modules()
    cli = mods["cli"]
    if cli is None:
        if sampler is not None:
            sampler.stop()
        raise SystemExit("error: sparsemsvm.cli cannot be imported")
    install_setup_hook(mods, rec)
    tracer = None
    entry = cli.main
    if traced:
        tracer = Tracer()
        rec["missing"] += install_tracer(tracer, mods)
        entry = tracer.span("cli", cli.main)
    code = 1
    try:
        rec["main_start"] = time.perf_counter()
        code = entry(argv)
    finally:
        if sampler is not None:
            sampler.stop()
            rec["calibration"] = sampler.samples
        if tracer is not None:
            rec["trace"] = tracer.to_json()
        with open(out, "w") as fh:
            json.dump(rec, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
