"""The names that perfbench's tracer wraps stay bound where it looks for
them, and the primal-dual steps call the layers through those bindings.

perfbench/launch.py is loaded read-only from its file, with perfbench/ on
sys.path only for the test; the perfbench modules it imports leave
sys.modules afterwards. Its tracer replaces module attributes; every
attribute of the traced modules, and the items of their dicts (such as
`cli.SOLVERS`), are restored after the test.
"""

import pathlib
import sys

import pytest

from conftest import load_file, tiny_dataset
from sparsemsvm.model import RegularizerSpec
from sparsemsvm.solvers import SolverConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def launch(monkeypatch):
    """perfbench/launch.py as a module of its own name."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield load_file(PERFBENCH / "launch.py", "perfbench_launch")
    for name in set(sys.modules) - before:
        path = getattr(sys.modules[name], "__file__", None)
        if path is not None and pathlib.Path(path).resolve().parent == PERFBENCH:
            del sys.modules[name]


def _snapshot(mod):
    attrs = dict(vars(mod))
    items = {name: dict(value) for name, value in attrs.items()
             if isinstance(value, dict) and not name.startswith("__")}
    return attrs, items


def _restore(mod, attrs, items):
    for name in set(vars(mod)) - set(attrs):
        delattr(mod, name)
    for name, value in attrs.items():
        if vars(mod)[name] is not value:
            setattr(mod, name, value)
    for name, saved in items.items():
        attrs[name].clear()
        attrs[name].update(saved)


@pytest.fixture
def traced(launch):
    """A tracer installed on the package; yields (tracer, modules, missing)."""
    mods = launch._modules()
    saved = {mod: _snapshot(mod) for mod in mods.values() if mod is not None}
    tracer = launch.Tracer()
    missing = launch.install_tracer(tracer, mods)
    yield tracer, mods, missing
    for mod, (attrs, items) in saved.items():
        _restore(mod, attrs, items)


def _calls_in_solve(tracer, layer):
    """Calls of `layer` charged to the solver span itself (not to a span
    nested in it, such as the operator norm's)."""
    solve = next(i for i, s in enumerate(tracer.spans) if s[0] == "solvers")
    counter = tracer.counters.get((layer, solve))
    return 0 if counter is None else counter[0]


def test_tracer_finds_every_name(traced):
    _, _, missing = traced
    assert missing == []


@pytest.mark.parametrize("solver, layers", [
    ("fbpd-reg", ["linop.T", "linop.Tadj", "prox.reg", "prox.simplex"]),
    ("fbpd-con", ["linop.T", "linop.Tadj", "prox.reg", "prox.epigraph", "prox.halfspace"]),
])
def test_each_iteration_reaches_the_traced_layers(traced, solver, layers):
    tracer, mods, _ = traced
    cfg = SolverConfig(lam=1.0, eta=1.0, max_iter=30, rel_tol=0.0)
    report = mods["cli"].SOLVERS[solver](tiny_dataset(5), RegularizerSpec("l1"), cfg)
    assert report.iterations == 30
    for layer in layers:
        assert _calls_in_solve(tracer, layer) == 30, layer
