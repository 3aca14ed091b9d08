"""The public surface: the package's `__all__` and the README "Library"
example."""

import pathlib
import re

import numpy as np

import sparsemsvm
from sparsemsvm.data import make_synthetic

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_all():
    namespace = {}
    exec("from sparsemsvm import *", namespace)
    for name in sparsemsvm.__all__:
        assert namespace[name] is getattr(sparsemsvm, name)


def test_readme_library_snippet_runs():
    section = README.read_text().split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ds = make_synthetic(3, 10, 30, seed=0)
    namespace = {"features": ds.features, "labels": ds.labels + 1,
                 "test_features": ds.features}
    exec(snippet, namespace)
    assert namespace["report"].model.weights.shape == (3, 10)
    yhat = np.asarray(namespace["yhat"])
    assert yhat.shape == (30,) and set(yhat) <= {1, 2, 3}
