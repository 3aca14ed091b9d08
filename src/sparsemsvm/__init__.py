"""Sparse multiclass SVM training with exact-hinge primal-dual solvers."""

from .model import (BlockStructure, Dataset, ModelVector, RegularizerSpec,
                    make_margin_offsets)
from .solvers import SolveReport, SolverConfig, SOLVERS

__all__ = [
    "BlockStructure",
    "Dataset",
    "ModelVector",
    "RegularizerSpec",
    "make_margin_offsets",
    "SolverConfig",
    "SolveReport",
    "SOLVERS",
]

__version__ = "0.1.0"
