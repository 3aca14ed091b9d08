"""Self-describing text container for trained models.

Layout: `sparsemsvm-model v1` magic line, `key value` header lines closed
by `end-header`, then one line per class block holding the M weights and
the offset at full decimal precision (so a save/load round trip is bitwise
exact on the parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import open_text
from .model import BlockStructure, ModelVector, RegularizerSpec

MAGIC = "sparsemsvm-model v1"


@dataclass
class PersistedModel:
    """A trained model plus the header needed to rebuild its context.

    Grouped regularizers persist either a contiguous `block_size` or the
    explicit `groups_text` encoding "i j k;l m" (1-based indices, one group
    per semicolon-separated run).
    """

    model: ModelVector
    reg_kind: str
    block_size: int | None = None
    groups_text: str | None = None
    group_mode: str = "per-class"
    solver: str = ""
    alpha: float | None = None
    lam: float | None = None
    eta: float | None = None
    iterations: int = 0
    converged: bool = False
    rel_change: float = 0.0

    def regularizer_spec(self) -> RegularizerSpec:
        blocks = None
        if RegularizerSpec(self.reg_kind).needs_blocks:
            M = self.model.n_features
            if self.groups_text:
                blocks = decode_groups(self.groups_text.split(";"), M, self.group_mode)
            else:
                size = 1 if self.block_size is None else self.block_size
                blocks = BlockStructure.contiguous(M, size, mode=self.group_mode)
        return RegularizerSpec(self.reg_kind, blocks)


def encode_groups(blocks: BlockStructure) -> str:
    return ";".join(" ".join(str(i + 1) for i in g) for g in blocks.groups)


def decode_groups(parts, n_features, mode) -> BlockStructure:
    """The groups of `parts`, one string of whitespace-separated 1-based
    feature indices each (the form `encode_groups` writes and `--blocks`
    files hold), checked to partition 1..n_features."""
    groups = []
    for b, part in enumerate(parts, start=1):
        indices = [int(t) for t in part.split()]
        if not indices:
            raise ValueError(f"group {b} is empty")
        for i in indices:
            if not 1 <= i <= n_features:
                raise ValueError(f"group {b} holds feature index {i}, outside 1..{n_features}")
        groups.append(np.array(indices) - 1)
    blocks = BlockStructure(tuple(groups), mode=mode)
    blocks.validate(n_features)
    return blocks


def _fmt(v):
    return format(float(v), ".17g")


def save_model(path, pm: PersistedModel):
    m = pm.model
    with open(path, "w") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"classes {m.n_classes}\n")
        fh.write(f"features {m.n_features}\n")
        fh.write(f"regularizer {pm.reg_kind}\n")
        if pm.block_size is not None:
            fh.write(f"block_size {pm.block_size}\n")
        if pm.groups_text:
            fh.write(f"groups {pm.groups_text}\n")
        fh.write(f"group_mode {pm.group_mode}\n")
        if pm.solver:
            fh.write(f"solver {pm.solver}\n")
        for key in ("alpha", "lam", "eta"):
            v = getattr(pm, key)
            if v is not None:
                fh.write(f"{key} {_fmt(v)}\n")
        fh.write(f"iterations {pm.iterations}\n")
        fh.write(f"converged {int(pm.converged)}\n")
        fh.write(f"rel_change {_fmt(pm.rel_change)}\n")
        fh.write("end-header\n")
        aug = m.augmented()
        for k in range(m.n_classes):
            fh.write(" ".join(_fmt(v) for v in aug[k]) + "\n")


def _positive(header, key):
    """The header's `key` as a float, finite and > 0 as `train` requires
    of it, or None when the header has no such line."""
    if key not in header:
        return None
    value = float(header[key])
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be finite and > 0, got {header[key]!r}")
    return value


def load_model(path) -> PersistedModel:
    """Read a model file; header keys it does not know are ignored. A bad
    value, group list or block size, a non-finite parameter, or a
    parameter block whose row count is not the header's `classes` is a
    ValueError naming the file."""
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MAGIC:
        raise ValueError(f"{path}: not a sparsemsvm model file")
    header = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        if line == "end-header":
            body_start = i + 1
            break
        key, _, value = line.partition(" ")
        header[key] = value
    if body_start is None:
        raise ValueError(f"{path}: missing end-header")
    for key in ("classes", "features"):
        if key not in header:
            raise ValueError(f"{path}: header has no {key!r} line")
    try:
        K = int(header["classes"])
        M = int(header["features"])
        rows = [np.array([float(v) for v in line.split()]) for line in lines[body_start:body_start + K]]
        if len(rows) != K or any(r.size != M + 1 for r in rows):
            raise ValueError("malformed parameter block")
        if any(line.strip() for line in lines[body_start + K:]):
            raise ValueError(f"parameter block has more than the {K} class rows of its header")
        aug = np.vstack(rows)
        if not np.all(np.isfinite(aug)):
            raise ValueError("parameter block holds a non-finite weight or offset")
        model = ModelVector.from_augmented(aug)

        get = header.get
        pm = PersistedModel(
            model=model,
            reg_kind=get("regularizer", "l1"),
            block_size=int(header["block_size"]) if "block_size" in header else None,
            groups_text=get("groups") or None,
            group_mode=get("group_mode", "per-class"),
            solver=get("solver", ""),
            alpha=_positive(header, "alpha"),
            lam=_positive(header, "lam"),
            eta=_positive(header, "eta"),
            iterations=int(get("iterations", "0")),
            converged=bool(int(get("converged", "0"))),
            rel_change=float(get("rel_change", "0")),
        )
        pm.regularizer_spec()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return pm
