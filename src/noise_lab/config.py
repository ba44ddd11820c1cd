"""JSON configuration: exact fractions in, exact fractions out.

Rationals travel as strings ("p/q" or an integer string) because JSON
numbers are lossy. Unknown keys are rejected with a field path, as are
semantic violations (probabilities not summing to one, dyadic sample
points, wrong vector lengths).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .boolalg import BoolElem, Subalgebra
from .geometry import Embedding, build_embedding
from .model import Cell, NoiseModel

FRACTION_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")

_TOP_KEYS = {
    "cells",
    "subalgebras",
    "vectors",
    "embedding",
    "backend",
    "seed",
}


class ConfigError(ValueError):
    """Input error carrying the offending field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def parse_fraction(raw, path: str) -> Fraction:
    if not isinstance(raw, str) or not FRACTION_RE.match(raw):
        raise ConfigError(f"not an exact fraction string: {raw!r}", path)
    return Fraction(raw)


@dataclass(frozen=True)
class ModelConfig:
    cells: tuple[Cell, ...]
    subalgebras: tuple[tuple[str, Subalgebra], ...] = ()
    vectors: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()
    embedding: Embedding | None = None
    backend: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        """The scalar fields are checked here, so a config loaded from JSON and
        one with fields replaced afterwards pass the same checks. The seed
        takes an exact int: JSON true/false would pass isinstance(int)."""
        if self.backend not in ("exact", "float"):
            raise ConfigError(f"unknown backend {self.backend!r}", "backend")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be an unsigned 64-bit integer", "seed")

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_points(self) -> int:
        return math.prod(c.k for c in self.cells)

    def build_model(self) -> NoiseModel:
        return NoiseModel(self.cells, backend=self.backend)

    def subalgebra(self, name: str) -> Subalgebra:
        for key, sub in self.subalgebras:
            if key == name:
                return sub
        raise ConfigError(f"unknown subalgebra {name!r}", "subalgebras")

    def vector(self, name: str) -> tuple[Fraction, ...]:
        """The values of a named vector, resolved from the config alone."""
        for key, values in self.vectors:
            if key == name:
                return values
        raise ConfigError(f"unknown vector {name!r}", "vectors")


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", path)


def _parse_cells(raw, path: str) -> tuple[Cell, ...]:
    if not isinstance(raw, list):
        raise ConfigError("cells must be a list", path)
    cells = []
    for i, entry in enumerate(raw):
        cpath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("cell must be an object", cpath)
        _require_keys(entry, {"k", "probs"}, cpath)
        if "probs" not in entry:
            raise ConfigError("cell needs probs", cpath)
        probs = entry["probs"]
        if not isinstance(probs, list):
            raise ConfigError("probs must be a list", cpath)
        parsed = tuple(
            parse_fraction(p, f"{cpath}.probs[{j}]") for j, p in enumerate(probs)
        )
        if "k" in entry:
            if type(entry["k"]) is not int:
                raise ConfigError("k must be an integer", cpath)
            if entry["k"] != len(parsed):
                raise ConfigError(f"k={entry['k']} does not match {len(parsed)} probabilities", cpath)
        try:
            cells.append(Cell(parsed))
        except ValueError as exc:
            raise ConfigError(str(exc), cpath) from exc
    return tuple(cells)


def _named(data: dict, key: str):
    """The (name, value) pairs of an optional field that maps names to values."""
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be an object mapping names to values", key)
    return raw.items()


def load_config_dict(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    _require_keys(data, _TOP_KEYS, "")
    if "cells" not in data:
        raise ConfigError("missing key 'cells'")
    cells = _parse_cells(data["cells"], "cells")
    n = len(cells)
    n_points = math.prod(c.k for c in cells)

    subalgebras = []
    for name, blocks in _named(data, "subalgebras"):
        spath = f"subalgebras.{name}"
        if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
            raise ConfigError("blocks must be a list of index lists", spath)
        # from_indices checks the range and Subalgebra the blocks; neither sees
        # a non-int index or one repeated in a block, which from_indices ORs away.
        for b in blocks:
            for i in b:
                if type(i) is not int:
                    raise ConfigError(f"cell index {i!r} out of range", spath)
            if len(set(b)) != len(b):
                raise ConfigError("cell index repeated within a block", spath)
        try:
            sub = Subalgebra(n, tuple(BoolElem.from_indices(b, n) for b in blocks))
        except ValueError as exc:
            raise ConfigError(str(exc), spath) from exc
        subalgebras.append((name, sub))

    vectors = []
    for name, values in _named(data, "vectors"):
        vpath = f"vectors.{name}"
        if not isinstance(values, list):
            raise ConfigError("vector must be a list of fraction strings", vpath)
        parsed_v = tuple(
            parse_fraction(v, f"{vpath}[{j}]") for j, v in enumerate(values)
        )
        if len(parsed_v) != n_points:
            raise ConfigError(
                f"vector has {len(parsed_v)} entries, space has {n_points} points", vpath
            )
        vectors.append((name, parsed_v))

    embedding = None
    if "embedding" in data:
        epath = "embedding"
        emb = data["embedding"]
        if not isinstance(emb, dict):
            raise ConfigError("embedding must be an object", epath)
        _require_keys(emb, {"sample_points"}, epath)
        pts_raw = emb.get("sample_points")
        if not isinstance(pts_raw, list):
            raise ConfigError("sample_points must be a list", epath)
        pts = tuple(
            parse_fraction(p, f"{epath}.sample_points[{j}]") for j, p in enumerate(pts_raw)
        )
        try:
            embedding = build_embedding(pts, n)
        except ValueError as exc:
            raise ConfigError(str(exc), f"{epath}.sample_points") from exc

    return ModelConfig(
        cells=cells,
        subalgebras=tuple(subalgebras),
        vectors=tuple(vectors),
        embedding=embedding,
        backend=data.get("backend", "exact"),
        seed=data.get("seed", 0),
    )


def load_model_config(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return load_config_dict(data)
