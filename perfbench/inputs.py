"""Seeded input generation for the noise-lab benchmark.

Every input a run uses (configs, per-op seeds) comes from one
``random.Random`` built from the workload seed, so the same seed always
gives byte-identical input files.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Fixed rational pools, one per cell size. All denominators are small so a
# draw does not change the cost of exact arithmetic by much.
PROB_POOLS = {
    2: (
        ("1/3", "2/3"),
        ("2/5", "3/5"),
        ("1/4", "3/4"),
        ("3/7", "4/7"),
        ("2/7", "5/7"),
        ("3/8", "5/8"),
    ),
    3: (
        ("1/6", "1/3", "1/2"),
        ("1/5", "2/5", "2/5"),
        ("1/4", "1/4", "1/2"),
        ("2/7", "2/7", "3/7"),
        ("1/3", "1/3", "1/3"),
        ("3/10", "1/5", "1/2"),
    ),
}

# Denominators of sample points; none is a power of two, and a reduced
# fraction is re-checked anyway.
_POINT_DENOMINATORS = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)


def draw_cells(rng: random.Random, radices) -> list[list[str]]:
    return [list(rng.choice(PROB_POOLS[k])) for k in radices]


def draw_sample_points(rng: random.Random, n: int) -> list[Fraction]:
    """n strictly increasing, non-dyadic rationals in (0,1)."""
    points: set[Fraction] = set()
    while len(points) < n:
        q = rng.choice(_POINT_DENOMINATORS)
        t = Fraction(rng.randrange(1, q), q)
        if t.denominator & (t.denominator - 1):
            points.add(t)
    return sorted(points)


def draw_op_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def pairsum_vector(cells: list[list[str]]) -> tuple[list[Fraction], list[Fraction]]:
    """f0*f1 + f2*f3 with f_i = 1{outcome 1} - p_i1, in point order (cell 0
    slowest), plus each factor's variance p_i1 (1 - p_i1)."""
    probs = [[Fraction(p) for p in c] for c in cells]
    radices = [len(c) for c in cells]
    p1 = [ps[1] for ps in probs]
    values = []
    n_points = 1
    for k in radices:
        n_points *= k
    for idx in range(n_points):
        digits = []
        rest = idx
        for k in reversed(radices):
            digits.append(rest % k)
            rest //= k
        digits.reverse()
        f = [(1 if d == 1 else 0) - p for d, p in zip(digits, p1)]
        values.append(f[0] * f[1] + f[2] * f[3])
    return values, [p * (1 - p) for p in p1]


def verify_config(rng: random.Random, radices, backend: str) -> dict:
    cells = draw_cells(rng, radices)
    return {
        "cells": [{"k": len(c), "probs": c} for c in cells],
        "embedding": {"sample_points": [str(t) for t in draw_sample_points(rng, len(radices))]},
        "backend": backend,
    }


def chaos_config(rng: random.Random, radices) -> tuple[dict, Fraction]:
    """Config with the ``blocks`` subalgebra [[0,1],[2,3]] and the ``pairsum``
    vector, plus the exact defect delta^2 the CLI must report: the largest
    product of factor variances over the two blocks."""
    cells = draw_cells(rng, radices)
    values, var = pairsum_vector(cells)
    cfg = {
        "cells": [{"k": len(c), "probs": c} for c in cells],
        "subalgebras": {"blocks": [[0, 1], [2, 3]]},
        "vectors": {"pairsum": [str(v) for v in values]},
    }
    return cfg, max(var[0] * var[1], var[2] * var[3])


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
