"""Exact linear algebra over rationals: elimination, nullspaces, span tests.

Elimination is fraction-free over ``int`` (Bareiss, *Math. Comp.* 22, 1968;
Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 9):
rows are cleared of denominators, combined by cross-multiplication and
divided by the gcd of their entries. ``Fraction`` appears only in the
reduced rows that :func:`rref` returns, so results are bit-exact;
:func:`rank` (and through it :func:`span_equal`) reads only the pivots of
the forward elimination and builds none. The one float routine,
:func:`spectral_norm`, is a power iteration on one Gram matrix, built on the
smaller side, with one Gram product per step.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vector = list
Matrix = list


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _eliminate(rows: Matrix, reduce: bool) -> tuple[list[list[int]], list[int]]:
    """Integer elimination of rows of Fraction or int entries: (the nonzero
    rows, each a primitive integer row; pivot column indices). With reduce,
    a pivot clears its column in every other row (reduced row echelon form);
    without, only in the rows below it (row echelon form), which has the
    same pivots.

    Each integer row stays a nonzero multiple of the row that elimination
    over ``Fraction`` would hold.
    """
    mat = []
    for row in rows:
        scale = math.lcm(*(v.denominator for v in row))
        mat.append(_primitive([v.numerator * (scale // v.denominator) for v in row]))
    pivots: list[int] = []
    if not mat:
        return mat, pivots
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        row_r = mat[r]
        p = row_r[c]
        for i in range(0 if reduce else r + 1, len(mat)):
            row_i = mat[i]
            e = row_i[c]
            if e and i != r:
                g = math.gcd(p, e)
                a, b = p // g, e // g
                mat[i] = _primitive([a * u - b * v for u, v in zip(row_i, row_r)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of rows of Fraction or int entries. Returns
    (nonzero rows, as Fractions; pivot column indices): each integer row of
    the elimination divided by its pivot."""
    mat, pivots = _eliminate(rows, reduce=True)
    return [[Fraction(v, row[c]) for v in row] for row, c in zip(mat, pivots)], pivots


def rank(rows: Matrix) -> int:
    """The number of pivots of a row echelon form, found over ``int`` alone:
    no ``Fraction`` is built and no row above a pivot is touched."""
    return len(_eliminate(rows, reduce=False)[1])


def nullspace(rows: Matrix, n_cols: int) -> list[Vector]:
    """Basis of {v : A v = 0}, one vector per free column, in column order."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def span_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    """True iff the two row sets span the same subspace (exact)."""
    ra = rank(rows_a)
    if ra != rank(rows_b):
        return False
    return rank([*rows_a, *rows_b]) == ra


def spectral_norm(mat: list[list[float]]) -> float:
    """Largest singular value of a small dense float matrix, by at most 400
    steps of power iteration on the Gram matrix CᵀC of C, taken on the
    smaller side (C is transposed when it is wider than tall). Each step
    makes one Gram product w = G·v and reads the Rayleigh quotient as v·w;
    the next step advances from that w. An empty or all-zero matrix gives
    a zero product on the first step and returns 0.0. Deterministic start
    vector."""
    if mat and len(mat[0]) > len(mat):
        mat = list(zip(*mat))
    dim = len(mat[0]) if mat else 0
    gram = [[sum(row[a] * row[b] for row in mat) for b in range(dim)] for a in range(dim)]

    def times_gram(u: list[float]) -> list[float]:
        return [sum(g * x for g, x in zip(row, u)) for row in gram]

    # Index-skewed start breaks symmetry without randomness.
    v = [1.0 + 1e-3 * i for i in range(dim)]
    norm = sum(x * x for x in v) ** 0.5
    w = times_gram([x / norm for x in v])
    lam = 0.0
    for _ in range(400):
        norm = sum(x * x for x in w) ** 0.5
        if norm == 0.0:
            return 0.0
        v = [x / norm for x in w]
        w = times_gram(v)
        new_lam = sum(x * y for x, y in zip(v, w))
        if abs(new_lam - lam) <= 1e-15 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return max(lam, 0.0) ** 0.5
