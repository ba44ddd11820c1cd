import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noise_lab import linalg
from noise_lab.boolalg import BoolElem
from noise_lab.chaos import _additivity_rows, split_solution_space

from conftest import model_family

F = Fraction


def reference_rref(rows):
    """Gauss-Jordan elimination over Fraction: the reference that the
    fraction-free integer kernel of ``linalg.rref`` is checked against."""
    mat = [list(row) for row in rows]
    if not mat:
        return [], []
    n_cols = len(mat[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        if inv != 1:
            mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                row_r = mat[r]
                mat[i] = [a - f * b for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def span_contains(rows, v):
    """True iff v lies in the row span of rows (exact)."""
    return linalg.rank(rows) == linalg.rank([*rows, v])


def test_rref_identifies_rank():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = linalg.rref(rows)
    assert len(reduced) == 2
    assert pivots == [0, 1]
    assert linalg.rank(rows) == 2


def test_nullspace_solves_exactly():
    # x + 2y + 3z = 0, y + z = 0  ->  one free direction
    rows = [[F(1), F(2), F(3)], [F(0), F(1), F(1)]]
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 1
    for v in basis:
        assert sum(a * b for a, b in zip(rows[0], v)) == 0
        assert sum(a * b for a, b in zip(rows[1], v)) == 0


def test_nullspace_of_full_rank_is_trivial():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.nullspace(rows, 2) == []


def test_span_contains_and_equal():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert span_contains(a, [F(1), F(1), F(2)])
    assert not span_contains(a, [F(1), F(1), F(0)])
    b = [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]]
    assert linalg.span_equal(a, b)
    assert not linalg.span_equal(a, [[F(1), F(0), F(0)]])


# -- the integer kernel against the Fraction reference --------------------------

_DENOMINATORS = (1, 1, 2, 3, 7, 12, 999, 10**6, 999_983)


def _entry(rng, density):
    if rng.random() >= density:
        return F(0)
    return F(rng.randint(-10**6, 10**6), rng.choice(_DENOMINATORS))


def _random_matrix(rng, n_rows, n_cols):
    """Sparse-to-dense rational rows; some rows duplicated, scaled, or summed
    from others so the rank is often deficient."""
    density = rng.choice((0.2, 0.5, 1.0))
    rows = [[_entry(rng, density) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(n_rows):
        if i >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(i), 2)
            s = F(rng.randint(-5, 5), rng.choice((1, 3, 10**6)))
            rows[i] = [u + s * v for u, v in zip(rows[a], rows[b])]
        elif i >= 1 and rng.random() < 0.2:
            rows[i] = [F(-3, 7) * v for v in rows[rng.randrange(i)]]
    if rng.random() < 0.2:
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
    rng.shuffle(rows)
    return rows


def _cases():
    rng = random.Random(20261018)
    cases = [[], [[]], [[]] * 3, [[F(0)] * 4] * 3, [[F(0)] * 5], [[F(-2, 10**6)]]]
    shapes = [(1, n) for n in range(1, 9)] + [(n, 1) for n in range(1, 5)]
    while len(shapes) < 330:
        n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 10)
        if rng.random() < 0.3:  # tall
            n_rows = n_cols + rng.randint(1, 6)
        shapes.append((n_rows, n_cols))
    cases += [_random_matrix(rng, r, c) for r, c in shapes]
    return cases


def _reference_nullspace(rows, n_cols, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "rref", reference_rref)
        return linalg.nullspace(rows, n_cols)


def test_integer_kernel_matches_fraction_reference(monkeypatch):
    cases = _cases()
    assert len(cases) >= 300
    rng = random.Random(5)
    for rows in cases:
        n_cols = len(rows[0]) if rows else 0
        # The reference divides with `/`, so it takes Fraction rows only.
        as_fractions = [[F(v) for v in row] for row in rows]
        expected, expected_pivots = reference_rref(as_fractions)
        reduced, pivots = linalg.rref(rows)
        assert pivots == expected_pivots
        assert reduced == expected
        for row, c in zip(reduced, pivots):
            assert all(type(v) is Fraction for v in row)
            assert type(row[c]) is Fraction and row[c] == 1
        assert linalg.rank(rows) == len(expected)

        basis = linalg.nullspace(rows, n_cols)
        assert basis == _reference_nullspace(as_fractions, n_cols, monkeypatch)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)

        if rows and n_cols:
            # Same span by construction: the rows rescaled, reversed, and one
            # pairwise sum added.
            mixed = [[F(-5, 3) * v for v in row] for row in reversed(rows)]
            mixed.append([u + v for u, v in zip(rng.choice(rows), rng.choice(rows))])
            probe = [_entry(rng, 1.0) for _ in range(n_cols)]
            for other in (mixed, [probe], [*rows, probe]):
                ref_equal = len(expected) == len(reference_rref(other)[0]) == len(
                    reference_rref([*as_fractions, *other])[0]
                )
                assert linalg.span_equal(rows, other) == ref_equal


def _exact(rows):
    return [[(type(v), v) for v in row] for row in rows]


@pytest.mark.parametrize(
    "m", model_family(3, (2, 3)), ids=lambda m: "x".join(map(str, m.radices)) or "none"
)
def test_chaos_bases_equal_under_reference_elimination(m, monkeypatch):
    x = BoolElem(1, m.n_cells) if m.n_cells else BoolElem(0, 0)

    def solve():
        chaos = linalg.nullspace(_additivity_rows(m), m.n_points)
        return _exact(chaos), _exact(v.values for v in split_solution_space(m, x))

    fast = solve()
    monkeypatch.setattr(linalg, "rref", reference_rref)
    assert solve() == fast


def test_spectral_norm_known_matrices():
    assert linalg.spectral_norm([[0.0, 0.0], [0.0, 0.0]]) == 0.0
    assert abs(linalg.spectral_norm([[3.0]]) - 3.0) < 1e-12
    # Singular values of [[1,0],[0,2]] are 1 and 2.
    assert abs(linalg.spectral_norm([[1.0, 0.0], [0.0, 2.0]]) - 2.0) < 1e-9
    # Rank-one 2x3: norm is the Euclidean norm product of the factors.
    mat = [[2.0, 1.0, 2.0]]
    assert abs(linalg.spectral_norm(mat) - 3.0) < 1e-9


def test_spectral_norm_against_gram_eigenvalue():
    mat = [[1.0, 2.0], [3.0, 4.0]]
    # Largest eigenvalue of Gram computed by hand from the characteristic
    # polynomial: lambda = (30 + sqrt(30^2 - 4*4)) / 2.
    lam = (30 + (900 - 16) ** 0.5) / 2
    assert abs(linalg.spectral_norm(mat) - lam**0.5) < 1e-9


def _matrices(entries):
    """Matrices of up to 6 rows and 6 columns, with small entries and many
    zeros, so that dependent rows and empty columns come up often."""
    return st.integers(1, 6).flatmap(
        lambda n_cols: st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols), max_size=6)
    )


SMALL_INTS = st.integers(-3, 3) | st.just(0)
SMALL_FRACTIONS = st.builds(F, st.integers(-4, 4), st.integers(1, 5))


@settings(max_examples=300, derandomize=True)
@given(_matrices(SMALL_INTS) | _matrices(SMALL_FRACTIONS))
def test_rank_counts_the_pivots_of_rref(rows):
    assert linalg.rank(rows) == len(linalg.rref(rows)[1])


def _spectral_norm_reference(mat):
    """The written-out reference for linalg.spectral_norm: a Gram builder for
    each side, early returns for an empty matrix and an all-zero Gram, and
    two Gram products per step (one to advance, one for the Rayleigh
    quotient)."""
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return 0.0
    if n_cols <= n_rows:
        gram = [
            [sum(mat[i][a] * mat[i][b] for i in range(n_rows)) for b in range(n_cols)]
            for a in range(n_cols)
        ]
    else:
        gram = [
            [sum(mat[a][j] * mat[b][j] for j in range(n_cols)) for b in range(n_rows)]
            for a in range(n_rows)
        ]
    dim = len(gram)
    if all(gram[i][j] == 0.0 for i in range(dim) for j in range(dim)):
        return 0.0
    v = [1.0 + 1e-3 * i for i in range(dim)]
    norm = sum(x * x for x in v) ** 0.5
    v = [x / norm for x in v]
    lam = 0.0
    for _ in range(400):
        w = [sum(gram[i][j] * v[j] for j in range(dim)) for i in range(dim)]
        norm = sum(x * x for x in w) ** 0.5
        if norm == 0.0:
            return 0.0
        v = [x / norm for x in w]
        new_lam = sum(v[i] * sum(gram[i][j] * v[j] for j in range(dim)) for i in range(dim))
        if abs(new_lam - lam) <= 1e-15 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return max(lam, 0.0) ** 0.5


FLOAT_ENTRIES = st.floats(-2.0, 2.0) | st.integers(-3, 3).map(float) | st.just(0.0)


def _float_matrices(min_side):
    """Tall, wide and square matrices of up to 6 rows and 6 columns, with
    small-integer entries and zeros mixed in; all-zero ones as well."""
    shape = st.tuples(st.integers(min_side, 6), st.integers(min_side, 6))
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(FLOAT_ENTRIES, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
        | st.just([[0.0] * rc[1] for _ in range(rc[0])])
    )


# The near-degenerate mixed matrix of pairsum-2323: the reference stops at
# the 400-step cap there.
PAIRSUM_TIGHT = [[0.21295885499997996, 0.0], [0.0, 0.21213203435596426]]


@settings(max_examples=400, derandomize=True)
@given(_float_matrices(0))
@example([])
@example([[]])
@example([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
@example(PAIRSUM_TIGHT)
def test_spectral_norm_is_the_reference_bit_for_bit(mat):
    assert linalg.spectral_norm(mat).hex() == _spectral_norm_reference(mat).hex()


@settings(max_examples=200, derandomize=True)
@given(_float_matrices(1).filter(lambda mat: len(mat) != len(mat[0])))
def test_spectral_norm_of_the_transpose_is_the_same_bits(mat):
    transpose = [list(col) for col in zip(*mat)]
    assert linalg.spectral_norm(mat).hex() == linalg.spectral_norm(transpose).hex()
