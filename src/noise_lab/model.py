"""Finite product probability spaces with an exact orthogonal decomposition.

A model is a finite list of independent cells, each with rational outcome
probabilities. Points of the product space are indexed in mixed radix with
cell 0 slowest. Per cell, the basis orthogonalizes the constant and the
indicators of outcomes 1..k-1, in outcome order, WITHOUT normalization, in
closed form (_cell_basis), so every entry and squared norm is rational; the
float backend rounds those exact numbers once. The tensor products of these
per-cell vectors form the global orthogonal basis, indexed by multi-indices
whose nonzero digits mark the cells a basis vector depends on.

Conditioning on the coordinates in a cell set x is the projection that kills
every basis coefficient whose support is not inside x. A naive
block-averaging conditional expectation is kept alongside as an independent
oracle.

Walsh analysis and synthesis apply one k x k matrix along each cell axis,
with the shuffle algorithm for Kronecker products (Davio 1981; Fernandes,
Plateau and Stewart 1998): the axis being transformed is kept slowest, so
it is k contiguous slices combined by list comprehensions, and writing row
o of the result to every k-th entry from o (slice assignment) rotates the
next cell to the front. A zero matrix entry adds no term; every basis of a
cell with k >= 3 has some, as e_j vanishes on outcomes 1..j-1. An analysis
may keep only row 0, the weighted average, along the cells whose
coefficients its caller never reads: walsh_decompose(model, f, x) computes
only those of Q_x f, the ones supported inside x. On the exact backend those
matrices are stored as integers: each is scaled by the LCD of its entries,
and the model keeps the product of the scales. A transform puts the input
vector over its common denominator D, runs the kernel over Python ints, and
divides each entry once, by D times that product (fraction-free, as
linalg.rref is). A projection stays over ints from analysis through the mask
to synthesis, and inner products, squared norms and expectations are one
integer sum against the point weights, and a Parseval mass one against the
basis norms; the model keeps both over their LCD. Only the returned entries
or scalars are Fractions.

Synthesis skips the factors that act as a broadcast, as the shuffle
algorithm does: it runs on the sub-grid of the live cells, those that some
nonzero coefficient depends on, read off the coefficients rather than off a
cell set. Along a dead cell's axis the kernel would only scale by the cell's
column-0 entry (its LCD on the exact backend, 1 on the float backend) and
add terms r*0, so the sub-grid result is scaled by those entries and
broadcast to the N points. The kernel for Q_x f thus runs on the sub-grid
of x's cells rather than on N points, and walsh_vector takes its Kronecker
product over its support alone.

Two numeric backends: exact rationals (default) and binary floats for larger
randomized sweeps (absolute tolerance 1e-9). The float backend runs its
float matrices through the same kernel with no scaling.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .boolalg import BoolElem

FLOAT_TOL = 1e-9


def _total(items, start=0):
    """The sum of items, added left to right: from Python 3.12 on sum()
    compensates float rounding, and float reports would depend on it."""
    return functools.reduce(operator.add, items, start)


@dataclass(frozen=True)
class Cell:
    """One independent factor: k >= 2 outcomes with probabilities in (0,1)."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 2:
            raise ValueError("cell needs at least 2 outcomes")
        total = Fraction(0)
        for p in self.probs:
            if not isinstance(p, Fraction):
                raise ValueError("cell probabilities must be exact rationals")
            if not 0 < p < 1:
                raise ValueError(f"outcome probability {p} not strictly inside (0,1)")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total} != 1")

    @property
    def k(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class RandomVariable:
    """A function on the product space: one value per point, in point order."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)

    def _check(self, other: "RandomVariable") -> None:
        if len(self.values) != len(other.values):
            raise ValueError("random variables live on different spaces")

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        self._check(other)
        return RandomVariable(tuple([a + b for a, b in zip(self.values, other.values)]))

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        self._check(other)
        return RandomVariable(tuple([a - b for a, b in zip(self.values, other.values)]))

    def __mul__(self, other: "RandomVariable") -> "RandomVariable":
        """Pointwise product."""
        self._check(other)
        return RandomVariable(tuple([a * b for a, b in zip(self.values, other.values)]))

    def scale(self, c) -> "RandomVariable":
        return RandomVariable(tuple([c * v for v in self.values]))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def _cell_basis(probs) -> tuple[tuple, tuple]:
    """(vectors, squared norms) of Gram-Schmidt on 1, 1_1, ..., 1_{k-1} under
    the weights probs, unnormalized, exact and in closed form: the vectors
    before 1_j span the functions constant on S_j = {0, j, ..., k-1}, so
    e_j = 1_j - (p_j / P(S_j)) 1_{S_j}, |e_j|^2 = p_j (P(S_j) - p_j) / P(S_j)."""
    k = len(probs)
    zero, one = Fraction(0), Fraction(1)
    tails = list(itertools.accumulate(reversed(probs)))[::-1]  # p_j + ... + p_{k-1}
    vectors, norms = [(one,) * k], [one]
    for j in range(1, k):
        mass = probs[0] + tails[j]
        c = probs[j] / mass
        vectors.append((-c,) + (zero,) * (j - 1) + (one - c,) + (-c,) * (k - 1 - j))
        norms.append(probs[j] * (mass - probs[j]) / mass)
    return tuple(vectors), tuple(norms)


class NoiseModel:
    """Immutable product-space model with precomputed per-cell basis tables."""

    def __init__(self, cells: Sequence[Cell], backend: str = "exact"):
        if backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {backend!r}")
        self.cells = tuple(cells)
        self.backend = backend
        self.n_cells = len(self.cells)
        self.radices = tuple(c.k for c in self.cells)
        strides = [1] * self.n_cells
        for i in range(self.n_cells - 2, -1, -1):
            strides[i] = strides[i + 1] * self.radices[i + 1]
        self.strides = tuple(strides)
        self.n_points = strides[0] * self.radices[0] if self.n_cells else 1

        num = self._num
        one = num(Fraction(1))
        # Per cell: the basis, rounded once on the float backend, and the
        # k x k matrices built from those numbers: analysis maps values along
        # one axis to per-cell coefficients, synthesis maps back (as integer
        # matrices and a scale on the exact backend).
        cell_vectors, cell_norms_sq, analysis, synthesis = [], [], [], []
        for cell in self.cells:
            exact_vectors, exact_norms = _cell_basis(cell.probs)
            vecs = tuple(tuple(map(num, v)) for v in exact_vectors)
            norms = tuple(map(num, exact_norms))
            probs = [num(p) for p in cell.probs]
            cell_vectors.append(vecs)
            cell_norms_sq.append(norms)
            analysis.append(tuple(tuple(v * p / n for v, p in zip(vec, probs)) for vec, n in zip(vecs, norms)))
            synthesis.append(tuple(zip(*vecs)))
        self.cell_vectors = tuple(cell_vectors)
        self.cell_norms_sq = tuple(cell_norms_sq)
        if backend == "exact":
            self._analysis, self._analysis_scale = _integer_matrices(analysis)
            self._synthesis, self._synthesis_scale = _integer_matrices(synthesis)
        else:
            self._analysis, self._analysis_scale = tuple(analysis), 1
            self._synthesis, self._synthesis_scale = tuple(synthesis), 1

        # Per point (equivalently, per multi-index), each a per-cell Kronecker
        # product: its weight (also kept over the weights' LCD, for the
        # integer sums), the support of the basis vector it indexes (bitmask
        # of cells with a nonzero digit) and that vector's squared norm |e_m|^2
        # (also over its LCD, for the Parseval sums).
        self.point_weights = _kron([[num(p) for p in c.probs] for c in self.cells], one)
        self.point_weights_lcd = _over_lcd(self, self.point_weights)
        self.support_masks = _kron(
            [[0] + [1 << i] * (k - 1) for i, k in enumerate(self.radices)], 0, operator.or_
        )
        self.basis_norms = _kron(self.cell_norms_sq, one)
        self.basis_norms_lcd = _over_lcd(self, self.basis_norms)

    # -- numeric backend ------------------------------------------------

    def _num(self, x: Fraction):
        return float(x) if self.backend == "float" else x

    def eq(self, a, b) -> bool:
        return a == b if self.backend == "exact" else abs(a - b) <= FLOAT_TOL

    def leq(self, a, b) -> bool:
        return a <= b if self.backend == "exact" else a <= b + FLOAT_TOL

    def rv_eq(self, f: RandomVariable, g: RandomVariable) -> bool:
        if self.backend == "exact":
            return f.values == g.values
        return all(abs(a - b) <= FLOAT_TOL for a, b in zip(f.values, g.values))

    # -- indexing --------------------------------------------------------

    def point_digits(self, idx: int) -> tuple[int, ...]:
        digits = []
        for i in range(self.n_cells):
            digits.append(idx // self.strides[i] % self.radices[i])
        return tuple(digits)

    def multi_indices_supported_in(self, x: BoolElem) -> Iterator[int]:
        """Flat multi-indices, other than 0, whose support lies inside x."""
        for idx, mask in enumerate(self.support_masks):
            if mask and mask & ~x.mask == 0:
                yield idx

    # -- vectors ----------------------------------------------------------

    def constant(self, c) -> RandomVariable:
        return RandomVariable((self._num(Fraction(c)) if isinstance(c, (int, Fraction)) else c,) * self.n_points)

    def from_values(self, values) -> RandomVariable:
        vals = tuple([self._num(v) if isinstance(v, (int, Fraction)) else v for v in values])
        if len(vals) != self.n_points:
            raise ValueError(f"expected {self.n_points} values, got {len(vals)}")
        return RandomVariable(vals)

    def walsh_vector(self, idx: int) -> RandomVariable:
        """Materialize basis vector e_m for flat multi-index m: the Kronecker
        product of its per-cell vectors over the cells of its support, in
        cell order, broadcast along the other cells, whose factor is the
        constant 1."""
        live = self.support_masks[idx]
        digits = self.point_digits(idx)
        factors = [self.cell_vectors[i][digits[i]] for i in range(self.n_cells) if live >> i & 1]
        return RandomVariable(tuple(_broadcast(self, _kron(factors, self._num(Fraction(1))), live)))

    def random_rv(self, rng, zero_mean: bool = False) -> RandomVariable:
        if self.backend == "float":
            vals = [-1.0 + 2.0 * rng.random() for _ in range(self.n_points)]  # rng.uniform(-1.0, 1.0)
        else:
            vals = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(self.n_points)]
        rv = RandomVariable(tuple(vals))
        if zero_mean:
            rv = rv - RandomVariable((expectation(self, rv),) * self.n_points)
        return rv


# -- inner product and transforms -----------------------------------------


def _kron(tables, start, op=operator.mul) -> tuple:
    """The Kronecker product of per-cell tables, cell 0 slowest: entry i is
    start op t_0[d_0] op t_1[d_1] ..., combined left to right in cell order,
    where d is the mixed-radix digit vector of i."""
    values = [start]
    for table in tables:
        values = [op(a, b) for a in values for b in table]
    return tuple(values)


def _over_lcd(model: NoiseModel, values) -> tuple[tuple, int]:
    """A vector over a common denominator d, as (entries, d): on the exact
    backend its rationals as ints over their LCD; on the float backend its
    floats over 1."""
    if model.backend == "float":
        return tuple(values), 1
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def _divided(model: NoiseModel, ints, d: int) -> tuple:
    """The inverse of _over_lcd: each distinct entry divided once by d, as one
    Fraction that its equal entries share (on the float backend d is 1)."""
    if model.backend == "float":
        return tuple(ints)
    fracs = {r: Fraction(r, d) for r in set(ints)}
    return tuple([fracs[r] for r in ints])


def _check_length(model: NoiseModel, *fs: RandomVariable) -> None:
    for f in fs:
        if len(f) != model.n_points:
            raise ValueError("random variable does not match the model")


def inner_product(model: NoiseModel, f: RandomVariable, g: RandomVariable):
    """The sum of f*g*w over the points: on the exact backend one integer sum
    over the product of the three common denominators, divided once."""
    _check_length(model, f, g)
    a, da = _over_lcd(model, f.values)
    b, db = (a, da) if g is f else _over_lcd(model, g.values)
    w, dw = model.point_weights_lcd
    total = _total(x * y * z for x, y, z in zip(a, b, w))
    return total if model.backend == "float" else Fraction(total, da * db * dw)


def expectation(model: NoiseModel, f: RandomVariable):
    _check_length(model, f)
    a, da = _over_lcd(model, f.values)
    w, dw = model.point_weights_lcd
    total = _total(x * z for x, z in zip(a, w))
    return total if model.backend == "float" else Fraction(total, da * dw)


def norm_sq(model: NoiseModel, f: RandomVariable):
    return inner_product(model, f, f)


def _apply_per_cell(values: list, radices, matrices) -> list:
    """Apply one matrix of r <= k rows and k columns along each axis of the
    mixed-radix array with the given radices k, slowest first (the shuffle
    algorithm for Kronecker products); that axis of the result has r entries,
    so r = 1 keeps only row 0 along it.

    The axis being transformed is always the slowest: its k contiguous
    slices are combined row by row, and row o is written to every r-th
    entry from o, which moves that axis to the fastest position and puts
    the next axis in front. After the last axis the layout is back in its
    original order. Each entry is accumulated as row[0]*v[0] + row[1]*v[1]
    + ... in that order, skipping the terms after the first whose matrix
    entry is 0 (the cell bases have many): the same ints, and the same
    floats save that a zero may keep a sign that a term 0*v would change."""
    vals = list(values)
    for k, mat in zip(radices, matrices):
        s, rows = len(vals) // k, len(mat)
        slices = [vals[o * s : (o + 1) * s] for o in range(k)]
        vals = [None] * (s * rows)
        for o, row in enumerate(mat):
            acc = [row[0] * c for c in slices[0]]
            for r, sl in zip(row[1:], slices[1:]):
                if r:
                    acc = [a + r * c for a, c in zip(acc, sl)]
            vals[o::rows] = acc
    return vals


def _broadcast(model: NoiseModel, sub, live: int) -> list:
    """Spread an array over the sub-grid of the live cells (the bits of
    live) to the N points: point w takes the entry at its live digits. Cell
    by cell, fastest first, a dead cell repeats k times each run of entries
    that spans the cells after it (the whole array once the run is all)."""
    vals, run = list(sub), 1
    for i in reversed(range(model.n_cells)):
        k = model.radices[i]
        if not live >> i & 1:
            if run == len(vals):
                vals = vals * k
            else:
                runs = zip(*[iter(vals)] * run)
                vals = list(itertools.chain.from_iterable(map(operator.mul, runs, itertools.repeat(k))))
        run *= k
    return vals


def _synthesize(model: NoiseModel, coeffs) -> list:
    """Synthesis of a coefficient vector over ints (floats on the float
    backend) on the sub-grid of its live cells, the cells that some nonzero
    coefficient depends on: the kernel runs along the live axes, the result
    is scaled by the dead cells' column-0 entries and broadcast. The same
    ints as the full kernel, and the same floats, save that a zero entry may
    keep a sign that the full kernel's r*0 terms would change."""
    masks = model.support_masks
    live = functools.reduce(operator.or_, itertools.compress(masks, coeffs), 0)
    axes = [i for i in range(model.n_cells) if live >> i & 1]
    outside = ~live
    sub = _apply_per_cell(
        [c for c, s in zip(coeffs, masks) if not s & outside],
        [model.radices[i] for i in axes],
        [model._synthesis[i] for i in axes],
    )
    dead_scale = math.prod(m[0][0] for i, m in enumerate(model._synthesis) if not live >> i & 1)
    if dead_scale != 1:
        sub = [dead_scale * v for v in sub]
    return _broadcast(model, sub, live)


def _integer_matrices(matrices: list) -> tuple[tuple, int]:
    """Each rational matrix times the LCD of its entries, as an int matrix,
    and the product of those LCDs."""
    scaled = []
    scale = 1
    for mat in matrices:
        d = math.lcm(*[v.denominator for row in mat for v in row])
        scaled.append(tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in mat))
        scale *= d
    return tuple(scaled), scale


def _transform(model: NoiseModel, values, matrices: tuple, scale: int) -> tuple[list, int]:
    """Apply the per-cell matrices to the vector over its common denominator
    D: the result is (out, D * scale), and entry i of the transform is
    out[i] / (D * scale). Exact: out is ints, from the integer matrices."""
    ints, d = _over_lcd(model, values)
    return _apply_per_cell(ints, model.radices, matrices), d * scale


def walsh_decompose(model: NoiseModel, f: RandomVariable, within: BoolElem | None = None) -> tuple:
    """Coefficients of f against the unnormalized tensor basis, as a tuple
    in multi-index order (the mixed-radix layout of points: entry m has digit
    m_i for cell i). The coefficient of e_m is <f, e_m> / |e_m|^2, so
    walsh_reconstruct is an exact inverse. With a cell set `within`, those
    of Q_within f: the full analysis's coefficients supported inside it and
    0 for the rest, which are never computed, as along every other cell the
    kernel keeps row 0 (the weighted average) alone."""
    _check_length(model, f)
    if within is None:
        return _divided(model, *_transform(model, f.values, model._analysis, model._analysis_scale))
    matrices = [m if within.mask >> i & 1 else m[:1] for i, m in enumerate(model._analysis)]
    inside, d = _transform(model, f.values, matrices, model._analysis_scale)
    zero, outside, inside = model._num(0), ~within.mask, iter(inside)
    return _divided(model, [zero if s & outside else next(inside) for s in model.support_masks], d)


def walsh_reconstruct(model: NoiseModel, coeffs: Sequence) -> RandomVariable:
    """The random variable with the given N basis coefficients, synthesized
    on the sub-grid of the cells its nonzero coefficients depend on and
    broadcast to the N points (see _synthesize)."""
    if len(coeffs) != model.n_points:
        raise ValueError("coefficient vector does not match the model")
    ints, d = _over_lcd(model, coeffs)
    return RandomVariable(_divided(model, _synthesize(model, ints), d * model._synthesis_scale))


def support_masses(model: NoiseModel, coeffs) -> dict[int, object]:
    """Parseval mass per support: the sum of c_m^2 |e_m|^2 over the
    multi-indices m with that support, keyed by every cell-set mask in
    increasing order."""
    zero = model._num(Fraction(0))
    masses = dict.fromkeys(range(1 << model.n_cells), zero)
    for c, m, e in zip(coeffs, model.support_masks, model.basis_norms):
        masses[m] = masses[m] + c * c * e
    return masses


def mass_inside(model: NoiseModel, coeffs, x: BoolElem):
    """Parseval: |Q_x f|^2 is the sum of c_m^2 |e_m|^2 over the multi-indices
    m supported inside x, added in flat-index order. On the exact backend it
    is one integer sum, over the kept coefficients' LCD squared times that of
    the basis norms, divided once (as inner_product is). Only the kept
    coefficients are put over their LCD: a block of s cells keeps about
    N / 2^(n-s) of the N."""
    e, de = model.basis_norms_lcd
    outside = ~x.mask
    kept = [(c, n) for c, n, s in zip(coeffs, e, model.support_masks) if not s & outside]
    a, d = _over_lcd(model, [c for c, _ in kept])
    total = _total((c * c * n for c, (_, n) in zip(a, kept)), model._num(0))
    return total if model.backend == "float" else Fraction(total, d * d * de)


# -- sigma-fields and projections -----------------------------------------


def sigma_field_of(model: NoiseModel, x: BoolElem) -> tuple[tuple[int, ...], ...]:
    """Partition of points by equality of the coordinates inside x.

    x = 0 gives one block, x = 1 gives singletons.
    """
    if x.n != model.n_cells:
        raise ValueError("element from a different algebra")
    axes = [(model.strides[i], model.radices[i]) for i in x.indices()]
    blocks: dict[tuple[int, ...], list[int]] = {}
    for w in range(model.n_points):
        blocks.setdefault(tuple([w // s % r for s, r in axes]), []).append(w)
    return tuple(tuple(b) for b in blocks.values())


def masked_coeffs(model: NoiseModel, coeffs, x: BoolElem) -> list:
    """Conditioning on x in coefficient space: keep the coefficients whose
    support lies inside x and zero every one whose support pokes outside."""
    if x.n != model.n_cells:
        raise ValueError("element from a different algebra")
    zero, outside = model._num(0), ~x.mask
    return [zero if s & outside else c for c, s in zip(coeffs, model.support_masks)]


def _conditionals(model: NoiseModel, f: RandomVariable, xs) -> tuple[list, int]:
    """Q_x f for each cell set x in xs from one analysis of f, as (vectors,
    d): each vector is d * Q_x f, over ints on the exact backend (d = 1 on
    the float backend), so sums and comparisons of them need no division.
    The expansion of f does not depend on x, so each x costs one mask and
    one synthesis, on the sub-grid of the cells the kept coefficients depend
    on (the cells of x, unless the mask keeps more). This is the one
    projection path: `projections` and `project` divide its output."""
    _check_length(model, f)
    coeffs, d = _transform(model, f.values, model._analysis, model._analysis_scale)
    out = [_synthesize(model, masked_coeffs(model, coeffs, x)) for x in xs]
    return out, d * model._synthesis_scale


def projections(model: NoiseModel, f: RandomVariable, xs) -> list[RandomVariable]:
    """[Q_x f for x in xs], from one analysis of f: equal, entry for entry
    (bit for bit on the float backend), to project(model, x, f) for each x."""
    out, d = _conditionals(model, f, xs)
    return [RandomVariable(_divided(model, v, d)) for v in out]


def project(model: NoiseModel, x: BoolElem, f: RandomVariable) -> RandomVariable:
    """Conditional expectation given the coordinates in x, via the basis:
    analysis, the mask and synthesis over the vector's common denominator,
    divided once at the end. The one-element case of `projections`."""
    (q,) = projections(model, f, [x])
    return q


def project_oracle(model: NoiseModel, x: BoolElem, fs: Sequence) -> list[RandomVariable]:
    """[Q_x f for f in fs] computed naively: the weighted average of f over
    each block of the coordinate partition, which is found once, with its
    block weights, for all of fs."""
    _check_length(model, *fs)
    weights = model.point_weights
    blocks = [(b, _total(weights[w] for w in b)) for b in sigma_field_of(model, x)]
    out = []
    for f in fs:
        values = [None] * model.n_points
        for block, wtot in blocks:
            avg = _total(f.values[w] * weights[w] for w in block) / wtot
            for w in block:
                values[w] = avg
        out.append(RandomVariable(tuple(values)))
    return out


# -- law verification -------------------------------------------------------


@dataclass
class ProjectionLawReport:
    failures: tuple[str, ...]
    strict_superadditivity_witness: str | None = None


def verify_projection_laws(
    model: NoiseModel, elements: Sequence[BoolElem], rng
) -> ProjectionLawReport:
    """Check every ordered pair (x, y) of the given elements (the caller's
    sampling policy chooses them): strict-norm superadditivity on each
    disjoint pair, for a fresh zero-mean random vector drawn from rng, and
    the composition law Q_x Q_y = Q_{x meet y}, by full projection
    applications on a fixed zero-mean probe, on incomparable pairs (x meet
    y is neither x nor y, so x and y lie strictly between 0 and 1): the
    first 6 with x meet y = 0 and the first 6 with x meet y != 0. On a
    comparable pair the law holds whenever each Q_x keeps a set of supports
    that grows with x: with x or y = 0 both sides vanish on the zero-mean
    probe, and with x or y = 1 both sides are the other projection. With
    x meet y = 0 a mask that scales or drops what it keeps still gives 0 on
    both sides; the pairs with a nonzero meet see it.

    The superadditivity norms come from Parseval on the orthogonal basis
    (mass_inside), without synthesis, from an analysis that computes only
    the coefficients inside x join y, the ones they read; the point-space side
    of that identity, norm_sq(project(...)), is compared with the Parseval
    masses by acceptance criterion 07 and by the suite check
    spectrum__projection_measure.
    """
    failures: list[str] = []
    strict_witness: str | None = None
    composition_budget = [6, 6]  # incomparable pairs with x meet y = 0, != 0
    probe = _default_probe(model)

    for x in elements:
        for y in elements:
            if x.disjoint(y):
                j = x.join(y)
                coeffs = walsh_decompose(model, model.random_rv(rng, zero_mean=True), j)
                nx = mass_inside(model, coeffs, x)
                ny = mass_inside(model, coeffs, y)
                nj = mass_inside(model, coeffs, j)
                if not model.leq(nx + ny, nj):
                    failures.append(f"superadditivity fails at x={x} y={y}")
                elif strict_witness is None and not model.eq(nx + ny, nj):
                    strict_witness = f"x={x} y={y}: {nx}+{ny} < {nj}"

            meet = x.meet(y)
            nonzero = not meet.is_zero
            if meet != x and meet != y and composition_budget[nonzero] > 0:
                composition_budget[nonzero] -= 1
                qy, rhs = projections(model, probe, [y, meet])
                lhs = project(model, x, qy)
                if not model.rv_eq(lhs, rhs):
                    failures.append(f"composition (full application) fails at x={x} y={y}")

    return ProjectionLawReport(tuple(failures), strict_witness)


def _default_probe(model: NoiseModel) -> RandomVariable:
    """A deterministic zero-mean vector touching every basis direction."""
    coeffs = [model._num(Fraction(1 + (idx % 3))) for idx in range(model.n_points)]
    coeffs[0] = model._num(Fraction(0))
    return walsh_reconstruct(model, coeffs)
