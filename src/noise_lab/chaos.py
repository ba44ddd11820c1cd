"""First chaos space, additivity on subalgebras, and the atomless defect.

A vector lies in the first chaos when conditioning splits it additively
across every disjoint pair of cell sets. On a finite product that space is
spanned by the single-cell vectors of the orthogonal basis, and
first_chaos_basis reads them off it. The independent side is a linear
system built from block averages and solved by exact elimination; it runs
once, in the suite check chaos.first_chaos, which compares the two spans.

Everything else works on one Walsh decomposition of the vector at hand:
conditioning on x keeps the coefficients whose support lies inside x, so
projections are masked coefficient vectors and projected norms are Parseval
sums over the kept coefficients. psi is additive on a subalgebra b exactly
when its mean and every coefficient whose support meets two blocks vanish
(the block form of the Efron-Stein decomposition); the pairwise definition
is the other side, in suite checks. The split identity reads coefficients
a caller has decomposed once, and product_test and defect_bound_check take
the whole list of cell sets, so their per-vector work (factor vectors,
weighted vectors, the mixed coefficients) is done once per call.

The first chaos is returned as a tuple of basis vectors. The atomless
defect of a vector, relative to a subalgebra it is additive on, is the
largest conditional norm over the subalgebra's atoms; its certificate holds
delta^2, delta and the coefficients it was read from. The defect bounds
every mixed third moment E(psi*xi*eta), which is the quantitative heart of
the classicality criterion. That no coarser partition of unity does better
is brute-forced once, in the suite check chaos.defect_bound.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .boolalg import BoolElem, Subalgebra
from .model import (
    FLOAT_TOL,
    NoiseModel,
    RandomVariable,
    _check_length,
    _conditionals,
    _over_lcd,
    mass_inside,
    sigma_field_of,
    walsh_decompose,
    walsh_reconstruct,
)


def _require_exact(model: NoiseModel, what: str) -> None:
    if model.backend != "exact":
        raise ValueError(f"{what} requires the exact backend")


@dataclass(frozen=True)
class DefectCertificate:
    """Atomless defect delta: recorded as exact delta^2 plus a float delta
    (delta itself is a square root, hence usually irrational), with the
    Walsh coefficients of the vector it was computed from."""

    delta_sq: Fraction
    delta: float
    coeffs: tuple = field(repr=False)


class NotAdditiveError(ValueError):
    """The vector is not additive on the subalgebra, so it has no defect."""


@dataclass
class DefectBoundReport:
    """Whether every entry of the mixed matrix and its operator norm
    sigma_max are within delta."""

    passed: bool
    sigma_max: float


class Classification(enum.Enum):
    CLASSICAL = "classical"
    BLACK = "black"
    INTERMEDIATE = "intermediate"


# -- first chaos and the additivity system ---------------------------------


def _averaging_rows(model: NoiseModel, parts) -> list[list[Fraction]]:
    """Rows of I - (sum of K_y over y in parts), where K_y averages over the
    blocks of the partition by the coordinates in y (independent of the
    basis path)."""
    n = model.n_points
    rows = [[Fraction(0)] * n for _ in range(n)]
    for y in parts:
        for block in sigma_field_of(model, y):
            wtot = sum(model.point_weights[w] for w in block)
            averages = [(w2, model.point_weights[w2] / wtot) for w2 in block]
            for w in block:
                row = rows[w]
                for w2, v in averages:
                    row[w2] -= v
    for w in range(n):
        rows[w][w] += 1
    return rows


def _additivity_rows(model: NoiseModel) -> list[list[Fraction]]:
    """The additivity system of the first chaos, for elimination in the
    suite check chaos.first_chaos: zero mean, and psi = sum over cells i of
    E(psi | cell i), additivity across the atoms of the finest subalgebra.
    Each cell's term is needed: without cell i's, the directions on cell i
    drop out of the solution."""
    _require_exact(model, "the additivity system")
    cells = [BoolElem(1 << i, model.n_cells) for i in range(model.n_cells)]
    return [list(model.point_weights), *_averaging_rows(model, cells)]


def first_chaos_basis(model: NoiseModel) -> tuple[RandomVariable, ...]:
    """The single-cell basis vectors e_m (support on exactly one cell), in
    flat-index order: sum(k - 1) of them, spanning the first chaos."""
    return tuple(
        model.walsh_vector(idx) for idx, s in enumerate(model.support_masks) if s.bit_count() == 1
    )


# -- additivity and defect ----------------------------------------------------


def satisfies_additivity(model: NoiseModel, psi: RandomVariable, b: Subalgebra) -> bool:
    """Additivity over the subalgebra b by its definition, in point space:
    Q_(x|y) psi = Q_x psi + Q_y psi for every disjoint pair of elements of b
    (x = y = 0 asks for zero mean), on conditionals over one denominator.
    The suite checks chaos.first_chaos and chaos.defect_zero run it."""
    xs = list(b.elements())
    proj = dict(zip([x.mask for x in xs], _conditionals(model, psi, xs)[0]))
    pairs = ((x, y) for x in proj for y in proj if x & y == 0)
    return all(all(map(model.eq, proj[x | y], map(operator.add, proj[x], proj[y]))) for x, y in pairs)


def _in_one_block(s: int, b: Subalgebra) -> bool:
    """Is the support s nonempty and inside one block of b? These are the
    supports a b-additive vector may carry: its spectral measure lies on
    the spectral sets of the blocks and misses the empty set."""
    return s != 0 and any(s & ~block.mask == 0 for block in b.blocks)


def additive_vector(model: NoiseModel, b: Subalgebra, seedling: RandomVariable) -> RandomVariable:
    """Project a raw vector into the space of b-additive vectors: the sum of
    its zero-mean conditionals on the atoms of b, which keeps exactly the
    coefficients whose support is nonempty and inside one block."""
    zero = model._num(Fraction(0))
    kept = [
        c if _in_one_block(s, b) else zero
        for c, s in zip(walsh_decompose(model, seedling), model.support_masks)
    ]
    return walsh_reconstruct(model, kept)


def atomless_defect(
    model: NoiseModel, psi: RandomVariable, b: Subalgebra
) -> DefectCertificate:
    """delta = max over atoms of b of the conditional norm of psi: the
    defect of the finest partition of unity, which by superadditivity is the
    least largest per-part norm over all partitions of unity in b (the suite
    check chaos.defect_bound brute-forces that). Conditional norms are
    Parseval sums over the coefficients of psi. Raises NotAdditiveError when
    psi is not additive on b, that is when its mean or a coefficient whose
    support meets two blocks is nonzero.
    """
    coeffs = walsh_decompose(model, psi)
    stray = (c for c, s in zip(coeffs, model.support_masks) if not _in_one_block(s, b))
    if not all(model.eq(c, 0) for c in stray):
        raise NotAdditiveError("additivity on b fails")
    delta_sq = max(
        (mass_inside(model, coeffs, block) for block in b.blocks),
        default=model._num(Fraction(0)),
    )
    return DefectCertificate(delta_sq=delta_sq, delta=math.sqrt(float(delta_sq)), coeffs=coeffs)


def _restrict_index(model: NoiseModel, digits, mask: int) -> int:
    """The flat multi-index with the given digits zeroed outside the cell
    mask."""
    return sum(d * model.strides[i] for i, d in enumerate(digits) if mask >> i & 1)


def defect_bound_check(
    model: NoiseModel, certificate: DefectCertificate, xs: Sequence[BoolElem]
) -> list[DefectBoundReport]:
    """Verify |E(psi*xi*eta)| <= delta for unit zero-mean xi measurable in x
    and eta measurable in the complement, for each cell set x in xs, where
    psi is the vector the certificate was computed from; one report per
    cell set, in order.

    Only a coefficient whose support has two or more cells can meet both
    sides, so the nonzero ones are collected once. For each x, those
    meeting x and its complement form the mixed component of psi against
    normalized tensor pairs, a matrix C; each |C_jk| <= delta is checked
    exactly on squares, and the operator norm of C in floats by power
    iteration.
    """
    delta_sq, delta = certificate.delta_sq, certificate.delta
    mixed = [
        (idx, model.point_digits(idx), c, m)
        for idx, (c, m) in enumerate(zip(certificate.coeffs, model.support_masks))
        if c != 0 and m & (m - 1)
    ]
    norms = model.basis_norms
    reports = []
    for x in xs:
        comp = x.complement().mask
        entries = []
        for idx, digits, c, m in mixed:
            if m & x.mask and m & comp:
                j = _restrict_index(model, digits, x.mask)
                entries.append((j, idx - j, c))
        entrywise = all(model.leq(c * c * norms[j] * norms[k], delta_sq) for j, k, c in entries)

        row_pos = {j: a for a, j in enumerate(sorted({j for j, _, _ in entries}))}
        col_pos = {k: a for a, k in enumerate(sorted({k for _, k, _ in entries}))}
        mat = [[0.0] * len(col_pos) for _ in row_pos]
        for j, k, c in entries:
            mat[row_pos[j]][col_pos[k]] = float(c) * math.sqrt(float(norms[j]) * float(norms[k]))
        sigma = linalg.spectral_norm(mat)
        reports.append(
            DefectBoundReport(passed=entrywise and sigma <= delta + FLOAT_TOL, sigma_max=sigma)
        )
    return reports


# -- split identity and the product criterion ---------------------------------


def split_check(model: NoiseModel, coeffs, x: BoolElem) -> bool:
    """Does conditioning on x and on its complement reassemble psi exactly?

    Read on the Walsh coefficients of psi: Q_x psi + Q_x' psi keeps a
    coefficient once when its support lies on one side, twice on the empty
    support and not at all when the support meets both sides, so psi splits
    exactly when its mean and every coefficient whose support meets both x
    and ~x vanish. The solution space of the identity is matched against
    the basis span separately, by elimination (split_solution_space and the
    suite check chaos.split_space).
    """
    if x.n != model.n_cells:
        raise ValueError("element from a different algebra")
    comp = x.complement().mask
    return model.eq(coeffs[0], 0) and all(
        model.eq(c, 0) for c, s in zip(coeffs, model.support_masks) if s & x.mask and s & comp
    )


def split_solution_space(model: NoiseModel, x: BoolElem) -> tuple[RandomVariable, ...]:
    """Basis of {psi : psi = Q_x psi + Q_x' psi}, by exact elimination."""
    _require_exact(model, "split_solution_space")
    rows = _averaging_rows(model, (x, x.complement()))
    return tuple(RandomVariable(tuple(v)) for v in linalg.nullspace(rows, model.n_points))


def _split_span_rows(model: NoiseModel, x: BoolElem) -> list[list]:
    xc_mask = x.complement().mask
    rows = []
    for idx, m in enumerate(model.support_masks):
        if m and (m & ~x.mask == 0 or m & ~xc_mask == 0):
            rows.append(list(model.walsh_vector(idx).values))
    return rows


def _mixed_moments_vanish(model: NoiseModel, psi_w: list, left: list, right: list) -> bool:
    """E(psi*e_j*e_k) = 0 for every e_j in left and e_k in right, read from
    psi*w. psi*w and the factors are over their common denominators, so
    each sum below is the moment times a positive constant."""
    for ej in left:
        partial = list(map(operator.mul, psi_w, ej))
        for ek in right:
            if not model.eq(sum(map(operator.mul, partial, ek)), 0):
                return False
    return True


def product_test(
    model: NoiseModel, psis: Sequence[RandomVariable], xs: Sequence[BoolElem]
) -> list[list[bool]]:
    """Per cell set x in xs (one verdict list each), per vector: zero mean
    and zero mixed third moments against spanning zero-mean factors from x
    and from its complement, computed pointwise and exactly (over ints on
    the exact backend, from psi*w and the factors over their common
    denominators). Each psi*w and each factor is built once per call; a cell
    set with an empty side (x = 0 or 1) needs no factors, only the mean."""
    _check_length(model, *psis)
    weights = model.point_weights_lcd[0]
    psi_ws = [list(map(operator.mul, _over_lcd(model, psi.values)[0], weights)) for psi in psis]
    means = [model.eq(sum(psi_w), 0) for psi_w in psi_ws]
    factors: dict[int, tuple] = {}
    verdicts = []
    for x in xs:
        left = list(model.multi_indices_supported_in(x))
        right = list(model.multi_indices_supported_in(x.complement()))
        if not (left and right):
            left = right = []
        for j in left + right:
            if j not in factors:
                factors[j] = _over_lcd(model, model.walsh_vector(j).values)[0]
        left = [factors[j] for j in left]
        right = [factors[k] for k in right]
        verdicts.append(
            [
                mean and _mixed_moments_vanish(model, psi_w, left, right)
                for psi_w, mean in zip(psi_ws, means)
            ]
        )
    return verdicts


# -- classification -----------------------------------------------------------


def sigma_field_generated(
    model: NoiseModel, vectors
) -> tuple[tuple[int, ...], ...]:
    """Common refinement of the level-set partitions of the given vectors."""
    _require_exact(model, "sigma_field_generated")
    blocks: dict[tuple, list[int]] = {}
    vec_list = list(vectors)
    for w in range(model.n_points):
        key = tuple(v.values[w] for v in vec_list)
        blocks.setdefault(key, []).append(w)
    return tuple(tuple(b) for b in blocks.values())


def classify(model: NoiseModel, basis: tuple[RandomVariable, ...]) -> Classification:
    """Classical when the first chaos (the basis from first_chaos_basis)
    separates all points; black when it is trivial. Every cell has k >= 2,
    so the first chaos of a product is trivial only on zero cells, where it
    is black by letter alone; callers flag that case as degenerate."""
    if not basis:
        return Classification.BLACK
    if len(sigma_field_generated(model, basis)) == model.n_points:
        return Classification.CLASSICAL
    return Classification.INTERMEDIATE
