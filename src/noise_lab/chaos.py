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
sums over the kept coefficients.

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
    NoiseModel,
    RandomVariable,
    _check_length,
    _over_lcd,
    _transform,
    mass_inside,
    masked_coeffs,
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
    delta: float
    sigma_max: float


class Classification(enum.Enum):
    CLASSICAL = "classical"
    BLACK = "black"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class ClassifyResult:
    kind: Classification
    degenerate: bool
    dimension: int


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


# -- coefficient space ----------------------------------------------------------


def _plus(f: list, g: list) -> list:
    return [a + b for a, b in zip(f, g)]


def _coeffs_eq(model: NoiseModel, f: list, g: list) -> bool:
    return all(model.eq(a, b) for a, b in zip(f, g))


# -- additivity and defect ----------------------------------------------------


def satisfies_additivity(model: NoiseModel, psi: RandomVariable, b: Subalgebra) -> bool:
    """Exact additivity of conditioning over the subalgebra b: zero mean,
    and the disjoint-pair split. Synthesis is a bijection, so the
    projections are compared as masked coefficient vectors; the mean of psi
    is its coefficient on e_0 = 1.
    """
    return _is_additive(model, walsh_decompose(model, psi), b)


def _is_additive(model: NoiseModel, coeffs, b: Subalgebra) -> bool:
    """``satisfies_additivity`` on the Walsh coefficients of psi."""
    if not model.eq(coeffs[0], 0):
        return False
    proj = {e.mask: masked_coeffs(model, coeffs, e) for e in b.elements()}
    return all(
        _coeffs_eq(model, proj[x | y], _plus(proj[x], proj[y]))
        for x in proj
        for y in proj
        if x & y == 0
    )


def additive_vector(model: NoiseModel, b: Subalgebra, seedling: RandomVariable) -> RandomVariable:
    """Project a raw vector into the space of b-additive vectors: the sum of
    its zero-mean conditionals on the atoms of b, which keeps exactly the
    coefficients whose nonempty support lies inside one block."""
    zero = model._num(Fraction(0))
    kept = [
        c if s and any(s & ~block.mask == 0 for block in b.blocks) else zero
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
    psi is not additive on b.
    """
    coeffs = walsh_decompose(model, psi)
    if not _is_additive(model, coeffs, b):
        raise NotAdditiveError("additivity on b fails")
    delta_sq = max(
        (mass_inside(model, coeffs, block) for block in b.blocks),
        default=model._num(Fraction(0)),
    )
    return DefectCertificate(delta_sq=delta_sq, delta=math.sqrt(float(delta_sq)), coeffs=coeffs)


def _restrict_index(model: NoiseModel, idx: int, mask: int) -> int:
    """Zero the digits of a flat multi-index outside the given cell mask."""
    out = 0
    for i, d in enumerate(model.point_digits(idx)):
        if mask >> i & 1:
            out += d * model.strides[i]
    return out


def defect_bound_check(
    model: NoiseModel,
    psi: RandomVariable,
    b: Subalgebra,
    x: BoolElem,
    certificate: DefectCertificate | None = None,
) -> DefectBoundReport:
    """Verify |E(psi*xi*eta)| <= delta for unit zero-mean xi measurable in x
    and eta measurable in the complement.

    The mixed component of psi against normalized tensor pairs forms a
    matrix C; each |C_jk| <= delta is checked exactly on squares, and the
    operator norm of C is checked in floats by power iteration. A given
    certificate must be psi's; its coefficients are reused.
    """
    if certificate is None:
        certificate = atomless_defect(model, psi, b)
    delta_sq = certificate.delta_sq
    delta = certificate.delta

    coeffs = certificate.coeffs
    masks = model.support_masks
    comp = x.complement()
    entries: dict[tuple[int, int], tuple] = {}
    for idx, c in enumerate(coeffs):
        m = masks[idx]
        if c != 0 and m & x.mask and m & comp.mask:
            j = _restrict_index(model, idx, x.mask)
            k = _restrict_index(model, idx, comp.mask)
            entries[(j, k)] = (c, model.basis_norms[j], model.basis_norms[k])

    entrywise = all(model.leq(c * c * nj * nk, delta_sq) for c, nj, nk in entries.values())

    row_ids = sorted({j for j, _ in entries})
    col_ids = sorted({k for _, k in entries})
    row_pos = {j: a for a, j in enumerate(row_ids)}
    col_pos = {k: a for a, k in enumerate(col_ids)}
    mat = [[0.0] * len(col_ids) for _ in row_ids]
    for (j, k), (c, nj, nk) in entries.items():
        mat[row_pos[j]][col_pos[k]] = float(c) * math.sqrt(float(nj) * float(nk))
    sigma = linalg.spectral_norm(mat) if entries else 0.0
    return DefectBoundReport(passed=entrywise and sigma <= delta + 1e-9, delta=delta, sigma_max=sigma)


# -- split identity and the product criterion ---------------------------------


def split_check(model: NoiseModel, psi: RandomVariable, x: BoolElem) -> bool:
    """Does conditioning on x and on its complement reassemble psi exactly?

    Compared on coefficients: psi against the sum of its coefficient vector
    masked to x and masked to the complement, all over one common
    denominator (ints on the exact backend). The solution space of the
    identity is matched against the basis span separately, by elimination
    (split_solution_space and the suite check chaos.split_space).
    """
    _check_length(model, psi)
    coeffs, _ = _transform(model, psi.values, model._analysis, model._analysis_scale)
    parts = _plus(masked_coeffs(model, coeffs, x), masked_coeffs(model, coeffs, x.complement()))
    return _coeffs_eq(model, coeffs, parts)


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


def _moments_vanish(model: NoiseModel, psi: RandomVariable, left: list, right: list) -> bool:
    """E(psi) = 0 and E(psi*e_j*e_k) = 0 for every e_j in left and e_k in
    right. psi*w is formed from psi and the weights over their common
    denominators, as the factors are, so each sum below is the moment times
    a positive constant."""
    _check_length(model, psi)
    psi_w = list(map(operator.mul, _over_lcd(model, psi.values)[0], model.point_weights_lcd[0]))
    if not model.eq(sum(psi_w), 0):
        return False
    for ej in left:
        partial = list(map(operator.mul, psi_w, ej))
        for ek in right:
            if not model.eq(sum(map(operator.mul, partial, ek)), 0):
                return False
    return True


def product_test(model: NoiseModel, psis: Sequence[RandomVariable], x: BoolElem) -> list[bool]:
    """Per vector: zero mean and zero mixed third moments against spanning
    zero-mean factors from x and from its complement (computed pointwise,
    exactly: over ints on the exact backend, from psi*w and the factors over
    their common denominators). The factors are built once for all the
    vectors, and not at all when one side has none (x = 0 or 1), where only
    the mean test remains."""
    left = list(model.multi_indices_supported_in(x))
    right = list(model.multi_indices_supported_in(x.complement()))
    if not (left and right):
        left = right = []
    left = [_over_lcd(model, model.walsh_vector(j).values)[0] for j in left]
    right = [_over_lcd(model, model.walsh_vector(k).values)[0] for k in right]
    return [_moments_vanish(model, psi, left, right) for psi in psis]


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


def classify(model: NoiseModel, basis: tuple[RandomVariable, ...]) -> ClassifyResult:
    """Classical when the first chaos (the basis from first_chaos_basis)
    separates all points; black when it is trivial. A zero-cell model is
    black only by letter and is flagged degenerate rather than reported as a
    genuine example."""
    if not basis:
        return ClassifyResult(
            kind=Classification.BLACK, degenerate=model.n_cells == 0, dimension=0
        )
    kind = (
        Classification.CLASSICAL
        if len(sigma_field_generated(model, basis)) == model.n_points
        else Classification.INTERMEDIATE
    )
    return ClassifyResult(kind=kind, degenerate=False, dimension=len(basis))
