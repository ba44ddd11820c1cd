"""Geometric realization: from dyadic pieces of [0,1] into the cell algebra.

The n cells of a model are pinned to sample points t_1 < ... < t_n in (0,1)
whose reduced denominators are not powers of two. Evaluation at the sample
points maps any regular open set with dyadic endpoints to the set of cells
it contains, and that map respects meet, join and complement precisely
because no sample point can sit on a dyadic boundary.

Each spectral atom M is attached to the finite closed set of sample points
it names. That closed set is recovered from below: remove the interior of
every dyadic piece (up to a working depth) avoiding the atom's points; what
is left is a union of closed grid cells shrinking onto the points as the
depth grows, with a certified Hausdorff bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boolalg import BoolElem
from .model import NoiseModel
from .regopen import EMPTY, Interval, RegOpen, make_regopen

ZERO = Fraction(0)
ONE = Fraction(1)


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def is_dyadic_regopen(r: RegOpen) -> bool:
    return all(is_dyadic(a) and is_dyadic(b) for a, b in r.intervals)


@dataclass(frozen=True)
class Embedding:
    """A model whose cells are pinned to non-dyadic sample points."""

    model: NoiseModel
    sample_points: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.model.n_cells


def check_sample_points(sample_points, n_cells: int) -> tuple[Fraction, ...]:
    """The sample points as Fractions, after checking that there is one per
    cell, each strictly inside (0,1) and not dyadic, in strictly increasing
    order. Raises ValueError naming the first rule broken."""
    pts = tuple(Fraction(t) for t in sample_points)
    if len(pts) != n_cells:
        raise ValueError(f"need {n_cells} sample points, got {len(pts)}")
    for t in pts:
        if not ZERO < t < ONE:
            raise ValueError(f"sample point {t} outside (0,1)")
        if is_dyadic(t):
            raise ValueError(f"sample point on a potential boundary: {t}")
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ValueError("sample points must be strictly increasing")
    return pts


def build_embedding(model: NoiseModel, sample_points) -> Embedding:
    """Validate the sample points and pin the cells to them.

    That evaluation at the points is a homomorphism is checked by the suite
    check ``geometry.homomorphism``, not here.
    """
    return Embedding(model, check_sample_points(sample_points, model.n_cells))


def inner_approx(emb: Embedding, r: RegOpen) -> BoolElem:
    """Best approximation of r from compactly-included dyadic pieces: the
    cells whose sample point is interior to r. Works for arbitrary rational
    endpoints."""
    return BoolElem(r.interior_mask(emb.sample_points), emb.n)


def closure_cells(emb: Embedding, r: RegOpen) -> BoolElem:
    """The cells whose sample point lies in the closure of r. An atom's closed
    set sits inside cl(r) exactly when the atom is below this mask."""
    return BoolElem(r.closure_mask(emb.sample_points), emb.n)


def sample_hom(emb: Embedding, a: RegOpen) -> BoolElem:
    """h(a): the cells whose sample point lies in the interior of a.

    Defined on dyadic-endpoint elements only; there it is a Boolean
    homomorphism into the cell algebra.
    """
    if not is_dyadic_regopen(a):
        raise ValueError("evaluation map is only defined on dyadic-endpoint elements")
    return inner_approx(emb, a)


# -- the closed-set map and its dyadic approximants ---------------------------


@dataclass(frozen=True)
class SpectralMapResult:
    points: tuple[Fraction, ...]
    approx: tuple[Interval, ...]
    depth: int
    separation_depth: int | None
    hausdorff_distance: Fraction
    hausdorff_bound: Fraction


def _assemble_closed(cell_uncov: list[bool], point_uncov: list[bool], depth: int) -> tuple[Interval, ...]:
    """Closed intervals from uncovered grid units (points and open cells)."""
    q = 1 << depth
    out: list[Interval] = []
    run_start: Fraction | None = None
    for j in range(q + 1):
        if point_uncov[j] and run_start is None:
            run_start = Fraction(j, q)
        if not point_uncov[j]:
            if run_start is not None:
                out.append((run_start, Fraction(j - 1, q)))
                run_start = None
            # A cell cannot be uncovered while its endpoints are covered.
            if j < q and cell_uncov[j]:
                raise RuntimeError("uncovered cell with covered endpoints")
        elif j < q and not cell_uncov[j] and run_start is not None:
            out.append((run_start, Fraction(j, q)))
            run_start = None
    if run_start is not None:
        out.append((run_start, ONE))
    return tuple(out)


def _cover_by_minimal_units(targets: tuple[Fraction, ...], depth: int) -> tuple[Interval, ...]:
    """Complement of the union of all depth-limited dyadic interiors missing
    every target, computed through minimal covering neighborhoods."""
    q = 1 << depth
    cell_hit = [False] * q
    for t in targets:
        cell_hit[int(t * q)] = True
    # A grid point stays uncovered iff each dyadic interval around it meets a
    # target, i.e. one of its two neighbor cells is hit.
    point_uncov = [
        (j > 0 and cell_hit[j - 1]) or (j < q and cell_hit[j]) for j in range(q + 1)
    ]
    return _assemble_closed(cell_hit, point_uncov, depth)


def _cover_literal(targets: tuple[Fraction, ...], depth: int, reverse: bool = False) -> tuple[Interval, ...]:
    """Same complement, by brute union over an explicit enumeration of the
    dyadic family (any enumeration order must give the same set)."""
    q = 1 << depth
    cell_cov = [False] * q
    point_cov = [False] * (q + 1)
    family = [(j, l) for j in range(q + 1) for l in range(j + 1, q + 1)]
    if reverse:
        family.reverse()
    for j, l in family:
        lo, hi = Fraction(j, q), Fraction(l, q)
        if any(lo < t < hi for t in targets):
            continue
        for c in range(j, l):
            cell_cov[c] = True
        for p in range(j + 1, l):
            point_cov[p] = True
        if j == 0:
            point_cov[0] = True
        if l == q:
            point_cov[q] = True
    return _assemble_closed(
        [not c for c in cell_cov], [not p for p in point_cov], depth
    )


def closed_set_of_atom(emb: Embedding, s: BoolElem) -> tuple[Fraction, ...]:
    return tuple(sorted(emb.sample_points[i] for i in s.indices()))


def spectral_set_map(emb: Embedding, s: BoolElem, depth: int = 6) -> SpectralMapResult:
    """The closed set of sample points named by an atom, with its depth-D
    outer approximation (a union of closed dyadic cells around the points)."""
    if s.n != emb.n:
        raise ValueError("atom from a different algebra")
    targets = closed_set_of_atom(emb, s)
    approx = _cover_by_minimal_units(targets, depth)

    separation_depth = None
    for d in range(depth + 1):
        if len(_cover_by_minimal_units(targets, d)) == len(targets):
            separation_depth = d
            break

    hausdorff = ZERO
    for a, b in approx:
        inside = [t for t in targets if a <= t <= b]
        gaps = [inside[0] - a, b - inside[-1]]
        gaps.extend((v - u) / 2 for u, v in zip(inside, inside[1:]))
        hausdorff = max(hausdorff, max(gaps))
    return SpectralMapResult(
        points=targets,
        approx=approx,
        depth=depth,
        separation_depth=separation_depth,
        hausdorff_distance=hausdorff,
        hausdorff_bound=Fraction(2, 1 << depth),
    )


def verify_spectral_map_uniqueness(emb: Embedding, depth: int) -> bool:
    """The defining union does not depend on how the dyadic family is
    enumerated: two explicit enumeration orders and the minimal-unit shortcut
    must produce identical sets, for every atom."""
    for mask in range(1 << emb.n):
        targets = closed_set_of_atom(emb, BoolElem(mask, emb.n))
        a = _cover_by_minimal_units(targets, depth)
        b = _cover_literal(targets, depth, reverse=False)
        c = _cover_literal(targets, depth, reverse=True)
        if not (a == b == c):
            return False
    return True


def verify_spectral_set_identity(emb: Embedding, a: RegOpen) -> bool:
    """Atoms below h(a) are exactly the atoms whose closed set sits inside
    the closure of a; exact, no null sets involved. Both families are the
    down-sets of a mask, so they agree exactly when the interior mask h(a)
    equals the closure mask. That the closed-set map is well defined is
    ``verify_spectral_map_uniqueness``, run separately."""
    return sample_hom(emb, a) == closure_cells(emb, a)


# -- monotone chains ----------------------------------------------------------


def chain_sup(emb: Embedding, chain) -> BoolElem:
    out = BoolElem(0, emb.n)
    for a in chain:
        out = out | sample_hom(emb, a)
    return out


def uncovered_atoms(emb: Embedding, chain) -> list[BoolElem]:
    """Atoms whose closed set lies inside no closure from the chain."""
    closures = [closure_cells(emb, a).mask for a in chain]
    return [
        BoolElem(m, emb.n)
        for m in range(1 << emb.n)
        if not any(m & ~c == 0 for c in closures)
    ]


def monotone_limit_check(emb: Embedding, chain) -> bool:
    """Equivalence: the joined image reaches the full set iff every atom's
    closed set is eventually inside a closure from the chain. (Every atom
    carries positive mass here, so 'almost every' means 'every'; the closed
    sets are finite, hence compact.)"""
    chain = list(chain)
    if not chain:
        raise ValueError("empty chain")
    for a in chain:
        if not is_dyadic_regopen(a):
            raise ValueError("chain elements must have dyadic endpoints")
    for a, b in zip(chain, chain[1:]):
        if not a.le(b):
            raise ValueError("chain must be increasing")
    reaches_one = chain_sup(emb, chain).is_one
    all_covered = not uncovered_atoms(emb, chain)
    return reaches_one == all_covered


# -- the boundary dichotomy ---------------------------------------------------


@dataclass(frozen=True)
class BoundaryDichotomyReport:
    join: BoolElem
    holds: bool
    boundary_hits: tuple[int, ...]
    witness_atom: BoolElem | None
    complementary: bool | None


def boundary_dichotomy(emb: Embedding, r: RegOpen) -> BoundaryDichotomyReport:
    """Inner approximations of r and its complement join to the full set
    exactly when no sample point sits on the boundary of r; equivalently,
    when every atom's closed set avoids the boundary. When they do, the two
    approximations are complements of each other."""
    hr = inner_approx(emb, r)
    hrc = inner_approx(emb, r.complement())
    if not hr.disjoint(hrc):
        raise RuntimeError("inner approximations of r and its complement overlap")
    join = hr | hrc
    holds = join.is_one
    # An atom's closed set meets the boundary exactly when it names a hit,
    # so the lowest such atom is the lowest hit on its own.
    hits = (closure_cells(emb, r) & ~hr).indices()
    if holds != (not hits):
        raise RuntimeError("boundary dichotomy equivalence violated")
    complementary = None
    if holds:
        complementary = hr.complement() == hrc
    witness = BoolElem(1 << hits[0], emb.n) if hits else None
    return BoundaryDichotomyReport(
        join=join,
        holds=holds,
        boundary_hits=hits,
        witness_atom=witness,
        complementary=complementary,
    )


# -- shrink chains (inner compact exhaustion of a dyadic element) -------------


def shrink_chain(a: RegOpen, count: int) -> list[RegOpen]:
    """Increasing dyadic elements compactly included in a: each component is
    pulled back from its interior endpoints by a halving dyadic margin."""
    if a.is_empty:
        return [EMPTY] * count
    min_len = min(b - x for x, b in a.intervals)
    out = []
    for n in range(1, count + 1):
        margin = min_len / (1 << (n + 1))
        pieces = []
        for lo, hi in a.intervals:
            new_lo = lo if lo == 0 else lo + margin
            new_hi = hi if hi == 1 else hi - margin
            if new_lo < new_hi:
                pieces.append((new_lo, new_hi))
        out.append(make_regopen(pieces))
    return out


def verify_shrink_chain(emb: Embedding, a: RegOpen, max_terms: int = 12) -> bool:
    """The chain is increasing, compactly inside a, and the images of the
    complements decrease and stabilize at the complement's image."""
    if not is_dyadic_regopen(a):
        raise ValueError("shrink chains are built for dyadic-endpoint elements")
    chain = shrink_chain(a, max_terms)
    for f, g in zip(chain, chain[1:]):
        if not f.le(g):
            return False
    for an in chain:
        for p, q in an.intervals:
            inside = any(
                (u < p or (u == 0 == p)) and (q < v or (v == 1 == q))
                for u, v in a.intervals
            )
            if not inside:
                return False
    target = sample_hom(emb, ~a)
    images = [~closure_cells(emb, an) for an in chain]
    for f, g in zip(images, images[1:]):
        if not g.le(f):
            return False
    return images[-1] == target
