"""Geometric realization: from dyadic pieces of [0,1] into the cell algebra.

The n cells of a model are pinned to sample points t_1 < ... < t_n in (0,1)
whose reduced denominators are not powers of two. Evaluation at the sample
points maps any regular open set with dyadic endpoints to the set of cells
it contains, and that map respects meet, join and complement precisely
because no sample point can sit on a dyadic boundary.

Each spectral atom M is attached to the finite closed set of sample points
it names. That closed set is recovered by removing every dyadic open
piece (up to a working depth) avoiding the atom's points. What is left is
the closure of a regular open set, the union of the grid cells that hold a
point, so the depth-D approximant is a ``RegOpen`` and its closure; it
shrinks onto the points as the depth grows, with a certified Hausdorff
bound. The suite's oracle compares that shortcut with the literal union
over the dyadic family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boolalg import BoolElem
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
    """Cells pinned to non-dyadic sample points, one per cell, increasing."""

    sample_points: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.sample_points)


def build_embedding(sample_points, n_cells: int) -> Embedding:
    """Pin n_cells cells to the sample points, after checking that there is
    one per cell, each strictly inside (0,1) and not dyadic, in strictly
    increasing order. Raises ValueError naming the first rule broken.

    That evaluation at the points is a homomorphism is checked by the suite
    check ``geometry.homomorphism``, not here.
    """
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
    return Embedding(pts)


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


def _grid_cover(targets, depth: int) -> RegOpen:
    """The regular open set made of the depth-D grid cells that hold a
    target; its closure is the depth-D approximant. No target is dyadic, so
    the dyadic pieces missing every target leave a cell uncovered exactly
    when it holds a target, and a grid point exactly when a neighbouring
    cell holds one. Runs of adjacent cells fuse over ``int`` before any
    endpoint becomes a ``Fraction``."""
    q = 1 << depth
    runs: list[list[int]] = []
    for c in sorted({int(t * q) for t in targets}):
        if runs and runs[-1][1] == c:
            runs[-1][1] = c + 1
        else:
            runs.append([c, c + 1])
    return RegOpen(tuple((Fraction(a, q), Fraction(b, q)) for a, b in runs))


def _uncovered_probes(targets, depth: int) -> int:
    """The literal definition, read on the probes i/2^(D+1): bit i is set
    when probe i lies in no depth-D dyadic open interval that misses every
    target. Probe 2j is the grid point j/2^D and probe 2j+1 the midpoint of
    cell j, and these points fix a union of closed grid cells exactly."""
    q = 1 << depth
    covered = 0
    for j in range(q + 1):
        for l in range(j + 1, q + 1):
            lo, hi = Fraction(j, q), Fraction(l, q)
            if any(lo < t < hi for t in targets):
                continue
            # The open interval holds probes 2j+1 .. 2l-1, and a space edge
            # it reaches.
            covered |= (1 << 2 * l) - (1 << 2 * j + 1)
            covered |= (j == 0) | (l == q) << 2 * q
    return ~covered & ((1 << 2 * q + 1) - 1)


def closed_set_of_atom(emb: Embedding, s: BoolElem) -> tuple[Fraction, ...]:
    return tuple(sorted(emb.sample_points[i] for i in s.indices()))


def spectral_set_map(emb: Embedding, s: BoolElem, depth: int = 6) -> SpectralMapResult:
    """The closed set of sample points named by an atom, with its depth-D
    outer approximation (a union of closed dyadic cells around the points)."""
    if s.n != emb.n:
        raise ValueError("atom from a different algebra")
    targets = closed_set_of_atom(emb, s)
    approx = _grid_cover(targets, depth).intervals

    separation_depth = None
    for d in range(depth + 1):
        if len(_grid_cover(targets, d).intervals) == len(targets):
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
    """The depth-D approximant is the closed set its definition names: for
    every atom, the closure of the grid cover holds the same probes
    i/2^(D+1) as the complement of the union of every dyadic open interval
    missing the atom's points."""
    q = 1 << depth
    probes = [Fraction(i, 2 * q) for i in range(2 * q + 1)]
    for mask in range(1 << emb.n):
        targets = closed_set_of_atom(emb, BoolElem(mask, emb.n))
        if _grid_cover(targets, depth).closure_mask(probes) != _uncovered_probes(targets, depth):
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
    inner: BoolElem  # h(r): the cells whose point is interior to r
    outer: BoolElem  # h(~r): the cells whose point is interior to ~r
    boundary_hits: tuple[int, ...]

    @property
    def join(self) -> BoolElem:
        return self.inner | self.outer

    @property
    def holds(self) -> bool:
        return self.join.is_one

    @property
    def witness_atom(self) -> BoolElem | None:
        # An atom's closed set meets the boundary exactly when it names a
        # hit, so the lowest such atom is the lowest hit on its own.
        hits = self.boundary_hits
        return BoolElem(1 << hits[0], self.inner.n) if hits else None


def boundary_dichotomy(emb: Embedding, r: RegOpen) -> BoundaryDichotomyReport:
    """The inner approximations of r and of its complement, and the cells
    whose sample point is on the boundary of r. By the dichotomy the two are
    disjoint, and join to the full set (then as complements) exactly when no
    point is on the boundary; the suite check compares that."""
    hr = inner_approx(emb, r)
    return BoundaryDichotomyReport(
        inner=hr,
        outer=inner_approx(emb, r.complement()),
        boundary_hits=(closure_cells(emb, r) & ~hr).indices(),
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


def verify_shrink_chain(emb: Embedding, a: RegOpen) -> bool:
    """The first 12 terms of the chain are increasing and compactly inside
    a, and the images of the complements decrease and stabilize at the
    complement's image."""
    if not is_dyadic_regopen(a):
        raise ValueError("shrink chains are built for dyadic-endpoint elements")
    chain = shrink_chain(a, 12)
    for f, g in zip(chain, chain[1:]):
        if not f.le(g):
            return False
    for an in chain:
        # Given an <= a, cl(an) lies inside a (space edges absorbed) exactly
        # when every endpoint of an is interior to a.
        ends = [e for iv in an.intervals for e in iv]
        if not an.le(a) or a.interior_mask(ends) != (1 << len(ends)) - 1:
            return False
    target = sample_hom(emb, ~a)
    images = [~closure_cells(emb, an) for an in chain]
    for f, g in zip(images, images[1:]):
        if not g.le(f):
            return False
    return images[-1] == target
