"""Geometric realization: from dyadic pieces of [0,1] into the cell algebra.

The n cells of a model are pinned to sample points t_1 < ... < t_n in (0,1)
whose reduced denominators are not powers of two. Evaluation at the sample
points maps any regular open set with dyadic endpoints to the set of cells
it contains, and that map respects meet, join and complement precisely
because no sample point can sit on a dyadic boundary.

The elements evaluated at an embedding live on its grid (``scale``, which
holds every sample point), and the embedding keeps its points as ticks of
that grid, so each evaluation is one ``int`` mask over the points.

Each spectral atom M is attached to the finite closed set of sample points
it names. That closed set is recovered by removing every dyadic open
piece (up to a working depth) avoiding the atom's points. What is left is
the closure of a regular open set, the union of the grid cells that hold a
point, so the depth-D approximant is the closure of a ``RegOpen``, the
cover that ``spectral_set_map`` returns; it shrinks onto the points as the
depth grows, with a certified Hausdorff bound. The suite's oracle compares
that shortcut with the literal union over the dyadic family on the atoms
it is given. Nothing here walks all 2^n atoms: an atom's closed set lies
in cl(r) exactly when the atom is below r's closure mask, so statements
over every atom are read off one or two masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boolalg import BoolElem
from .regopen import RegOpen, _merge_hulls, grid_scale, to_ticks


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def is_dyadic_regopen(r: RegOpen) -> bool:
    """Every endpoint k/L is dyadic exactly when k is a multiple of the odd
    part of L."""
    odd = r.scale // (r.scale & -r.scale)
    for a, b in r.ticks:
        if a % odd or b % odd:
            return False
    return True


@dataclass(frozen=True)
class Embedding:
    """Cells pinned to non-dyadic sample points, one per cell, increasing."""

    sample_points: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.sample_points)

    @cached_property
    def scale(self) -> int:
        """The grid of the elements evaluated here."""
        return grid_scale(self.sample_points)

    @cached_property
    def ticks(self) -> tuple[int, ...]:
        """The sample points as ticks of the grid 1/scale."""
        return tuple(to_ticks(t.numerator, t.denominator, self.scale) for t in self.sample_points)


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
        if not 0 < t < 1:
            raise ValueError(f"sample point {t} outside (0,1)")
        if is_dyadic(t):
            raise ValueError(f"sample point on a potential boundary: {t}")
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ValueError("sample points must be strictly increasing")
    return Embedding(pts)


def inner_approx(emb: Embedding, r: RegOpen) -> BoolElem:
    """Best approximation of r from compactly-included dyadic pieces: the
    cells whose sample point is interior to r. Works for any endpoints on
    the embedding's grid."""
    if r.scale != emb.scale:
        raise ValueError(f"element on the grid 1/{r.scale}, sample points on 1/{emb.scale}")
    return BoolElem(r.interior_mask(emb.ticks), emb.n)


def closure_cells(emb: Embedding, r: RegOpen) -> BoolElem:
    """The cells whose sample point lies in the closure of r. An atom's closed
    set sits inside cl(r) exactly when the atom is below this mask."""
    if r.scale != emb.scale:
        raise ValueError(f"element on the grid 1/{r.scale}, sample points on 1/{emb.scale}")
    return BoolElem(r.closure_mask(emb.ticks), emb.n)


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
    cover: RegOpen  # its closure is the depth-D approximant
    hausdorff_distance: Fraction  # below 2^-D: each cover cell holds a non-dyadic target


def _grid_cover(targets, scale: int, depth: int) -> RegOpen:
    """The regular open set made of the depth-D grid cells that hold a
    target tick; its closure is the depth-D approximant. No target is
    dyadic, so the dyadic pieces missing every target leave a cell uncovered
    exactly when it holds a target, and a grid point exactly when a
    neighbouring cell holds one. Adjacent cells fuse as touching hulls."""
    step = to_ticks(1, 1 << depth, scale)
    cells = [(c * step, c * step + step) for c in {t // step for t in targets}]
    return RegOpen(_merge_hulls(cells), scale)


def _uncovered_probes(targets, scale: int, depth: int) -> int:
    """The literal definition, read on the probes i/2^(D+1): bit i is set
    when probe i lies in no depth-D dyadic open interval that misses every
    target tick. Probe 2j is the grid point j/2^D and probe 2j+1 the
    midpoint of cell j, and these points fix a union of closed grid cells
    exactly."""
    q = 1 << depth
    step = to_ticks(1, q, scale)
    covered = 0
    for j in range(q + 1):
        for l in range(j + 1, q + 1):
            lo, hi = j * step, l * step
            if any(lo < t < hi for t in targets):
                continue
            # The open interval holds probes 2j+1 .. 2l-1, and a space edge
            # it reaches.
            covered |= (1 << 2 * l) - (1 << 2 * j + 1)
            covered |= (j == 0) | (l == q) << 2 * q
    return ~covered & ((1 << 2 * q + 1) - 1)


def _atom_ticks(emb: Embedding, s: BoolElem) -> tuple[int, ...]:
    return tuple(emb.ticks[i] for i in s.indices())


def spectral_set_map(emb: Embedding, s: BoolElem, depth: int = 6) -> SpectralMapResult:
    """The depth-D outer approximation of the closed set of sample points
    named by an atom: the grid cover whose closure is the union of closed
    dyadic cells around the points, with its Hausdorff distance to them."""
    if s.n != emb.n:
        raise ValueError("atom from a different algebra")
    targets = _atom_ticks(emb, s)
    cover = _grid_cover(targets, emb.scale, depth)
    # Twice the distance, so that half a gap stays a whole number of ticks.
    twice = 0
    for a, b in cover.ticks:
        inside = [t for t in targets if a <= t <= b]
        gaps = [2 * (inside[0] - a), 2 * (b - inside[-1])]
        gaps.extend(v - u for u, v in zip(inside, inside[1:]))
        twice = max(twice, max(gaps))
    return SpectralMapResult(cover=cover, hausdorff_distance=Fraction(twice, 2 * emb.scale))


def verify_spectral_map_uniqueness(emb: Embedding, depth: int, atoms) -> bool:
    """The depth-D approximant is the closed set its definition names: for
    each given atom, the closure of the grid cover holds the same probes
    i/2^(D+1) as the complement of the union of every dyadic open interval
    missing the atom's points."""
    half = to_ticks(1, 2 << depth, emb.scale)
    probes = [i * half for i in range((2 << depth) + 1)]
    for atom in atoms:
        targets = _atom_ticks(emb, atom)
        cover = _grid_cover(targets, emb.scale, depth)
        if cover.closure_mask(probes) != _uncovered_probes(targets, emb.scale, depth):
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
    # Every atom is below some closure mask iff the full atom is.
    all_covered = any(closure_cells(emb, a).is_one for a in chain)
    return reaches_one == all_covered


# -- the boundary dichotomy ---------------------------------------------------


@dataclass(frozen=True)
class BoundaryDichotomyReport:
    inner: BoolElem  # h(r): the cells whose point is interior to r
    outer: BoolElem  # h(~r): the cells whose point is interior to ~r
    boundary_hits: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return (self.inner | self.outer).is_one


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
    pulled back from its interior endpoints by a halving dyadic margin.
    Raises ValueError when a margin is off the grid."""
    if a.is_empty:
        return [a] * count
    scale = a.scale
    min_len = min(b - x for x, b in a.ticks)
    out = []
    for n in range(1, count + 1):
        margin, rem = divmod(min_len, 1 << (n + 1))
        if rem:
            margin = Fraction(min_len, scale << n + 1)
            raise ValueError(f"margin {margin} is off the grid 1/{scale}")
        # Each margin is at most a quarter of the shortest piece, so the
        # pieces stay non-empty, apart and in order: the form is canonical.
        pieces = tuple(
            (lo if lo == 0 else lo + margin, hi if hi == scale else hi - margin)
            for lo, hi in a.ticks
        )
        out.append(RegOpen(pieces, scale))
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
        ends = [e for iv in an.ticks for e in iv]
        if not an.le(a) or a.interior_mask(ends) != (1 << len(ends)) - 1:
            return False
    target = sample_hom(emb, ~a)
    images = [~closure_cells(emb, an) for an in chain]
    for f, g in zip(images, images[1:]):
        if not g.le(f):
            return False
    return images[-1] == target
