"""Regular open subsets of X = [0,1] with exact rational endpoints on a grid.

A canonical element is a sorted tuple of disjoint, non-touching intervals
(a, b); the represented point set is open in [0,1], absorbing the space
edges: an interval starting at 0 contains 0, one ending at 1 contains 1.
Touching intervals cannot appear in canonical form: regularization (the
interior of the closure) would fuse them.

Every endpoint sits on one grid 1/L, fixed before a run makes any element:
L is ``grid_scale`` of the rational points the run evaluates elements at.
An element stores L as ``scale`` and its intervals as ``ticks``, pairs of
integers k standing for k/L. ``make_regopen`` takes rationals and refuses an
endpoint off the grid; an operation on elements of two grids raises rather
than rescale. ``intervals`` is the rational view, and reprs print reduced
fractions. ``RegOpen`` is a slotted class whose fields reject assignment.

Meet is intersection of interiors, join is the interior of the union of
closures, complement is the space minus the closure; all exact. Meet and the
order test walk both sorted tick tuples once with two pointers, join merges
the sorted hulls, and the point masks (``interior_mask``, ``closure_mask``)
place a sorted run of point ticks in one pass; every step is an ``int``
comparison. ``contains_interior`` is the per-point test, read on the
rational view; the tests keep its closure twin as the reference for
``closure_mask``. ``random_regopen`` makes the ``getrandbits`` calls of
``randrange``, so a seed gives the same elements and final rng state.

``verify_reg_laws`` checks the operations through one homomorphism. The
endpoints of the elements it touches, with 0 and 1, cut [0,1] into open
cells; a canonical element is the regularized union of the cells it holds,
so ``cell_mask`` is one-to-one. Meet, join, complement and ``le`` must be
AND, OR, NOT and subset on the masks: on the 630 pairs of single intervals
on the eighths and 1000 random pairs, each in both orders. The first two
strictness witnesses of each kind are read off the cell masks.

A brute-force twin for finite topological spaces is included:
``FiniteSpace`` has the regular-open join and complement (meet is ``&``)
and ``finite_space_regopen`` enumerates its regular opens. Its interior of
a is the points whose least open neighbourhood lies in a, every topology
on finitely many points being Alexandrov. The quotient of the interval by
a dyadic grid cross-checks the two; at depth 2 that is the whole 16-element
cell algebra (see the suite check ``regopen.finite_spaces``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm
from typing import Iterable, Sequence

Interval = tuple[Fraction, Fraction]
Ticks = tuple[int, int]

# Denominators of the random law elements.
LAW_POOL = (2, 3, 4, 5, 6, 8, 12, 16)
# Denominators of the random dyadic elements of the geometry checks.
DYADIC_POOL = (2, 4, 8, 16)

# What every grid holds: the law pool (lcm 240) and the finest dyadic a
# check makes. Shrink-chain margins halve a piece at least 1/16 long up to
# 2^13 times, down to 2^-17; the depth-6 approximant covers and the 2^-5
# probes of their depth-4 oracle are coarser.
BASE_SCALE = lcm(*LAW_POOL, 1 << 17)


def grid_scale(points: Iterable = ()) -> int:
    """The grid denominator L of a run that evaluates its elements at the
    given rational points: the lcm of BASE_SCALE and their denominators."""
    return lcm(BASE_SCALE, *(Fraction(t).denominator for t in points))


def to_ticks(num: int, den: int, scale: int) -> int:
    """The point num/den as ticks of the grid 1/scale; raises ValueError
    naming the point when it is off the grid."""
    if scale % den:
        raise ValueError(f"{Fraction(num, den)} is off the grid 1/{scale}")
    return num * (scale // den)


def _same_grid(r: "RegOpen", s: "RegOpen") -> int:
    if r.scale != s.scale:
        raise ValueError(f"elements on two grids: 1/{r.scale} and 1/{s.scale}")
    return r.scale


class RegOpen:
    """A canonical element on the grid 1/scale. Immutable: assigning to a
    field raises AttributeError."""

    __slots__ = ("ticks", "scale")
    ticks: tuple[Ticks, ...]  # the interval (a, b) is (a/scale, b/scale)
    scale: int

    def __init__(self, ticks: tuple[Ticks, ...], scale: int) -> None:
        _set_ticks(self, ticks)
        _set_scale(self, scale)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not RegOpen:
            return NotImplemented
        return self.ticks == other.ticks and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((self.ticks, self.scale))

    def __reduce__(self):
        return RegOpen, (self.ticks, self.scale)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The rational view: each interval as a pair of fractions."""
        return tuple((Fraction(a, self.scale), Fraction(b, self.scale)) for a, b in self.ticks)

    @property
    def is_empty(self) -> bool:
        return not self.ticks

    def contains_interior(self, t: Fraction) -> bool:
        """Whether the rational t lies in the open set."""
        return any(a < t < b or t == 0 == a or t == 1 == b for a, b in self.intervals)

    def interior_mask(self, points: Sequence[int]) -> int:
        """Bit i is set when the increasing tick ``points[i]`` lies in the
        open set. One pass: each interval bisects the points from where the
        previous one ended."""
        mask = i = 0
        for a, b in self.ticks:
            i = (bisect_left if a == 0 else bisect_right)(points, a, i)
            j = (bisect_right if b == self.scale else bisect_left)(points, b, i)
            mask |= (1 << j) - (1 << i)
            i = j
        return mask

    def closure_mask(self, points: Sequence[int]) -> int:
        """Bit i is set when the increasing tick ``points[i]`` lies in the
        closure, the union of the closed intervals."""
        mask = i = 0
        for a, b in self.ticks:
            i = bisect_left(points, a, i)
            j = bisect_right(points, b, i)
            mask |= (1 << j) - (1 << i)
            i = j
        return mask

    def le(self, other: "RegOpen") -> bool:
        """The order of the algebra: interior inclusion, equivalently closure
        inclusion (the closure of an element is the union of its closed
        intervals). The only interval of ``other`` that can hold (a, b) is
        the first one ending at or after b."""
        _same_grid(self, other)
        ys = other.ticks
        j, m = 0, len(ys)
        for a, b in self.ticks:
            while j < m and ys[j][1] < b:
                j += 1
            if j == m or a < ys[j][0]:
                return False
        return True

    def meet(self, other: "RegOpen") -> "RegOpen":
        scale = _same_grid(self, other)
        xs, ys = self.ticks, other.ticks
        m, n = len(xs), len(ys)
        i = j = 0
        pieces = []
        while i < m and j < n:
            a, b = xs[i]
            c, d = ys[j]
            lo = a if c < a else c
            if b < d:
                hi = b
                i += 1
            else:
                hi = d
                j += 1
            if lo < hi:
                pieces.append((lo, hi))
        return RegOpen(tuple(pieces), scale)

    def join(self, other: "RegOpen") -> "RegOpen":
        return RegOpen(_merge_hulls(self.ticks + other.ticks), _same_grid(self, other))

    def complement(self) -> "RegOpen":
        pieces = []
        prev = 0
        for a, b in self.ticks:
            if prev < a:
                pieces.append((prev, a))
            prev = b
        if prev < self.scale:
            pieces.append((prev, self.scale))
        return RegOpen(tuple(pieces), self.scale)

    __and__ = meet
    __or__ = join
    __invert__ = complement

    def __repr__(self) -> str:
        if not self.ticks:
            return "RegOpen(0)"
        return "RegOpen(" + " ".join(f"({a},{b})" for a, b in self.intervals) + ")"


_set_ticks = RegOpen.ticks.__set__
_set_scale = RegOpen.scale.__set__


def _merge_hulls(pieces: Sequence[Ticks]) -> tuple[Ticks, ...]:
    """Merge non-empty closed hulls [a,b]; touching hulls fuse
    (regularization). Equal starts merge alike in either order."""
    if len(pieces) < 2:
        return tuple(pieces)
    items = iter(sorted(pieces))
    merged = []
    lo, hi = next(items)
    for a, b in items:
        if hi < a:
            merged.append((lo, hi))
            lo, hi = a, b
        elif hi < b:
            hi = b
    merged.append((lo, hi))
    return tuple(merged)


def make_regopen(raw: Sequence[tuple], scale: int) -> RegOpen:
    """Regularize a raw list of rational intervals on the grid 1/scale: drop
    empty pieces, take the interior of the closure of the union, produce
    canonical form. Raises ValueError on an endpoint outside [0,1] or off
    the grid, and on endpoints out of order."""
    pieces = []
    for a, b in raw:
        a, b = Fraction(a), Fraction(b)
        if not (0 <= a <= 1 and 0 <= b <= 1):
            raise ValueError(f"endpoint outside [0,1]: ({a},{b})")
        if a > b:
            raise ValueError(f"interval endpoints out of order: ({a},{b})")
        a = to_ticks(a.numerator, a.denominator, scale)
        b = to_ticks(b.numerator, b.denominator, scale)
        if a < b:
            pieces.append((a, b))
    return RegOpen(_merge_hulls(pieces), scale)


# -- law verification ---------------------------------------------------------


@dataclass
class RegLawReport:
    checked: int
    failures: tuple[str, ...]
    join_strict_witnesses: tuple[str, ...]
    meet_strict_witnesses: tuple[str, ...]


def _below(bits, n: int) -> int:
    """``rng.randrange(n)``, n > 0, by its own loop on ``bits = rng.getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_regopen(rng, scale: int, denominators: Sequence[int] = LAW_POOL) -> RegOpen:
    """Up to three random pieces with endpoints over the given denominators,
    on the grid 1/scale. Draws as ``rng.randrange`` would (see ``_below``)."""
    bits = rng.getrandbits
    pieces = []
    for _ in range(_below(bits, 4)):
        q = denominators[_below(bits, len(denominators))]
        step = to_ticks(1, q, scale)
        a = _below(bits, q + 1) * step
        b = _below(bits, q + 1) * step
        if a > b:
            a, b = b, a
        if a < b:
            pieces.append((a, b))
    return RegOpen(_merge_hulls(pieces), scale)


def cell_mask(r: RegOpen, cuts: Sequence[int]) -> int | None:
    """Bit i is set when the cell (cuts[i], cuts[i+1]) of the increasing
    ticks ``cuts`` lies in r; None when r is not canonical on the cuts (an
    endpoint off them, or an empty, touching or unsorted piece). One index
    lookup per endpoint: the mask reads none of the operations it checks."""
    mask, prev = 0, -1
    for a, b in r.ticks:
        i, j = bisect_left(cuts, a), bisect_left(cuts, b)
        if not prev < a < b or j == len(cuts) or cuts[i] != a or cuts[j] != b:
            return None
        mask |= (1 << j) - (1 << i)
        prev = b
    return mask


def dyadic_grid_regopens(depth: int, scale: int) -> list[RegOpen]:
    """All single-interval elements with endpoints on the 2^-depth grid,
    made on the grid 1/scale."""
    q = 1 << depth
    step = to_ticks(1, q, scale)
    return [
        RegOpen(((j * step, l * step),), scale) for j in range(q + 1) for l in range(j + 1, q + 1)
    ]


def dyadic_cell_unions(depth: int, scale: int) -> list[RegOpen]:
    """Every union of cells of the 2^-depth grid, made on the grid 1/scale;
    the one at index ``bits`` holds cell j when bit j is set."""
    q = 1 << depth
    cells = [(Fraction(j, q), Fraction(j + 1, q)) for j in range(q)]
    unions = ([c for j, c in enumerate(cells) if bits >> j & 1] for bits in range(1 << q))
    return [make_regopen(pieces, scale) for pieces in unions]


def verify_reg_laws(rng, scale: int, iterations: int = 1000) -> RegLawReport:
    """The operations against the bit operations on cell masks (see the
    module docstring), on the grid 1/scale. ``checked`` counts the pairs: the
    630 dyadic ones, then ``iterations`` random ones, each on its own cuts."""
    failures: list[str] = []
    join_strict: list[str] = []
    meet_strict: list[str] = []
    checked = 0

    def masks(family: Sequence[RegOpen], cuts: Sequence[int]) -> Iterable[int | None]:
        """Each element's cell mask; its complement must have the others."""
        full = (1 << len(cuts) - 1) - 1
        for r in family:
            m = cell_mask(r, cuts)
            if m is None:
                failures.append(f"not canonical on its cuts: r={r}")
            elif cell_mask(~r, cuts) != full & ~m:
                failures.append(f"complement is not the cell NOT: r={r}")
            yield m

    def homomorphism(r, s, mr, ms, meet, join, cuts) -> None:
        """The ordered pair (r, s), with ``meet = r & s`` and ``join = r | s``."""
        if cell_mask(meet, cuts) != mr & ms:
            failures.append(f"meet is not the cell AND: r={r} s={s}")
        if cell_mask(join, cuts) != mr | ms:
            failures.append(f"join is not the cell OR: r={r} s={s}")
        if r.le(s) != (not mr & ~ms):
            failures.append(f"le is not cell inclusion: r={r} s={s}")

    # Bit i of a cut mask is cuts[i], between cells i - 1 and i. A cut is
    # interior to a union of cells when both neighbours are held, and in its
    # closure when either is. A space edge has one neighbour, so it is
    # interior to the join only when it is interior to r or s, and its
    # interior bit is left clear. The witness is the lowest cut in the mask.
    def interior(m: int) -> int:
        return m & m << 1

    def closure(m: int) -> int:
        return m | m << 1

    def witness(mask: int, cuts: Sequence[int]) -> Fraction:
        return Fraction(cuts[(mask & -mask).bit_length() - 1], scale)

    def run_pair(r: RegOpen, s: RegOpen, mr, ms, cuts) -> None:
        """Both orders through the homomorphism, then two witnesses of each kind."""
        nonlocal checked
        checked += 1
        if mr is None or ms is None:
            return
        homomorphism(r, s, mr, ms, r & s, r | s, cuts)
        homomorphism(s, r, ms, mr, s & r, s | r, cuts)
        if len(join_strict) < 2:
            join_only = interior(mr | ms) & ~(interior(mr) | interior(ms))
            if join_only:
                at = witness(join_only, cuts)
                join_strict.append(f"r={r} s={s}: {at} interior to the join only")
        if len(meet_strict) < 2:
            both_only = closure(mr) & closure(ms) & ~closure(mr & ms)
            if both_only:
                at = witness(both_only, cuts)
                meet_strict.append(f"r={r} s={s}: {at} in both closures, outside the meet closure")

    cuts = range(0, scale + 1, to_ticks(1, 8, scale))
    family = dyadic_grid_regopens(3, scale)
    for (r, mr), (s, ms) in combinations(zip(family, masks(family, cuts)), 2):
        run_pair(r, s, mr, ms, cuts)

    for _ in range(iterations):
        r = random_regopen(rng, scale)
        s = random_regopen(rng, scale)
        cuts = sorted({0, scale, *chain(*r.ticks, *s.ticks)})
        run_pair(r, s, *masks((r, s), cuts), cuts)

    return RegLawReport(checked, tuple(failures), tuple(join_strict), tuple(meet_strict))


# -- finite topological spaces (brute force) ----------------------------------


@dataclass(frozen=True)
class FiniteSpace:
    """A finite topology. Every operation is still computed from ``opens``
    alone: the interior of a holds each point whose least open set lies in a."""

    points: tuple
    opens: frozenset[frozenset]

    def __post_init__(self) -> None:
        pts = frozenset(self.points)
        if frozenset() not in self.opens or pts not in self.opens:
            raise ValueError("topology must contain the empty set and the space")
        for u in self.opens:
            if not u <= pts:
                raise ValueError("open set contains unknown points")
            for v in self.opens:
                if u | v not in self.opens or u & v not in self.opens:
                    raise ValueError("family not closed under union/intersection")

    @cached_property
    def _least_opens(self) -> tuple[tuple[object, frozenset], ...]:
        pts = frozenset(self.points)
        return tuple((p, pts.intersection(*(u for u in self.opens if p in u))) for p in self.points)

    def interior(self, a: frozenset) -> frozenset:
        return frozenset(p for p, u in self._least_opens if u <= a)

    def closure(self, a: frozenset) -> frozenset:
        pts = frozenset(self.points)
        return pts - self.interior(pts - a)

    # The regular-open operations; meet is intersection (``&``).
    def join(self, g1: frozenset, g2: frozenset) -> frozenset:
        return self.interior(self.closure(g1) | self.closure(g2))

    def complement(self, g: frozenset) -> frozenset:
        return frozenset(self.points) - self.closure(g)

    def verify_laws(self, elems: tuple[frozenset, ...]) -> list[str]:
        """The Boolean-algebra laws on the given regular opens."""
        failures = []
        pts = frozenset(self.points)
        for g in elems:
            if self.interior(self.closure(g)) != g:
                failures.append(f"not regular: {sorted(g)}")
            if g & self.complement(g) != frozenset():
                failures.append(f"complement meet fails: {sorted(g)}")
            if self.join(g, self.complement(g)) != pts:
                failures.append(f"complement join fails: {sorted(g)}")
            if self.complement(self.complement(g)) != g:
                failures.append(f"double complement fails: {sorted(g)}")
        for g1, g2 in product(elems, repeat=2):
            if g1 & g2 not in elems or self.join(g1, g2) not in elems:
                failures.append(f"not closed under ops: {sorted(g1)}, {sorted(g2)}")
            if self.complement(g1 & g2) != self.join(self.complement(g1), self.complement(g2)):
                failures.append(f"de morgan fails: {sorted(g1)}, {sorted(g2)}")
        for g1, g2, g3 in product(elems, repeat=3):
            if g1 & self.join(g2, g3) != self.join(g1 & g2, g1 & g3):
                failures.append("distributivity fails")
                break
        return failures


def finite_space_regopen(space: FiniteSpace) -> tuple[frozenset, ...]:
    """Enumerate the regular open sets of a finite space by brute force."""
    elems = [u for u in space.opens if space.interior(space.closure(u)) == u]
    elems.sort(key=lambda s: (len(s), sorted(map(repr, s))))
    return tuple(elems)


def dyadic_quotient_space(depth: int) -> tuple[FiniteSpace, list]:
    """Quotient of [0,1] collapsing each grid cell and each interior grid
    point of the 2^-depth grid to a point. Returns the space and, per point,
    its description: ('cell', j) for the j-th open cell, ('cut', c) for an
    interior grid point c."""
    q = 1 << depth
    cells: list = []
    for j in range(q):
        cells.append(("cell", j))
        if j < q - 1:
            cells.append(("cut", Fraction(j + 1, q)))
    n = len(cells)
    subsets = (frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n))
    # A set is open when each cut point in it has both neighbouring cells.
    valid = [u for u in subsets if all(cells[i][0] == "cell" or {i - 1, i + 1} <= u for i in u)]
    space = FiniteSpace(points=tuple(range(n)), opens=frozenset(valid))
    return space, cells


def regopen_to_quotient(r: RegOpen, depth: int, cells: list) -> frozenset:
    """Image of a dyadic-endpoint element in the quotient space."""
    q = 1 << depth
    return frozenset(
        i
        for i, (kind, c) in enumerate(cells)
        if r.contains_interior(Fraction(2 * c + 1, 2 * q) if kind == "cell" else c)
    )
