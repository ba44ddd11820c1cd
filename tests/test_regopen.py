import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_lab.regopen import (
    DYADIC_POOL,
    LAW_POOL,
    FiniteSpace,
    RegOpen,
    cell_mask,
    dyadic_quotient_space,
    finite_space_regopen,
    grid_scale,
    make_regopen,
    random_regopen,
    regopen_to_quotient,
    verify_reg_laws,
)

from conftest import contains_closure, is_full

F = Fraction
# The grid of the elements made here; it holds every drawn endpoint and the
# midpoints between them.
L = grid_scale()
EMPTY = make_regopen((), L)
FULL = make_regopen([(0, 1)], L)


def on_grid(points):
    """The rational points as ticks of the grid 1/L."""
    ticks = [t * L for t in points]
    assert all(x.denominator == 1 for x in ticks)
    return [int(x) for x in ticks]


def test_make_regopen_fills_punctures():
    r = make_regopen([(0, F(1, 2)), (F(1, 2), 1)], L)
    assert is_full(r)


def test_make_regopen_empty_interval():
    assert make_regopen([(F(1, 4), F(1, 4))], L).is_empty


def test_make_regopen_edge_absorption():
    r = make_regopen([(0, F(1, 2))], L)
    assert r.intervals == ((F(0), F(1, 2)),)
    assert r.contains_interior(F(0))       # [0, 1/2) contains the space edge
    assert not r.contains_interior(F(1, 2))


def test_make_regopen_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        make_regopen([(F(-1, 4), F(1, 2))], L)
    with pytest.raises(ValueError):
        make_regopen([(F(1, 2), F(5, 4))], L)
    with pytest.raises(ValueError):
        make_regopen([(F(3, 4), F(1, 4))], L)


def test_make_regopen_refuses_an_endpoint_off_the_grid():
    with pytest.raises(ValueError, match="3/7 is off the grid"):
        make_regopen([(F(3, 7), F(1, 2))], L)
    with pytest.raises(ValueError, match="1/7 is off the grid"):
        make_regopen([(F(1, 7), F(1, 7))], L)
    r = make_regopen([(F(1, 7), F(1, 2))], grid_scale([F(1, 7)]))
    assert r.intervals == ((F(1, 7), F(1, 2)),)
    assert repr(r) == "RegOpen((1/7,1/2))"


def test_operations_on_two_grids_raise():
    r = make_regopen([(0, F(1, 2))], L)
    s = make_regopen([(0, F(1, 2))], grid_scale([F(1, 7)]))
    assert r != s
    for op in (RegOpen.meet, RegOpen.join, RegOpen.le):
        with pytest.raises(ValueError, match="two grids"):
            op(r, s)
        with pytest.raises(ValueError, match="two grids"):
            op(s, r)


def test_sweeps_use_no_fraction(monkeypatch):
    from noise_lab import regopen

    rng = random.Random(5)
    elems = [random_regopen(rng, L) for _ in range(60)] + [EMPTY, FULL]
    # Every endpoint the pool can draw, and every midpoint between two.
    points = list(range(0, L + 1, L // 480))

    def answers():
        out = []
        for r in elems:
            out += [~r, r.interior_mask(points), r.closure_mask(points)]
            for s in elems[:20]:
                out += [r & s, r | s, r.le(s)]
        return out

    expected = answers()

    def refuse(*args):
        raise AssertionError("a sweep made a Fraction")

    monkeypatch.setattr(regopen, "Fraction", refuse)
    assert answers() == expected


def test_reg_ops_examples():
    r = make_regopen([(0, F(1, 2))], L)
    s = ~r
    meet, join, comp = r.meet(s), r.join(s), r.complement()
    assert comp.intervals == ((F(1, 2), F(1)),)
    assert is_full(join)          # the point 1/2 is absorbed
    assert meet.is_empty

    s = make_regopen([(F(1, 4), 1)], L)
    meet, join = r.meet(s), r.join(s)
    assert meet.intervals == ((F(1, 4), F(1, 2)),)
    assert is_full(join)


def boundary_points(r):
    """The boundary of r in [0,1]: every endpoint except the space edges 0
    and 1, which have no exterior side."""
    return tuple(e for iv in r.intervals for e in iv if 0 < e < 1)


def test_interior_closure_boundary_examples():
    r = make_regopen([(0, F(1, 2))], L)
    # The closure of an element is the union of its intervals, closed.
    assert r.intervals == ((F(0), F(1, 2)),)
    assert contains_closure(r, F(1, 2)) and not r.contains_interior(F(1, 2))
    assert boundary_points(r) == (F(1, 2),)

    assert (EMPTY.intervals, boundary_points(EMPTY)) == ((), ())

    mid = make_regopen([(F(1, 4), F(3, 4))], L)
    assert boundary_points(mid) == (F(1, 4), F(3, 4))

    assert boundary_points(FULL) == ()


def test_verify_reg_laws(rng):
    rep = verify_reg_laws(rng, L, iterations=400)
    assert not rep.failures
    assert rep.join_strict_witnesses
    assert rep.meet_strict_witnesses


def test_strictness_witness_at_half():
    r = make_regopen([(0, F(1, 2))], L)
    s = make_regopen([(F(1, 2), 1)], L)
    join = r | s
    assert is_full(join)
    assert not r.contains_interior(F(1, 2)) and not s.contains_interior(F(1, 2))
    assert join.contains_interior(F(1, 2))


def test_equal_elements_give_equalities():
    r = make_regopen([(F(1, 8), F(3, 8)), (F(1, 2), F(3, 4))], L)
    assert (r & r) == r
    assert (r | r) == r
    assert (r & r).le(r) and r.le(r & r)


@st.composite
def raw_intervals(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from([2, 3, 4, 5, 8, 16]))
        a = draw(st.integers(0, q))
        b = draw(st.integers(0, q))
        if a > b:
            a, b = b, a
        pieces.append((F(a, q), F(b, q)))
    return pieces


@settings(max_examples=300, derandomize=True)
@given(raw_intervals())
def test_canonical_form_properties(pieces):
    r = make_regopen(pieces, L)
    # canonical: ordered, strict gaps between closures
    for (a, b), (c, d) in zip(r.intervals, r.intervals[1:]):
        assert b < c
    for a, b in r.intervals:
        assert 0 <= a < b <= 1
    # idempotent, hence regular: the interior of the closure is r
    assert make_regopen(r.intervals, L) == r
    # double complement
    assert ~~r == r


@settings(max_examples=200, derandomize=True)
@given(raw_intervals(), raw_intervals())
def test_order_equivalence(p1, p2):
    r, s = make_regopen(p1, L), make_regopen(p2, L)
    assert r.le(s) == ((r & s) == r) == ((r | s) == s)


def reference_meet(r, s):
    """Meet by intersecting every pair of intervals, then sorting."""
    pieces = []
    for a, b in r.ticks:
        for c, d in s.ticks:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                pieces.append((lo, hi))
    return RegOpen(tuple(sorted(pieces)), r.scale)


def reference_le(r, s):
    """Order by asking, for each interval of r, whether any interval of s
    holds it."""
    return all(any(c <= a and b <= d for c, d in s.intervals) for a, b in r.intervals)


def point_mask(points, member):
    return sum(1 << i for i, t in enumerate(points) if member(t))


@settings(max_examples=300, derandomize=True)
@given(raw_intervals(), raw_intervals(), st.data())
def test_sweeps_match_references(p1, p2, data):
    r, s = make_regopen(p1, L), make_regopen(p2, L)
    meet, join = r & s, r | s
    assert meet == reference_meet(r, s)
    assert join == ~reference_meet(~r, ~s)
    assert r.le(s) == reference_le(r, s)
    assert s.le(r) == reference_le(s, r)

    # Both elements' endpoints, the space edges and the midpoints between
    # them: every cell of the common grid is probed, and every boundary.
    grid = sorted({F(0), F(1)} | {t for a, b in r.intervals + s.intervals for t in (a, b)})
    mids = [(u + v) / 2 for u, v in zip(grid, grid[1:])]
    pool = sorted(grid + mids)
    some = sorted(data.draw(st.sets(st.sampled_from(pool))))
    for points in (pool, some):
        ticks = on_grid(points)
        for e in (r, s, meet, join):
            assert e.interior_mask(ticks) == point_mask(points, e.contains_interior)
            assert e.closure_mask(ticks) == point_mask(points, lambda t: contains_closure(e, t))
    # On the midpoints, interior inclusion is the order.
    at_mids = on_grid(mids)
    assert r.le(s) == (r.interior_mask(at_mids) & ~s.interior_mask(at_mids) == 0)


def test_reg_laws_operation_counts(monkeypatch):
    counts = {}

    def counted(name, fn):
        def op(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return op

    aliases = {"meet": "__and__", "join": "__or__", "complement": "__invert__", "le": "le"}
    for name, alias in aliases.items():
        op = counted(name, getattr(RegOpen, name))
        monkeypatch.setattr(RegOpen, name, op)
        monkeypatch.setattr(RegOpen, alias, op)

    # iterations=0: 36 complements and, per each of the 630 dyadic pairs, the
    # meet, join and le in both orders (the strictness witnesses read the cell
    # masks alone).
    assert not verify_reg_laws(random.Random(0), L, iterations=0).failures
    assert counts == {"complement": 36, "meet": 1260, "join": 1260, "le": 1260}
    # Each random pair adds two of each of complement, meet, join and le.
    counts.clear()
    assert not verify_reg_laws(random.Random(0), L, iterations=1).failures
    assert counts == {"complement": 38, "meet": 1262, "join": 1262, "le": 1262}


def test_cell_mask_refuses_what_is_not_canonical_on_the_cuts():
    cuts = on_grid([F(0), F(1, 4), F(1, 2), F(1)])
    q, h = cuts[1], cuts[2]
    assert cell_mask(make_regopen([(F(1, 4), F(1, 2))], L), cuts) == 0b010
    assert cell_mask(FULL, cuts) == 0b111 and cell_mask(EMPTY, cuts) == 0
    assert cell_mask(make_regopen([(0, F(1, 3))], L), cuts) is None  # endpoint off the cuts
    assert cell_mask(RegOpen(((0, q), (q, h)), L), cuts) is None  # touching pieces
    assert cell_mask(RegOpen(((q, h), (0, 1)), L), cuts) is None  # unsorted pieces
    assert cell_mask(RegOpen(((q, q),), L), cuts) is None  # empty piece


@settings(max_examples=300, derandomize=True)
@given(raw_intervals(), raw_intervals())
def test_cell_mask_is_the_interior_at_the_cell_midpoints(p1, p2):
    # The cuts are r's endpoints and another element's, so some cells of r
    # are unions of several cuts.
    r, other = make_regopen(p1, L), make_regopen(p2, L)
    cuts = sorted({0, L} | {t for piece in r.ticks + other.ticks for t in piece})
    # The midpoint of (a/L, b/L) is (a + b) ticks on the doubled grid.
    doubled = make_regopen(r.intervals, 2 * L)
    mids = [a + b for a, b in zip(cuts, cuts[1:])]
    assert cell_mask(r, cuts) == doubled.interior_mask(mids)


def test_sierpinski_space():
    space = FiniteSpace(
        points=("a", "b"),
        opens=frozenset({frozenset(), frozenset({"a"}), frozenset({"a", "b"})}),
    )
    elems = finite_space_regopen(space)
    assert [sorted(e) for e in elems] == [[], ["a", "b"]]
    assert space.verify_laws(elems) == []


def test_discrete_and_indiscrete_spaces():
    disc = FiniteSpace(
        points=(0, 1, 2),
        opens=frozenset(
            frozenset(s)
            for s in [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]
        ),
    )
    assert len(finite_space_regopen(disc)) == 8

    indis = FiniteSpace(points=(0, 1), opens=frozenset({frozenset(), frozenset({0, 1})}))
    assert len(finite_space_regopen(indis)) == 2


def test_bad_topology_rejected():
    with pytest.raises(ValueError):
        FiniteSpace(points=(0, 1), opens=frozenset({frozenset({0})}))
    with pytest.raises(ValueError):
        # Not closed under union.
        FiniteSpace(
            points=(0, 1, 2),
            opens=frozenset(
                frozenset(s) for s in [set(), {0}, {1}, {0, 1, 2}]
            ),
        )


def test_dyadic_quotient_agreement():
    for depth in (1, 2):
        space, cells = dyadic_quotient_space(depth)
        q = 1 << depth
        elems = []
        for bits in range(1 << q):
            pieces = [(F(j, q), F(j + 1, q)) for j in range(q) if bits >> j & 1]
            elems.append(make_regopen(pieces, L))
        images = {r: regopen_to_quotient(r, depth, cells) for r in elems}
        assert set(images.values()) == set(finite_space_regopen(space))
        for r in elems:
            assert images[~r] == space.complement(images[r])
            for s in elems:
                assert images[r & s] == images[r] & images[s]
                assert images[r | s] == space.join(images[r], images[s])


def test_random_regopen_is_canonical(rng):
    for _ in range(200):
        r = random_regopen(rng, L)
        assert make_regopen(r.intervals, L) == r


@pytest.mark.parametrize("pool", [LAW_POOL, DYADIC_POOL])
def test_random_regopen_draws_the_randint_and_choice_stream(pool):
    def reference(rng):
        raw = []
        for _ in range(rng.randint(0, 3)):
            q = rng.choice(pool)
            raw.append(sorted((F(rng.randint(0, q), q), F(rng.randint(0, q), q))))
        return make_regopen(raw, L)

    ours, theirs = random.Random(5), random.Random(5)
    for _ in range(2000):
        assert random_regopen(ours, L, pool) == reference(theirs)
    assert ours.random() == theirs.random()


def test_elements_are_immutable_slotted_values():
    r = make_regopen([(0, F(1, 2))], L)
    for name, value in (("ticks", ()), ("scale", 2), ("other", 1)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, value)
    with pytest.raises(AttributeError, match="cannot delete field 'ticks'"):
        del r.ticks
    assert r.ticks == ((0, L // 2),) and r.scale == L
    assert not hasattr(r, "__dict__")
    assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r


def test_element_equality_and_hash():
    r = make_regopen([(0, F(1, 2))], L)
    assert r == RegOpen(((0, L // 2),), L)
    assert r != RegOpen(((0, L // 2),), 2 * L) and r != FULL
    # Another type is not equal, even one with the same fields.
    assert r.__eq__((r.ticks, L)) is NotImplemented and r != (r.ticks, L)
    assert hash(r) == hash((r.ticks, L))


@settings(max_examples=200, derandomize=True)
@given(raw_intervals(), raw_intervals())
def test_operation_results_equal_their_validated_twins(p1, p2):
    r, s = make_regopen(p1, L), make_regopen(p2, L)
    for got in (r & s, r | s, ~r):
        twin = make_regopen(got.intervals, L)
        assert type(got) is RegOpen
        assert got == twin and hash(got) == hash(twin)
