import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_lab.boolalg import (
    BoolElem,
    Subalgebra,
    iter_partitions_of_unity,
    random_partition_blocks,
    subsets_of,
)


def verify_boolean_axioms(n: int, triples) -> list[str]:
    """Check lattice/Boolean axioms on the given (x, y, z) mask triples.

    Returns a list of human-readable violation witnesses (empty = all pass).
    """
    failures = []
    for xm, ym, zm in triples:
        x, y, z = BoolElem(xm, n), BoolElem(ym, n), BoolElem(zm, n)
        checks = [
            ("meet assoc", (x & y) & z == x & (y & z)),
            ("join assoc", (x | y) | z == x | (y | z)),
            ("meet comm", x & y == y & x),
            ("join comm", x | y == y | x),
            ("distrib meet", x & (y | z) == (x & y) | (x & z)),
            ("distrib join", x | (y & z) == (x | y) & (x | z)),
            ("de morgan meet", ~(x & y) == ~x | ~y),
            ("de morgan join", ~(x | y) == ~x & ~y),
            ("complement meet", (x & ~x).is_zero),
            ("complement join", (x | ~x).is_one),
            ("absorption", x & (x | y) == x and x | (x & y) == x),
        ]
        for name, ok in checks:
            if not ok:
                failures.append(f"{name} fails at x={x} y={y} z={z}")
    return failures


def stone_membership_law(n: int) -> bool:
    """The closed set of the principal filter of g (the atoms of g) lies
    inside the clopen set of x (the atoms of x) iff x is in the filter,
    g <= x; for every g and x, exhaustive."""
    for gen_mask in range(1 << n):
        g = BoolElem(gen_mask, n)
        closed = set(g.indices())
        for x_mask in range(1 << n):
            x = BoolElem(x_mask, n)
            if (closed <= set(x.indices())) != g.le(x):
                return False
    return True


def test_degenerate_algebra_zero_equals_one():
    x = BoolElem(0, 0)
    assert x.is_zero and x.is_one
    assert x.complement() == x


def test_element_ops_examples():
    x = BoolElem.from_indices([0], 2)
    y = BoolElem.from_indices([1], 2)
    meet, join, comp = x.meet(y), x.join(y), x.complement()
    assert meet.is_zero
    assert join.is_one
    assert comp == y

    meet, join = x.meet(x), x.join(x)
    assert meet == x and join == x

    x3 = BoolElem.from_indices([0, 1], 3)
    y3 = BoolElem.from_indices([1, 2], 3)
    meet, join, comp = x3.meet(y3), x3.join(y3), x3.complement()
    assert meet == BoolElem.from_indices([1], 3)
    assert join.is_one
    assert comp == BoolElem.from_indices([2], 3)


def test_mismatched_sizes_rejected():
    for op in (BoolElem.meet, BoolElem.join):
        with pytest.raises(ValueError):
            op(BoolElem(1, 2), BoolElem(1, 3))


def test_boolean_axioms_exhaustive_small():
    for n in range(5):
        triples = [
            (x, y, z)
            for x in range(1 << n)
            for y in range(1 << n)
            for z in range(1 << n)
        ]
        assert verify_boolean_axioms(n, triples) == []


@settings(max_examples=200, derandomize=True)
@given(st.integers(5, 10), st.data())
def test_boolean_axioms_random_larger(n, data):
    size = 1 << n
    triple = tuple(data.draw(st.integers(0, size - 1)) for _ in range(3))
    assert verify_boolean_axioms(n, [triple]) == []


def test_subalgebra_examples():
    sub = Subalgebra(
        4, (BoolElem.from_indices([0, 1], 4), BoolElem.from_indices([2, 3], 4))
    )
    assert [e.mask for e in sub.elements()] == [0, 0b0011, 0b1100, 0b1111]

    finest = Subalgebra(2, (BoolElem(1, 2), BoolElem(2, 2)))
    assert {e.mask for e in finest.elements()} == {0, 1, 2, 3}
    coarsest = Subalgebra(2, (BoolElem(3, 2),))
    assert {e.mask for e in coarsest.elements()} == {0, 3}


def test_subalgebra_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Subalgebra(3, (BoolElem(0b011, 3), BoolElem(0b110, 3)))  # overlap
    with pytest.raises(ValueError):
        Subalgebra(3, (BoolElem(0b001, 3),))  # gap
    with pytest.raises(ValueError):
        Subalgebra(3, (BoolElem(0, 3), BoolElem(0b111, 3)))  # empty block
    with pytest.raises(ValueError, match="different algebra"):
        Subalgebra(2, (BoolElem(0b111, 3),))


def test_subalgebra_rejects_negative_size():
    with pytest.raises(ValueError, match="-1"):
        Subalgebra(-1, ())


def test_enumerate_partition_atoms():
    blocks = [BoolElem.from_indices([0, 1], 4), BoolElem.from_indices([2, 3], 4)]
    sub = Subalgebra(4, tuple(blocks))
    atoms = list(sub.blocks)
    assert atoms == blocks
    union = 0
    for i, a in enumerate(atoms):
        assert not a.is_zero
        union |= a.mask
        for b in atoms[i + 1 :]:
            assert a.disjoint(b)
    assert union == 0b1111

    finest = Subalgebra(3, (BoolElem(1, 3), BoolElem(2, 3), BoolElem(4, 3)))
    assert [a.mask for a in finest.blocks] == [1, 2, 4]
    assert list(Subalgebra(3, (BoolElem(7, 3),)).blocks) == [BoolElem(7, 3)]


def test_partitions_of_unity_count_is_bell_number():
    sub = Subalgebra(4, tuple(BoolElem(1 << i, 4) for i in range(4)))
    partitions = list(iter_partitions_of_unity(sub))
    assert len(partitions) == 15  # Bell(4)
    for parts in partitions:
        union = 0
        for p in parts:
            assert not p.is_zero
            assert union & p.mask == 0
            union |= p.mask
        assert union == 0b1111


def test_filter_membership_and_closed_sets():
    # The principal filter of g is {x : g <= x}; its closed set in the
    # discrete Stone space is g.indices().
    g = BoolElem.from_indices([1], 2)
    assert g.indices() == (1,)
    assert g.le(BoolElem.from_indices([1], 2))
    assert g.le(BoolElem.from_indices([0, 1], 2))
    assert not g.le(BoolElem.from_indices([0], 2))

    improper = BoolElem(0, 2)
    assert improper.indices() == ()
    assert all(improper.le(BoolElem(m, 2)) for m in range(4))

    assert BoolElem(3, 2).indices() == (0, 1)


def test_stone_membership_law_exhaustive():
    for n in range(5):
        assert stone_membership_law(n)


def test_subsets_of_enumeration():
    x = BoolElem(0b1010, 4)
    subs = {s.mask for s in subsets_of(x)}
    assert subs == {0b0000, 0b0010, 0b1000, 0b1010}


def test_random_partition_blocks_partition(rng):
    for _ in range(50):
        blocks = random_partition_blocks(rng, 6)
        union = 0
        for b in blocks:
            assert union & b.mask == 0
            union |= b.mask
        assert union == (1 << 6) - 1


def test_elements_are_immutable_slotted_values():
    x = BoolElem(0b101, 3)
    for name, value in (("mask", 0), ("n", 4), ("other", 1)):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, value)
    with pytest.raises(AttributeError, match="cannot delete field 'mask'"):
        del x.mask
    assert (x.mask, x.n) == (0b101, 3)
    assert not hasattr(x, "__dict__")
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_element_equality_and_hash():
    x = BoolElem(0b101, 3)
    assert x == BoolElem(0b101, 3)
    assert x != BoolElem(0b101, 4) and x != BoolElem(0b100, 3)
    # Another type is not equal, even one with the same fields.
    assert x.__eq__((0b101, 3)) is NotImplemented and x != (0b101, 3)
    assert hash(x) == hash((0b101, 3))
    assert list({BoolElem(m, 3): None for m in (6, 1, 4)}) == [BoolElem(6, 3), BoolElem(1, 3), BoolElem(4, 3)]


def test_element_validation_messages():
    with pytest.raises(ValueError, match="^algebra size must be nonnegative$"):
        BoolElem(0, -1)
    for mask in (8, -1):
        with pytest.raises(ValueError, match=f"^mask {mask} out of range for 3 atoms$"):
            BoolElem(mask, 3)
    with pytest.raises(ValueError, match="^index 3 out of range for 3 atoms$"):
        BoolElem.from_indices([0, 3], 3)
