"""Finite Boolean algebras as power sets of cell indices.

The power set of {0..n-1} has no object of its own: an element is a
``BoolElem(mask, n)``, and a subalgebra is ``Subalgebra(n, blocks)``, a
block partition of the n atoms. Every filter is principal (complete in the
finite case): the up-set of its generator g, so x is a member exactly when
``g.le(x)``. The Stone space of such an algebra is the discrete space of its
n atoms, so the closed set of that filter is the index set ``g.indices()``.

``BoolElem`` is a slotted class whose fields reject assignment; its
constructor validates the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class BoolElem:
    """A subset of {0..n-1}, stored as a bitmask. Immutable: assigning to a
    field raises AttributeError."""

    __slots__ = ("mask", "n")
    mask: int
    n: int

    def __init__(self, mask: int, n: int) -> None:
        if n < 0:
            raise ValueError("algebra size must be nonnegative")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for {n} atoms")
        _set_mask(self, mask)
        _set_n(self, n)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not BoolElem:
            return NotImplemented
        return self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __reduce__(self):
        return BoolElem, (self.mask, self.n)

    def _check(self, other: "BoolElem") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched algebra sizes: {self.n} != {other.n}")

    def meet(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return BoolElem(self.mask & other.mask, self.n)

    def join(self, other: "BoolElem") -> "BoolElem":
        self._check(other)
        return BoolElem(self.mask | other.mask, self.n)

    def complement(self) -> "BoolElem":
        return BoolElem(self.mask ^ ((1 << self.n) - 1), self.n)

    def le(self, other: "BoolElem") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def disjoint(self, other: "BoolElem") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    __and__ = meet
    __or__ = join
    __invert__ = complement

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @classmethod
    def from_indices(cls, indices, n: int) -> "BoolElem":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for {n} atoms")
            mask |= 1 << i
        return cls(mask, n)

    def __repr__(self) -> str:
        if self.mask == 0:
            return "{}"
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


_set_mask = BoolElem.mask.__set__
_set_n = BoolElem.n.__set__


@dataclass(frozen=True)
class Subalgebra:
    """Boolean subalgebra given by its atoms: a block partition of the full set.

    Elements of the subalgebra are exactly the unions of blocks, and the
    blocks are its finest partition of unity.
    """

    n: int
    blocks: tuple[BoolElem, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"algebra size must be nonnegative, got {self.n}")
        union = 0
        for b in self.blocks:
            if b.n != self.n:
                raise ValueError("block from a different algebra")
            if b.is_zero:
                raise ValueError("empty block in subalgebra")
            if union & b.mask:
                raise ValueError("overlapping blocks in subalgebra")
            union |= b.mask
        if union != (1 << self.n) - 1:
            raise ValueError("blocks do not cover the full set")

    def elements(self) -> Iterator[BoolElem]:
        for subset in range(1 << len(self.blocks)):
            mask = 0
            for i, b in enumerate(self.blocks):
                if subset >> i & 1:
                    mask |= b.mask
            yield BoolElem(mask, self.n)

    def from_block_indices(self, indices) -> BoolElem:
        mask = 0
        for i in indices:
            mask |= self.blocks[i].mask
        return BoolElem(mask, self.n)


def iter_partitions_of_unity(b: Subalgebra) -> Iterator[tuple[BoolElem, ...]]:
    """All partitions of unity in b: one per set partition of its blocks."""
    k = len(b.blocks)

    def rec(i: int, groups: list[list[int]]) -> Iterator[list[list[int]]]:
        if i == k:
            yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(i)
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    for grouping in rec(0, []):
        yield tuple(b.from_block_indices(g) for g in grouping)


def subsets_of(x: BoolElem) -> Iterator[BoolElem]:
    """All elements below x, ascending by mask."""
    sub = 0
    while True:
        yield BoolElem(sub, x.n)
        if sub == x.mask:
            return
        sub = (sub - x.mask) & x.mask


def random_partition_blocks(rng, n: int) -> list[BoolElem]:
    """A random block partition of {0..n-1}, for randomized sweeps."""
    if n == 0:
        return []
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(assignment):
        groups.setdefault(g, []).append(i)
    return [BoolElem.from_indices(g, n) for g in sorted(groups.values())]
