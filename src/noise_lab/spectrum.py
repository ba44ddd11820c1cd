"""Spectral decomposition of the commuting projection family.

All the conditioning projections act diagonally on the orthogonal tensor
basis, so they are simultaneously diagonalized by grouping basis indices by
support. The distinct supports are the atoms of the spectral space, one per
cell subset, and an atom is its mask; a vector's spectral measure is the
tuple of its masses, indexed by mask. Each carries a multiplicity (its
eigenspace dimension) and a canonical rational mass (multiplicity over the
space size), which happens to be a product measure over cells and therefore
witnesses every independence statement.

Events are sets of atom masks; an event's subspace is the span of the basis
vectors at the flat indices ``subspace_of_event`` returns. A sub-sigma-field
on the spectral space is a partition of the atoms, a frozenset of blocks,
and the one attached to x groups atoms by their trace m & x. The join of the
fields of x and y is the partition by the pair of traces, and independence
is read off one table of masses keyed by that pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .boolalg import BoolElem, subsets_of
from .model import NoiseModel, RandomVariable, support_masses, walsh_decompose


@dataclass(frozen=True)
class SpectralSpace:
    """Atoms are the supports, one per cell subset; an atom is its mask, and
    the per-atom tuples are indexed by mask."""

    model: NoiseModel
    dims: tuple[int, ...]
    measure: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.model.n_cells


def build_spectral_space(model: NoiseModel) -> SpectralSpace:
    """Group basis indices by support. Every subset of cells occurs (each
    cell contributes at least one zero-mean direction), with multiplicity
    the product of (k_i - 1) over the support; the suite check
    spectrum.independence compares both with the cells."""
    counts = Counter(model.support_masks)
    dims = tuple(counts[m] for m in range(1 << model.n_cells))
    measure = tuple(Fraction(d, model.n_points) for d in dims)
    return SpectralSpace(model=model, dims=dims, measure=measure)


def _require_same_algebra(space: SpectralSpace, x: BoolElem) -> None:
    if x.n != space.n:
        raise ValueError("element from a different algebra")


def spectral_set(space: SpectralSpace, x: BoolElem) -> frozenset[int]:
    """Atoms on which conditioning on x acts as identity: supports inside x."""
    _require_same_algebra(space, x)
    return frozenset(s.mask for s in subsets_of(x))


def spectral_measure(model: NoiseModel, psi: RandomVariable) -> tuple:
    """Mass per atom, indexed by atom mask: the squared norm of the component
    of psi in each support eigenspace. Total mass is the squared norm."""
    return tuple(support_masses(model, walsh_decompose(model, psi)).values())


def subspace_of_event(space: SpectralSpace, event) -> tuple[int, ...]:
    """The subspace of an event (a set of atom masks), as the flat indices
    of the basis vectors whose support is in the event; they span it."""
    members = frozenset(event)
    if not members <= frozenset(range(len(space.dims))):
        raise ValueError("event contains unknown atoms")
    return tuple(idx for idx, m in enumerate(space.model.support_masks) if m in members)


def _partition(space: SpectralSpace, key) -> frozenset[frozenset[int]]:
    """The atoms grouped into blocks by the value of key(mask)."""
    blocks: dict[object, list[int]] = {}
    for m in range(len(space.dims)):
        blocks.setdefault(key(m), []).append(m)
    return frozenset(frozenset(b) for b in blocks.values())


def sigma_x(space: SpectralSpace, x: BoolElem) -> frozenset[frozenset[int]]:
    """Partition of atoms by their trace on x. It equals the partition
    generated by the spectral sets of every y whose join with x is full
    (``sigma_x_generated``), which the suite check ``spectrum.sigma_lattice``
    compares with it."""
    _require_same_algebra(space, x)
    return _partition(space, lambda m: m & x.mask)


def sigma_x_generated(space: SpectralSpace, x: BoolElem) -> frozenset[frozenset[int]]:
    """Partition of atoms generated by the spectral sets of every y whose
    join with x is full: atoms are grouped by which of them they belong to.
    Each such y is the meet of some of the maximal ones, 1 - {i} for i in x,
    so by the meet identity S_(y & z) = S_y & S_z (checked by the suite check
    spectrum.spectral_sets) those |x| sets generate the same partition."""
    _require_same_algebra(space, x)
    generators = [spectral_set(space, ~BoolElem(1 << i, space.n)) for i in x.indices()]
    return _partition(space, lambda m: tuple(m in g for g in generators))


def verify_sigma_join(space: SpectralSpace, x: BoolElem, y: BoolElem) -> bool:
    """The field of x | y is the common refinement of the fields of x and y:
    the partition of atoms by the pair of their traces on x and on y."""
    joined = _partition(space, lambda m: (m & x.mask, m & y.mask))
    return joined == sigma_x(space, x.join(y))


def verify_independence(space: SpectralSpace, x: BoolElem, y: BoolElem) -> bool:
    """For disjoint x, y: the canonical product measure makes the two
    spectral sub-sigma-fields independent; with y the complement of x their
    join must moreover be everything."""
    _require_same_algebra(space, x)
    if not x.disjoint(y):
        raise ValueError("independence check requires disjoint elements")
    # The masses as ints over their LCD d: P(A and B) = P(A) P(B) reads
    # joint * d == pa * pb.
    d = math.lcm(*[mu.denominator for mu in space.measure])
    joint: dict[tuple[int, int], int] = {}
    on_x: dict[int, int] = {}
    on_y: dict[int, int] = {}
    for m, mu in enumerate(space.measure):
        a, b, mu = m & x.mask, m & y.mask, mu.numerator * (d // mu.denominator)
        joint[a, b] = joint.get((a, b), 0) + mu
        on_x[a] = on_x.get(a, 0) + mu
        on_y[b] = on_y.get(b, 0) + mu
    for a, pa in on_x.items():
        for b, pb in on_y.items():
            if joint.get((a, b), 0) * d != pa * pb:
                return False
    return y.mask != x.complement().mask or len(joint) == len(space.measure)


def mutually_absolutely_continuous(m1, m2) -> bool:
    """Same null atoms: each measure vanishes exactly where the other does."""
    if len(m1) != len(m2):
        raise ValueError("measures live on different atom sets")
    return all((a == 0) == (b == 0) for a, b in zip(m1, m2))
