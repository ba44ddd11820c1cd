"""Spectral decomposition of the commuting projection family.

All the conditioning projections act diagonally on the orthogonal tensor
basis, so they are simultaneously diagonalized by grouping basis indices by
support. The distinct supports are the atoms of the spectral space; each
carries a multiplicity (its eigenspace dimension) and a canonical rational
mass (multiplicity over the space size), which happens to be a product
measure over cells and therefore witnesses every independence statement.

Sub-sigma-fields on the spectral space are finite partitions of the atom
set; joins are common refinements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .boolalg import BoolElem, Filter, subsets_of
from .model import NoiseModel, RandomVariable, support_masses, walsh_decompose


@dataclass(frozen=True)
class SpectralSpace:
    """Atoms are the supports, one per cell subset in increasing mask order,
    so atom i has mask i and per-atom tuples are indexed by mask."""

    model: NoiseModel
    atoms: tuple[BoolElem, ...]
    dims: tuple[int, ...]
    measure: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.model.n_cells

    def mass(self, masks) -> Fraction:
        return sum((self.measure[m] for m in masks), Fraction(0))


@dataclass(frozen=True)
class SpectralSet:
    members: frozenset[int]
    n: int


@dataclass(frozen=True)
class SigmaOnSpectrum:
    """A finite sub-sigma-field of the spectral space: a partition of atoms."""

    blocks: tuple[frozenset[int], ...]

    def as_set(self) -> frozenset[frozenset[int]]:
        return frozenset(self.blocks)


@dataclass(frozen=True)
class SpectralMeasure:
    """Mass per atom: squared norm of the component of a vector in each
    support eigenspace. Total mass is the squared norm."""

    masses: tuple


def build_spectral_space(model: NoiseModel) -> SpectralSpace:
    """Group basis indices by support; every subset of cells occurs (each
    cell contributes at least one zero-mean direction), with multiplicity
    the product of (k_i - 1) over the support."""
    counts: dict[int, int] = {}
    for mask in model.support_masks:
        counts[mask] = counts.get(mask, 0) + 1
    masks = sorted(counts)
    if masks != list(range(1 << model.n_cells)):
        raise RuntimeError("supports are not exactly the cell subsets")
    atoms = tuple(BoolElem(m, model.n_cells) for m in masks)
    dims = tuple(counts[m] for m in masks)
    for a, d in zip(atoms, dims):
        expected = 1
        for i in a.indices():
            expected *= model.radices[i] - 1
        if d != expected:
            raise RuntimeError("support multiplicity does not factor over cells")
    measure = tuple(Fraction(d, model.n_points) for d in dims)
    return SpectralSpace(model=model, atoms=atoms, dims=dims, measure=measure)


def spectral_set(space: SpectralSpace, x: BoolElem) -> SpectralSet:
    """Atoms on which conditioning on x acts as identity: supports inside x."""
    if x.n != space.n:
        raise ValueError("element from a different algebra")
    return SpectralSet(frozenset(m.mask for m in space.atoms if m.le(x)), space.n)


def spectral_measure(model: NoiseModel, psi: RandomVariable) -> SpectralMeasure:
    masses = support_masses(model, walsh_decompose(model, psi).coeffs)
    return SpectralMeasure(tuple(masses.values()))


@dataclass(frozen=True)
class EventSubspace:
    """Span of the basis vectors whose support lies in the given atom set."""

    model: NoiseModel
    members: frozenset[int]
    indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def basis_rvs(self) -> list[RandomVariable]:
        return [self.model.walsh_vector(i) for i in self.indices]

    def contains(self, rv: RandomVariable) -> bool:
        coeffs = walsh_decompose(self.model, rv).coeffs
        masks = self.model.support_masks
        return all(
            self.model.eq(c, 0) for idx, c in enumerate(coeffs) if masks[idx] not in self.members
        )


def subspace_of_event(space: SpectralSpace, event) -> EventSubspace:
    members = frozenset(m.mask if isinstance(m, BoolElem) else m for m in event)
    known = {a.mask for a in space.atoms}
    if not members <= known:
        raise ValueError("event contains unknown atoms")
    model = space.model
    indices = tuple(
        idx for idx, m in enumerate(model.support_masks) if m in members
    )
    return EventSubspace(model=model, members=members, indices=indices)


def sigma_x(space: SpectralSpace, x: BoolElem) -> SigmaOnSpectrum:
    """Partition of atoms by their trace on x, blocks ordered by their
    smallest atom. It equals the partition generated by the spectral sets of
    every y whose join with x is full (``sigma_x_generated``), which the
    suite check ``spectrum.sigma_lattice`` compares with it."""
    if x.n != space.n:
        raise ValueError("element from a different algebra")
    by_trace: dict[int, set[int]] = {}
    for atom in space.atoms:
        by_trace.setdefault(atom.mask & x.mask, set()).add(atom.mask)
    return SigmaOnSpectrum(tuple(sorted((frozenset(v) for v in by_trace.values()), key=min)))


def sigma_x_generated(space: SpectralSpace, x: BoolElem) -> SigmaOnSpectrum:
    """Partition of atoms generated by the spectral sets of every y whose
    join with x is full: atoms are grouped by which of them they belong to."""
    if x.n != space.n:
        raise ValueError("element from a different algebra")
    generators = []
    comp_mask = x.complement().mask
    for extra in subsets_of(x):
        y = BoolElem(comp_mask | extra.mask, space.n)
        generators.append(spectral_set(space, y).members)
    signature: dict[tuple[bool, ...], set[int]] = {}
    for atom in space.atoms:
        sig = tuple(atom.mask in g for g in generators)
        signature.setdefault(sig, set()).add(atom.mask)
    return SigmaOnSpectrum(tuple(sorted((frozenset(v) for v in signature.values()), key=min)))


def refine(p1: SigmaOnSpectrum, p2: SigmaOnSpectrum) -> SigmaOnSpectrum:
    blocks = []
    for b1 in p1.blocks:
        for b2 in p2.blocks:
            inter = b1 & b2
            if inter:
                blocks.append(inter)
    return SigmaOnSpectrum(tuple(sorted(blocks, key=min)))


def verify_sigma_join(space: SpectralSpace, x: BoolElem, y: BoolElem) -> bool:
    joined = sigma_x(space, x.join(y))
    return refine(sigma_x(space, x), sigma_x(space, y)).as_set() == joined.as_set()


def verify_independence(space: SpectralSpace, x: BoolElem, y: BoolElem) -> bool:
    """For disjoint x, y: the canonical product measure makes the two
    spectral sub-sigma-fields independent; with y the complement of x their
    join must moreover be everything."""
    if not x.disjoint(y):
        raise ValueError("independence check requires disjoint elements")
    px = sigma_x(space, x)
    py = sigma_x(space, y)
    for a in px.blocks:
        for b in py.blocks:
            if space.mass(a & b) != space.mass(a) * space.mass(b):
                return False
    if y.mask == x.complement().mask:
        discrete = frozenset(frozenset([a.mask]) for a in space.atoms)
        if refine(px, py).as_set() != discrete:
            return False
    return True


def check_atom_of_sigma_x(space: SpectralSpace, x: BoolElem) -> bool:
    """The spectral set of the complement of x is a single block of the
    sub-sigma-field attached to x."""
    target = spectral_set(space, x.complement()).members
    return target in sigma_x(space, x).as_set()


def spectral_filter(space: SpectralSpace, s: BoolElem) -> Filter:
    """The elements whose spectral set contains the atom s: the principal
    filter generated by s (improper exactly for the empty support)."""
    if s.n != space.n:
        raise ValueError("atom from a different algebra")
    return Filter(generator=s)


def mutually_absolutely_continuous(m1, m2) -> bool:
    """Same null atoms: each measure vanishes exactly where the other does."""
    if len(m1) != len(m2):
        raise ValueError("measures live on different atom sets")
    return all((a == 0) == (b == 0) for a, b in zip(m1, m2))
