import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from noise_lab import linalg, spectrum
from noise_lab.boolalg import BoolElem
from noise_lab.config import load_model_config
from noise_lab.model import Cell, NoiseModel, norm_sq, project, walsh_decompose
from noise_lab.spectrum import (
    build_spectral_space,
    check_atom_of_sigma_x,
    mutually_absolutely_continuous,
    sigma_x,
    sigma_x_generated,
    spectral_measure,
    spectral_set,
    subspace_of_event,
    verify_independence,
    verify_sigma_join,
)
from noise_lab.suite import _Ctx, spectrum__sigma_lattice, spectrum__spectral_sets

from conftest import sign_rv, varied_probs

F = Fraction
TWO_COINS = Path(__file__).resolve().parent.parent / "examples" / "two-coins.json"


# -- the block-pair path, kept as the reference for the trace-keyed one -------


def reference_sigma_x(space, x):
    """Atoms grouped by their trace on x, blocks sorted by their smallest atom."""
    by_trace = {}
    for atom in space.atoms:
        by_trace.setdefault(atom.mask & x.mask, set()).add(atom.mask)
    return tuple(sorted((frozenset(v) for v in by_trace.values()), key=min))


def reference_refine(p1, p2):
    """Common refinement: every nonempty intersection of a block of each."""
    return tuple(sorted((b1 & b2 for b1 in p1 for b2 in p2 if b1 & b2), key=min))


def reference_sigma_join(space, x, y):
    refined = reference_refine(reference_sigma_x(space, x), reference_sigma_x(space, y))
    return set(refined) == set(reference_sigma_x(space, x.join(y)))


def reference_independence(space, x, y):
    """Mass of every block intersection against the product of the block
    masses; for y the complement of x the refinement must be discrete."""

    def mass(atoms):
        return sum((space.measure[m] for m in atoms), F(0))

    px, py = reference_sigma_x(space, x), reference_sigma_x(space, y)
    for a in px:
        for b in py:
            if mass(a & b) != mass(a) * mass(b):
                return False
    if y.mask == x.complement().mask:
        discrete = {frozenset([a.mask]) for a in space.atoms}
        if set(reference_refine(px, py)) != discrete:
            return False
    return True


def contains(sub, rv):
    """rv lies in the event subspace: no Walsh mass off its atoms."""
    coeffs = walsh_decompose(sub.model, rv).coeffs
    masks = sub.model.support_masks
    return all(sub.model.eq(c, 0) for c, m in zip(coeffs, masks) if m not in sub.members)


def moved_mass(space, src, dst, eps):
    """The space with eps of canonical mass moved from atom src to atom dst."""
    measure = list(space.measure)
    measure[src] -= eps
    measure[dst] += eps
    return replace(space, measure=tuple(measure))


def test_spectral_space_two_coins(two_coins):
    sp = build_spectral_space(two_coins)
    assert [a.mask for a in sp.atoms] == [0, 1, 2, 3]
    assert sp.dims == (1, 1, 1, 1)
    assert sp.measure == (F(1, 4),) * 4


def test_spectral_space_mixed(coin_and_triple):
    sp = build_spectral_space(coin_and_triple)
    by_mask = dict(zip((a.mask for a in sp.atoms), sp.dims))
    assert by_mask == {0: 1, 1: 1, 2: 2, 3: 2}
    assert sum(sp.measure, F(0)) == 1
    assert sp.measure[2] == F(2, 6)


def test_spectral_space_zero_cells():
    sp = build_spectral_space(NoiseModel([]))
    assert len(sp.atoms) == 1
    assert sp.measure == (F(1),)


def test_spectral_set_examples(two_coins):
    sp = build_spectral_space(two_coins)
    assert spectral_set(sp, BoolElem(0, 2)) == {0}
    assert spectral_set(sp, BoolElem(1, 2)) == {0, 1}
    sx = spectral_set(sp, BoolElem(1, 2))
    sy = spectral_set(sp, BoolElem(2, 2))
    sj = spectral_set(sp, BoolElem(3, 2))
    assert sx | sy == {0, 1, 2} and sj == {0, 1, 2, 3}   # strict inclusion
    for xm in range(4):
        for ym in range(4):
            x, y = BoolElem(xm, 2), BoolElem(ym, 2)
            assert spectral_set(sp, x) & spectral_set(sp, y) == spectral_set(sp, x.meet(y))


def test_spectral_measure_examples(two_coins):
    m = two_coins
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    psi = m.constant(3) + r1 + (r1 * r2).scale(2)
    sm = spectral_measure(m, psi)
    assert sm.masses == (F(9), F(1), F(0), F(4))
    assert spectral_measure(m, m.constant(1)).masses == (F(1), F(0), F(0), F(0))
    assert spectral_measure(m, r2).masses == (F(0), F(0), F(1), F(0))


def test_spectral_measure_matches_projection_norm(coin_and_triple, rng):
    m = coin_and_triple
    sp = build_spectral_space(m)
    for _ in range(20):
        psi = m.random_rv(rng)
        sm = spectral_measure(m, psi)
        for mask in range(4):
            x = BoolElem(mask, 2)
            mass = sum((sm.masses[a] for a in spectral_set(sp, x)), F(0))
            assert mass == norm_sq(m, project(m, x, psi))


def test_subspace_of_event(two_coins):
    m = two_coins
    sp = build_spectral_space(m)
    consts = subspace_of_event(sp, {0})
    assert consts.dimension == 1
    assert contains(consts, m.constant(5))
    assert not contains(consts, sign_rv(m, 0))

    # H(S_x) equals the image of the conditioning projection.
    for mask in range(4):
        x = BoolElem(mask, 2)
        hx = subspace_of_event(sp, spectral_set(sp, x))
        image = [list(project(m, x, m.walsh_vector(i)).values) for i in range(4)]
        image = [row for row in image if any(row)]
        assert linalg.span_equal(image, [list(v.values) for v in hx.basis_rvs()])

    # Disjoint events give orthogonal subspaces.
    h1 = subspace_of_event(sp, {1})
    h2 = subspace_of_event(sp, {2, 3})
    from noise_lab.model import inner_product

    for a in h1.basis_rvs():
        for b in h2.basis_rvs():
            assert inner_product(m, a, b) == 0


def test_subspace_event_unknown_atom(two_coins):
    sp = build_spectral_space(two_coins)
    with pytest.raises(ValueError):
        subspace_of_event(sp, {9})


def test_sigma_x_examples(two_coins):
    sp = build_spectral_space(two_coins)
    assert sigma_x(sp, BoolElem(3, 2)) == {frozenset([a]) for a in range(4)}
    assert sigma_x(sp, BoolElem(0, 2)) == {frozenset([0, 1, 2, 3])}
    assert sigma_x(sp, BoolElem(1, 2)) == {frozenset([0, 2]), frozenset([1, 3])}


def test_sigma_join_and_monotonicity(coin_and_triple):
    sp = build_spectral_space(coin_and_triple)
    for xm in range(4):
        for ym in range(4):
            x, y = BoolElem(xm, 2), BoolElem(ym, 2)
            assert verify_sigma_join(sp, x, y)
            if x.le(y):
                px, py = sigma_x(sp, x), sigma_x(sp, y)
                for b2 in py:
                    assert any(b2 <= b1 for b1 in px)


def test_independence_examples(two_coins, coin_and_triple):
    sp = build_spectral_space(two_coins)
    assert verify_independence(sp, BoolElem(1, 2), BoolElem(2, 2))
    assert verify_independence(sp, BoolElem(1, 2), BoolElem(0, 2))
    with pytest.raises(ValueError):
        verify_independence(sp, BoolElem(1, 2), BoolElem(1, 2))

    # Non-uniform multiplicities: weights 1/2 and 2/3 per cell.
    sp2 = build_spectral_space(coin_and_triple)
    assert verify_independence(sp2, BoolElem(1, 2), BoolElem(2, 2))
    mu = dict(zip((a.mask for a in sp2.atoms), sp2.measure))
    assert mu[1] + mu[3] == F(1, 2)      # cell 0 in the support
    assert mu[2] + mu[3] == F(2, 3)      # cell 1 in the support
    assert mu[3] == F(1, 2) * F(2, 3)    # product structure


def test_atom_of_sigma_x(two_coins):
    sp = build_spectral_space(two_coins)
    for mask in range(4):
        assert check_atom_of_sigma_x(sp, BoolElem(mask, 2))
    assert spectral_set(sp, BoolElem(2, 2)) in sigma_x(sp, BoolElem(1, 2))


def test_spectral_filters(two_coins):
    # The spectral filter {x : s in S_x} of each atom s is its principal
    # filter {x : s <= x}; the empty atom's is improper (every element).
    sp = build_spectral_space(two_coins)
    elements = [BoolElem(m, 2) for m in range(4)]
    for s in sp.atoms:
        spectral = {x.mask for x in elements if s.mask in spectral_set(sp, x)}
        assert spectral == {x.mask for x in elements if s.le(x)}
    assert {x.mask for x in elements if 0 in spectral_set(sp, x)} == {0, 1, 2, 3}
    assert {x.mask for x in elements if 2 in spectral_set(sp, x)} == {2, 3}
    assert {x.mask for x in elements if 3 in spectral_set(sp, x)} == {3}


def test_spectral_sets_check_catches_a_missing_top_atom(monkeypatch):
    real = spectrum.spectral_set

    def without_top(space, x):
        out = real(space, x)
        return out - {x.mask} if x.is_one else out

    monkeypatch.setattr(spectrum, "spectral_set", without_top)
    result = spectrum__spectral_sets(_Ctx(load_model_config(str(TWO_COINS))))
    assert result.status == "fail"
    assert "spectral filter of atom {0,1} differs from its up-set at {0,1}" in result.witnesses


def test_refinement_operation(two_coins):
    sp = build_spectral_space(two_coins)
    p1 = sigma_x(sp, BoolElem(1, 2))
    p2 = sigma_x(sp, BoolElem(2, 2))
    assert set(reference_refine(p1, p2)) == sigma_x(sp, BoolElem(3, 2))
    assert verify_sigma_join(sp, BoolElem(1, 2), BoolElem(2, 2))


def test_measure_class_uniqueness(two_coins, rng):
    m = two_coins
    sp = build_spectral_space(m)
    from noise_lab.model import WalshCoeffs, walsh_reconstruct

    generic = walsh_reconstruct(
        m, WalshCoeffs(tuple(F(rng.randint(1, 5)) for _ in range(4)))
    )
    sm = spectral_measure(m, generic)
    assert mutually_absolutely_continuous(sm.masses, sp.measure)
    concentrated = spectral_measure(m, m.constant(1))
    assert not mutually_absolutely_continuous(concentrated.masses, sp.measure)


def test_sigma_x_generated_equals_trace_partition(two_coins, four_coins, coin_and_triple):
    for model in (two_coins, four_coins, coin_and_triple):
        sp = build_spectral_space(model)
        for mask in range(1 << model.n_cells):
            x = BoolElem(mask, model.n_cells)
            assert sigma_x_generated(sp, x) == sigma_x(sp, x)


def test_sigma_checks_run_no_generated_partition(coin_and_triple, monkeypatch):
    def refuse(space, x):
        raise AssertionError("generated partition was built")

    monkeypatch.setattr(spectrum, "sigma_x_generated", refuse)
    sp = build_spectral_space(coin_and_triple)
    for xm in range(4):
        x = BoolElem(xm, 2)
        assert check_atom_of_sigma_x(sp, x)
        for ym in range(4):
            y = BoolElem(ym, 2)
            assert verify_sigma_join(sp, x, y)
            if x.disjoint(y):
                assert verify_independence(sp, x, y)


def test_sigma_lattice_reports_a_generated_partition_mismatch(monkeypatch):
    def discrete(space, x):
        return frozenset(frozenset([a.mask]) for a in space.atoms)

    monkeypatch.setattr(spectrum, "sigma_x_generated", discrete)
    result = spectrum__sigma_lattice(_Ctx(load_model_config(str(TWO_COINS))))
    assert result.status == "fail"
    # Only the full element has the discrete partition.
    assert sum("generated partition differs" in w for w in result.witnesses) == 3


def test_trace_partitions_agree_with_the_block_pair_reference():
    rng = random.Random(11)
    refused = 0
    for n in range(7):
        shape = [rng.choice((2, 3)) for _ in range(n)]
        cells = [Cell(varied_probs(k, i)) for i, k in enumerate(shape)]
        sp = build_spectral_space(NoiseModel(cells))
        elements = [BoolElem(mask, n) for mask in range(1 << n)]
        for x in elements:
            assert spectral_set(sp, x) == {a.mask for a in sp.atoms if a.le(x)}
            assert sigma_x(sp, x) == set(reference_sigma_x(sp, x))
            assert check_atom_of_sigma_x(sp, x)
            for y in elements:
                assert verify_sigma_join(sp, x, y) == reference_sigma_join(sp, x, y)
        # The canonical measure, then eps moved between two random atoms.
        n_atoms = len(sp.atoms)
        spaces = [sp] + [
            moved_mass(sp, rng.randrange(n_atoms), rng.randrange(n_atoms), F(1, 97))
            for _ in range(2)
        ]
        for space in spaces:
            for x in elements:
                for y in elements:
                    if x.disjoint(y):
                        got = verify_independence(space, x, y)
                        assert got == reference_independence(space, x, y), (shape, x, y)
                        assert got or space is not sp
                        refused += not got
    assert refused


def test_moving_mass_between_atoms_breaks_independence(two_coins):
    sp = moved_mass(build_spectral_space(two_coins), 3, 0, F(1, 100))
    assert not verify_independence(sp, BoolElem(1, 2), BoolElem(2, 2))


def test_a_miskeyed_trace_fails_the_join_check(monkeypatch):
    def miskeyed(space, x):
        return spectrum._partition(space, lambda m: m & x.mask & ~1)

    monkeypatch.setattr(spectrum, "sigma_x", miskeyed)
    sp = build_spectral_space(NoiseModel([Cell(varied_probs(2, 0)), Cell(varied_probs(3, 1))]))
    elements = [BoolElem(mask, 2) for mask in range(4)]
    assert not all(verify_sigma_join(sp, x, y) for x in elements for y in elements)
    result = spectrum__sigma_lattice(_Ctx(load_model_config(str(TWO_COINS))))
    assert result.status == "fail"
