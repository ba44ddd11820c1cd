from fractions import Fraction
from pathlib import Path

import pytest

from noise_lab import linalg, spectrum
from noise_lab.boolalg import BoolElem, filter_to_closed_set
from noise_lab.config import load_model_config
from noise_lab.model import NoiseModel, fair_coin, norm_sq, project, uniform_cell
from noise_lab.spectrum import (
    SigmaOnSpectrum,
    build_spectral_space,
    check_atom_of_sigma_x,
    mutually_absolutely_continuous,
    refine,
    sigma_x,
    sigma_x_generated,
    spectral_filter,
    spectral_measure,
    spectral_set,
    subspace_of_event,
    verify_independence,
    verify_sigma_join,
)
from noise_lab.suite import _Ctx, spectrum__sigma_lattice

from conftest import sign_rv

F = Fraction
TWO_COINS = Path(__file__).resolve().parent.parent / "examples" / "two-coins.json"


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
    assert spectral_set(sp, BoolElem(0, 2)).members == {0}
    assert spectral_set(sp, BoolElem(1, 2)).members == {0, 1}
    sx = spectral_set(sp, BoolElem(1, 2)).members
    sy = spectral_set(sp, BoolElem(2, 2)).members
    sj = spectral_set(sp, BoolElem(3, 2)).members
    assert sx | sy == {0, 1, 2} and sj == {0, 1, 2, 3}   # strict inclusion
    for xm in range(4):
        for ym in range(4):
            x, y = BoolElem(xm, 2), BoolElem(ym, 2)
            assert (
                spectral_set(sp, x).members & spectral_set(sp, y).members
                == spectral_set(sp, x.meet(y)).members
            )


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
            members = spectral_set(sp, x).members
            mass = sum(
                (sm.masses[i] for i, a in enumerate(sp.atoms) if a.mask in members),
                F(0),
            )
            assert mass == norm_sq(m, project(m, x, psi))


def test_subspace_of_event(two_coins):
    m = two_coins
    sp = build_spectral_space(m)
    consts = subspace_of_event(sp, {0})
    assert consts.dimension == 1
    assert consts.contains(m.constant(5))
    assert not consts.contains(sign_rv(m, 0))

    # H(S_x) equals the image of the conditioning projection.
    for mask in range(4):
        x = BoolElem(mask, 2)
        hx = subspace_of_event(sp, spectral_set(sp, x).members)
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
    assert [sorted(b) for b in sigma_x(sp, BoolElem(3, 2)).blocks] == [[0], [1], [2], [3]]
    assert [sorted(b) for b in sigma_x(sp, BoolElem(0, 2)).blocks] == [[0, 1, 2, 3]]
    assert [sorted(b) for b in sigma_x(sp, BoolElem(1, 2)).blocks] == [[0, 2], [1, 3]]


def test_sigma_join_and_monotonicity(coin_and_triple):
    sp = build_spectral_space(coin_and_triple)
    for xm in range(4):
        for ym in range(4):
            x, y = BoolElem(xm, 2), BoolElem(ym, 2)
            assert verify_sigma_join(sp, x, y)
            if x.le(y):
                px, py = sigma_x(sp, x), sigma_x(sp, y)
                for b2 in py.blocks:
                    assert any(b2 <= b1 for b1 in px.blocks)


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
    block = {m for m in spectral_set(sp, BoolElem(2, 2)).members}
    assert frozenset(block) in sigma_x(sp, BoolElem(1, 2)).as_set()


def test_spectral_filters(two_coins):
    sp = build_spectral_space(two_coins)
    improper = spectral_filter(sp, BoolElem(0, 2))
    assert improper.is_improper
    assert filter_to_closed_set(improper) == frozenset()

    f = spectral_filter(sp, BoolElem(2, 2))
    members = {m for m in range(4) if f.member(BoolElem(m, 2))}
    assert members == {2, 3}
    assert filter_to_closed_set(f) == {1}

    top = spectral_filter(sp, BoolElem(3, 2))
    assert {m for m in range(4) if top.member(BoolElem(m, 2))} == {3}
    assert filter_to_closed_set(top) == {0, 1}

    # Filter law: membership respects meets.
    for s in sp.atoms:
        filt = spectral_filter(sp, s)
        for xm in range(4):
            for ym in range(4):
                x, y = BoolElem(xm, 2), BoolElem(ym, 2)
                assert (filt.member(x) and filt.member(y)) == filt.member(x.meet(y))


def test_refinement_operation(two_coins):
    sp = build_spectral_space(two_coins)
    p1 = sigma_x(sp, BoolElem(1, 2))
    p2 = sigma_x(sp, BoolElem(2, 2))
    assert refine(p1, p2).as_set() == sigma_x(sp, BoolElem(3, 2)).as_set()


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
        return SigmaOnSpectrum(tuple(frozenset([a.mask]) for a in space.atoms))

    monkeypatch.setattr(spectrum, "sigma_x_generated", discrete)
    result = spectrum__sigma_lattice(_Ctx(load_model_config(str(TWO_COINS))))
    assert result.status == "fail"
    # Only the full element has the discrete partition.
    assert sum("generated partition differs" in w for w in result.witnesses) == 3
