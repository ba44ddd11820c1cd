import math
import random
from fractions import Fraction

import pytest

from noise_lab import chaos, linalg, model
from noise_lab.boolalg import (
    BoolElem,
    Subalgebra,
    iter_partitions_of_unity,
    random_partition_blocks,
)
from noise_lab.chaos import (
    Classification,
    DefectCertificate,
    NotAdditiveError,
    additive_vector,
    atomless_defect,
    classify,
    defect_bound_check,
    first_chaos_basis,
    product_test,
    satisfies_additivity,
    sigma_field_generated,
    split_check,
    split_solution_space,
    _additivity_rows,
    _averaging_rows,
    _split_span_rows,
)
from noise_lab.model import (
    NoiseModel,
    expectation,
    norm_sq,
    project,
    sigma_field_of,
    walsh_decompose,
)

from conftest import (
    block_subalgebra, fair_coin, full_subalgebra, model_family, point_index, sign_rv, uniform_cell,
)

F = Fraction


def test_first_chaos_two_coins(two_coins):
    fc = first_chaos_basis(two_coins)
    assert len(fc) == 2
    r1 = sign_rv(two_coins, 0)
    r2 = sign_rv(two_coins, 1)
    assert linalg.span_equal(
        [list(v.values) for v in fc], [list(r1.values), list(r2.values)]
    )


def test_first_chaos_three_valued():
    m = NoiseModel([uniform_cell(3)])
    assert len(first_chaos_basis(m)) == 2


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_first_chaos_basis_is_the_single_cell_walsh_vectors(backend):
    # Radices (2, 3): flat indices 1 and 2 are digits (0, 1) and (0, 2), and
    # 3 is (1, 0); every larger index has both digits nonzero.
    m = NoiseModel([fair_coin(), uniform_cell(3)], backend=backend)
    assert first_chaos_basis(m) == tuple(m.walsh_vector(i) for i in (1, 2, 3))


def test_first_chaos_zero_cells():
    m = NoiseModel([])
    assert first_chaos_basis(m) == ()


def test_satisfies_additivity_examples(four_coins):
    m = four_coins
    r = [sign_rv(m, i) for i in range(4)]
    psi = r[0] * r[1] + r[2] * r[3]
    blocks = block_subalgebra(m, [[0, 1], [2, 3]])
    full = full_subalgebra(m)
    assert satisfies_additivity(m, r[0], full)
    assert satisfies_additivity(m, r[0], blocks)
    assert satisfies_additivity(m, psi, blocks)
    assert not satisfies_additivity(m, psi, full)
    # Nonzero mean fails outright.
    assert not satisfies_additivity(m, m.constant(1), full)


def test_atomless_defect_examples(four_coins, two_coins):
    m2 = two_coins
    psi2 = sign_rv(m2, 0) + sign_rv(m2, 1)
    cert = atomless_defect(m2, psi2, full_subalgebra(m2))
    assert cert.delta_sq == 1
    assert cert.delta == 1.0

    zero = m2.constant(0)
    assert atomless_defect(m2, zero, full_subalgebra(m2)).delta_sq == 0

    m4 = four_coins
    r = [sign_rv(m4, i) for i in range(4)]
    psi = r[0] * r[1] + r[2] * r[3]
    blocks = block_subalgebra(m4, [[0, 1], [2, 3]])
    cert4 = atomless_defect(m4, psi, blocks)
    assert cert4.delta_sq == 1


def test_atomless_defect_requires_additivity(four_coins):
    m = four_coins
    psi = sign_rv(m, 0) * sign_rv(m, 1) + sign_rv(m, 2) * sign_rv(m, 3)
    with pytest.raises(ValueError, match="additivity on b fails"):
        atomless_defect(m, psi, full_subalgebra(m))


def test_atomless_defect_reads_additivity_off_the_coefficients(four_coins, monkeypatch):
    def refuse(self):
        raise AssertionError("the elements of the subalgebra were enumerated")

    m = four_coins
    r = [sign_rv(m, i) for i in range(4)]
    full = full_subalgebra(m)
    monkeypatch.setattr(Subalgebra, "elements", refuse)
    with pytest.raises(NotAdditiveError):
        atomless_defect(m, r[0] * r[1] + r[2] * r[3], full)
    cert = atomless_defect(m, r[0] + r[1].scale(F(2)) + r[3], full)
    assert cert.delta_sq == 4


def test_atomless_defect_refuses_a_nonzero_mean(four_coins):
    # Every coefficient but the mean lies inside one block.
    m = four_coins
    r = [sign_rv(m, i) for i in range(4)]
    blocks = block_subalgebra(m, [[0, 1], [2, 3]])
    cases = ((r[0] + m.constant(1), full_subalgebra(m)), (r[0] * r[1] + m.constant(-2), blocks))
    for psi, b in cases:
        with pytest.raises(NotAdditiveError):
            atomless_defect(m, psi, b)
        assert not satisfies_additivity(m, psi, b)


def test_defect_bound_tight_case(four_coins):
    m = four_coins
    r = [sign_rv(m, i) for i in range(4)]
    psi = r[0] * r[1] + r[2] * r[3]
    blocks = block_subalgebra(m, [[0, 1], [2, 3]])
    x = BoolElem.from_indices([0, 2], 4)
    (rep,) = defect_bound_check(m, atomless_defect(m, psi, blocks), [x])
    assert rep.passed
    # Attained with equality: the mixed moment against r_0, r_1 is exactly 1.
    assert abs(rep.sigma_max - 1.0) < 1e-9
    from noise_lab.model import expectation

    assert expectation(m, psi * r[0] * r[1]) == 1


def test_defect_bound_first_chaos_vector_trivial(four_coins):
    m = four_coins
    cert = atomless_defect(m, sign_rv(m, 0), full_subalgebra(m))
    (rep,) = defect_bound_check(m, cert, [BoolElem.from_indices([0, 1], 4)])
    assert rep.passed
    assert rep.sigma_max == 0.0


def test_defect_bound_trivial_subalgebra_cauchy_schwarz(four_coins, rng):
    m = four_coins
    trivial = block_subalgebra(m, [[0, 1, 2, 3]])
    psi = m.random_rv(rng, zero_mean=True)
    cert = atomless_defect(m, psi, trivial)
    assert cert.delta_sq == norm_sq(m, psi)
    reports = defect_bound_check(m, cert, [BoolElem(mask, 4) for mask in (0b0001, 0b0011, 0b0101)])
    assert [rep.passed for rep in reports] == [True] * 3


def test_defect_bound_check_reports_each_cell_set_as_alone(rng):
    m = NoiseModel([uniform_cell(2), uniform_cell(3), fair_coin(), uniform_cell(2)])
    for blocks in ([[0, 1], [2, 3]], [[0], [1, 2, 3]], [[0, 1, 2, 3]]):
        sub = block_subalgebra(m, blocks)
        cert = atomless_defect(m, additive_vector(m, sub, m.random_rv(rng)), sub)
        xs = [BoolElem(mask, 4) for mask in range(16)]
        batch = defect_bound_check(m, cert, xs)
        assert batch == [defect_bound_check(m, cert, [x])[0] for x in xs]
        assert all(rep.passed for rep in batch)
    assert defect_bound_check(m, cert, []) == []


def test_defect_bound_check_gives_a_cell_set_and_its_complement_one_verdict(rng):
    # The mixed matrix of ~x is that of x transposed, so `noise-lab chaos`
    # bounds only the cell sets without the top cell. A delta below the true
    # defect makes some cell sets fail, so both verdicts are compared.
    verdicts = set()
    for m in model_family(4, max_points=36):
        psi = m.random_rv(rng, zero_mean=True)
        delta_sq = norm_sq(m, psi) * F(rng.randint(1, 6), 12)
        coeffs = tuple(walsh_decompose(m, psi))
        cert = DefectCertificate(delta_sq=delta_sq, delta=math.sqrt(delta_sq), coeffs=coeffs)
        xs = [BoolElem(mask, m.n_cells) for mask in range(1 << m.n_cells)]
        reports = defect_bound_check(m, cert, xs + [x.complement() for x in xs])
        for rep, co in zip(reports, reports[len(xs):]):
            assert rep.passed == co.passed
            assert math.isclose(rep.sigma_max, co.sigma_max, rel_tol=1e-12)
            verdicts.add(rep.passed)
    assert verdicts == {True, False}


def test_split_check_examples(two_coins):
    m = two_coins
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    x = BoolElem(1, 2)
    assert split_check(m, walsh_decompose(m, r1), x)
    assert not split_check(m, walsh_decompose(m, r1 * r2), x)
    assert not split_check(m, walsh_decompose(m, m.constant(2)), x)  # constants double-count


def test_split_solution_space_matches_walsh_span(coin_and_triple):
    m = coin_and_triple
    for mask in range(4):
        x = BoolElem(mask, 2)
        space = split_solution_space(m, x)
        assert linalg.span_equal(
            [list(v.values) for v in space], _split_span_rows(m, x)
        )


def _dense_conditioning_matrix(m, x):
    """Conditioning on x as a dense N x N matrix of block averages: the
    reference definition of the constraint rows."""
    n = m.n_points
    mat = [[F(0)] * n for _ in range(n)]
    for block in sigma_field_of(m, x):
        wtot = sum(m.point_weights[w] for w in block)
        row = [m.point_weights[w] / wtot for w in block]
        for w in block:
            for w2, v in zip(block, row):
                mat[w][w2] = v
    return mat


def test_split_constraint_rows_match_dense_definition():
    for m in model_family(3, (2, 3)):
        n = m.n_cells
        for mask in range(1 << n):
            x = BoolElem(mask, n)
            kx = _dense_conditioning_matrix(m, x)
            kxc = _dense_conditioning_matrix(m, x.complement())
            expected = [
                [int(w == w2) - a - b for w2, (a, b) in enumerate(zip(kx[w], kxc[w]))]
                for w in range(m.n_points)
            ]
            assert _averaging_rows(m, (x, x.complement())) == expected


def test_product_test_examples(two_coins):
    m = two_coins
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    x = BoolElem(1, 2)
    assert product_test(m, [r1, r1 * r2, m.constant(1)], [x])[0] == [True, False, False]


def test_product_test_builds_no_factors_when_one_side_is_empty(coin_and_triple, monkeypatch):
    m = coin_and_triple
    family = [m.walsh_vector(i) for i in range(m.n_points)] + [m.constant(2)]
    built = []
    walsh_vector = NoiseModel.walsh_vector

    def count_and_build(model, idx):
        built.append(idx)
        return walsh_vector(model, idx)

    monkeypatch.setattr(NoiseModel, "walsh_vector", count_and_build)
    # x = 0 or 1 leaves only the mean test: e_0 and the constant fail it.
    expected = [False] + [True] * (m.n_points - 1) + [False]
    assert product_test(m, family, [BoolElem(0, 2), BoolElem(0b11, 2)]) == [expected] * 2
    assert built == []
    product_test(m, family, [BoolElem(0b01, 2)])
    assert len(built) == sum(k - 1 for k in m.radices)  # 1 + 2 factor vectors


def test_product_test_builds_each_factor_once_per_call(monkeypatch):
    m = NoiseModel([uniform_cell(2), uniform_cell(3), uniform_cell(3)])
    family = [m.walsh_vector(i) for i in range(m.n_points)]
    built = []
    walsh_vector = NoiseModel.walsh_vector

    def count_and_build(model, idx):
        built.append(idx)
        return walsh_vector(model, idx)

    monkeypatch.setattr(NoiseModel, "walsh_vector", count_and_build)
    xs = [BoolElem(mask, 3) for mask in range(8)] * 3
    verdicts = product_test(m, family, xs)
    assert len(verdicts) == len(xs)
    assert len(built) == len(set(built)) <= m.n_points - 1
    # Against one call per element, which builds each element's factors.
    for x, row in zip(xs, verdicts):
        assert product_test(m, family, [x]) == [row]


def test_product_test_reads_no_walsh_coefficients(coin_and_triple, monkeypatch):
    m = coin_and_triple
    family = [m.walsh_vector(i) for i in range(m.n_points)] + [m.constant(2)]
    # A single coefficient on a support that straddles x = {cell 0}.
    straddling = next(i for i, s in enumerate(m.support_masks) if s == 0b11)
    psi = m.walsh_vector(straddling).scale(F(3, 7))
    x = BoolElem(0b01, 2)
    expected = [split_check(m, walsh_decompose(m, v), x) for v in family]
    assert not split_check(m, walsh_decompose(m, psi), x)

    def refuse(*args):
        raise AssertionError("product_test read Walsh coefficients")

    for module in (model, chaos):
        monkeypatch.setattr(module, "walsh_decompose", refuse)
    monkeypatch.setattr(model, "_transform", refuse)
    assert product_test(m, family, [x]) == [expected]
    assert product_test(m, [psi], [x]) == [[False]]
    with pytest.raises(AssertionError):
        chaos.walsh_decompose(m, psi)


def test_split_check_reads_the_mean_and_the_straddling_coefficients(coin_and_triple):
    m = coin_and_triple
    for mask in range(4):
        x = BoolElem(mask, 2)
        for idx, s in enumerate(m.support_masks):
            coeffs = [F(0)] * m.n_points
            coeffs[idx] = F(1, 3)
            straddles = s & x.mask and s & ~x.mask
            assert split_check(m, coeffs, x) == (s != 0 and not straddles)


def test_split_iff_product_exhaustive(coin_and_triple):
    m = coin_and_triple
    family = [m.walsh_vector(i) for i in range(m.n_points)]
    combo = family[1] + family[3].scale(F(2)) - family[4]
    family.append(combo)
    coeffs = [walsh_decompose(m, psi) for psi in family]
    xs = [BoolElem(mask, 2) for mask in range(4)]
    for x, products in zip(xs, product_test(m, family, xs)):
        assert [split_check(m, c, x) for c in coeffs] == products


def test_classify_examples(two_coins):
    assert classify(two_coins, first_chaos_basis(two_coins)) is Classification.CLASSICAL
    m0 = NoiseModel([])
    assert classify(m0, first_chaos_basis(m0)) is Classification.BLACK


def test_classify_random_models_classical(rng):
    from noise_lab.model import Cell

    for _ in range(6):
        cells = []
        for _ in range(rng.randint(1, 3)):
            k = rng.choice((2, 3))
            if k == 2:
                p = F(rng.randint(1, 5), 6)
                cells.append(Cell((p, 1 - p)))
            else:
                cells.append(Cell((F(1, 6), F(1, 3), F(1, 2))))
        m = NoiseModel(cells)
        assert classify(m, first_chaos_basis(m)) is Classification.CLASSICAL


def test_sigma_field_generated(two_coins):
    m = two_coins
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    assert len(sigma_field_generated(m, [r1])) == 2
    assert len(sigma_field_generated(m, [])) == 1
    assert len(sigma_field_generated(m, [r1, r2])) == 4


def test_defect_zero_forces_zero_vector(four_coins, rng):
    m = four_coins
    for _ in range(20):
        blocks = random_partition_blocks(rng, 4)
        sub = Subalgebra(4, tuple(blocks))
        psi = additive_vector(m, sub, m.random_rv(rng))
        cert = atomless_defect(m, psi, sub)
        if cert.delta_sq == 0:
            assert psi.is_zero()
        # and the zero vector always yields zero defect
    zero_cert = atomless_defect(m, m.constant(0), full_subalgebra(m))
    assert zero_cert.delta_sq == 0


def test_norm_additivity_on_first_chaos(coin_and_triple):
    m = coin_and_triple
    fc = first_chaos_basis(m)
    psi = fc[0] + fc[-1].scale(F(3))
    for xm in range(4):
        for ym in range(4):
            if xm & ym == 0:
                x, y = BoolElem(xm, 2), BoolElem(ym, 2)
                assert norm_sq(m, project(m, x.join(y), psi)) == norm_sq(
                    m, project(m, x, psi)
                ) + norm_sq(m, project(m, y, psi))


def test_exact_backend_required_for_elimination():
    m = NoiseModel([fair_coin()], backend="float")
    with pytest.raises(ValueError, match="exact backend"):
        _additivity_rows(m)


def test_first_chaos_is_intersection_of_split_spaces(coin_and_triple):
    # The vectors splitting across every complement pair are exactly the
    # first chaos: intersect all per-element solution spaces by stacking
    # their orthogonal-complement constraints.
    m = coin_and_triple
    fc = linalg.nullspace(_additivity_rows(m), m.n_points)
    # A vector lies in all split spaces iff every basis vector of the
    # orthogonal story agrees; test membership directly instead: collect
    # all vectors of a spanning family that split for every x.
    family = [m.walsh_vector(i) for i in range(m.n_points)]
    surviving = [
        v
        for v in family
        if all(split_check(m, walsh_decompose(m, v), BoolElem(mask, 2)) for mask in range(4))
    ]
    assert linalg.span_equal([list(v.values) for v in surviving], fc)
    # And a genuinely mixed vector fails some split.
    mixed = m.walsh_vector(point_index(m, (1, 1)))
    mixed_coeffs = walsh_decompose(m, mixed)
    assert not all(split_check(m, mixed_coeffs, BoolElem(mask, 2)) for mask in range(4))


def _additive_by_projection(m, psi, b):
    """Additivity on b from its definition: zero mean, and conditioning on a
    disjoint join splits into the two conditionals."""
    if expectation(m, psi) != 0:
        return False
    elems = list(b.elements())
    return all(
        project(m, x | y, psi) == project(m, x, psi) + project(m, y, psi)
        for x in elems
        for y in elems
        if x.disjoint(y)
    )


def _additive_by_rearrangement(m, psi, b):
    """Additivity on b in its join+meet shape: zero mean, and
    Q_(x|y) + Q_(x&y) = Q_x + Q_y for every pair of elements."""
    if expectation(m, psi) != 0:
        return False
    elems = list(b.elements())
    return all(
        project(m, x | y, psi) + project(m, x & y, psi) == project(m, x, psi) + project(m, y, psi)
        for x in elems
        for y in elems
    )


def _defect_accepts(m, psi, b):
    try:
        atomless_defect(m, psi, b)
    except NotAdditiveError:
        return False
    return True


def test_coefficient_space_matches_point_space_oracle():
    rng = random.Random(7)
    for m in model_family(3, (2, 3)):
        n = m.n_cells
        for _ in range(3):
            sub = Subalgebra(n, tuple(random_partition_blocks(rng, n)))
            seedling = m.random_rv(rng)
            mean = project(m, BoolElem(0, n), seedling)
            expected = m.constant(0)
            for block in sub.blocks:
                expected = expected + (project(m, block, seedling) - mean)
            psi = additive_vector(m, sub, seedling)
            assert psi == expected

            for v in (psi, seedling, m.random_rv(rng, zero_mean=True)):
                additive = _additive_by_projection(m, v, sub)
                assert satisfies_additivity(m, v, sub) == additive
                assert _additive_by_rearrangement(m, v, sub) == additive
                # The block criterion, read off the coefficients.
                assert _defect_accepts(m, v, sub) == additive

            cert = atomless_defect(m, psi, sub)
            norms = [norm_sq(m, project(m, block, psi)) for block in sub.blocks]
            assert cert.delta_sq == max(norms, default=0)
            # Reference: the least, over all partitions of unity in b, of the
            # largest part-mass.
            assert cert.delta_sq == min(
                max((norm_sq(m, project(m, part, psi)) for part in partition), default=0)
                for partition in iter_partitions_of_unity(sub)
            )
            assert cert.delta == math.sqrt(float(max(norms, default=0)))

            for mask in range(1 << n):
                x = BoolElem(mask, n)
                for v in (psi, seedling):
                    split = project(m, x, v) + project(m, x.complement(), v)
                    assert split_check(m, walsh_decompose(m, v), x) == (v == split)


def test_split_check_runs_no_elimination(coin_and_triple, monkeypatch):
    def refuse(rows):
        raise AssertionError("split_check ran an elimination")

    monkeypatch.setattr(linalg, "rref", refuse)
    m = coin_and_triple
    family = [m.walsh_vector(idx) for idx in range(m.n_points)]
    coeffs = [walsh_decompose(m, psi) for psi in family]
    xs = [BoolElem(mask, 2) for mask in range(4)]
    for x, products in zip(xs, product_test(m, family, xs)):
        assert [split_check(m, c, x) for c in coeffs] == products
