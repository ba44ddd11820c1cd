import functools
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_lab import model as model_mod
from noise_lab.boolalg import BoolElem
from noise_lab.model import (
    Cell,
    NoiseModel,
    RandomVariable,
    expectation,
    inner_product,
    masked_coeffs,
    mass_inside,
    norm_sq,
    project,
    project_oracle,
    projections,
    sigma_field_of,
    verify_projection_laws,
    walsh_decompose,
    walsh_reconstruct,
)

from conftest import fair_coin, point_index, sign_rv, uniform_cell

F = Fraction


def test_two_fair_coins_walsh_structure(two_coins):
    m = two_coins
    assert m.n_points == 4
    assert all(w == F(1, 4) for w in m.point_weights)
    # Supports: every subset of the two cells, each one-dimensional.
    assert sorted(m.support_masks) == [0, 1, 2, 3]


def test_three_valued_cell_dimensions():
    m = NoiseModel([uniform_cell(3)])
    assert m.n_points == 3
    supports = m.support_masks
    assert supports.count(0) == 1
    assert supports.count(1) == 2  # k-1 zero-mean directions


def test_cell_validation_errors():
    with pytest.raises(ValueError):
        Cell((F(1),))  # k < 2
    with pytest.raises(ValueError):
        Cell((F(1, 2), F(1, 2), F(0)))  # zero-mass outcome
    with pytest.raises(ValueError, match="sum to 5/6"):
        Cell((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        NoiseModel([Cell((F(1, 2), F(1, 2), F(0)))])


def test_inner_product_examples(two_coins):
    m = two_coins
    one = m.constant(1)
    assert inner_product(m, one, one) == 1
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    assert inner_product(m, r1, r1) == 1
    assert inner_product(m, r1, r2) == 0
    with pytest.raises(ValueError):
        inner_product(m, one, NoiseModel([fair_coin()]).constant(1))


def test_sigma_field_partitions(two_coins):
    m = two_coins
    assert sigma_field_of(m, BoolElem(0, 2)) == (tuple(range(4)),)
    assert sigma_field_of(m, BoolElem(3, 2)) == ((0,), (1,), (2,), (3,))
    by_first = sigma_field_of(m, BoolElem(1, 2))
    assert by_first == ((0, 1), (2, 3))


def test_projection_examples(two_coins):
    m = two_coins
    r1, r2 = sign_rv(m, 0), sign_rv(m, 1)
    psi = m.from_values([F(1), F(2), F(3), F(5)])
    q0 = project(m, BoolElem(0, 2), psi)
    assert all(v == expectation(m, psi) for v in q0.values)
    # A cross term dies under a one-cell conditioning.
    assert project(m, BoolElem(1, 2), r1 * r2).is_zero()
    assert project(m, BoolElem(3, 2), psi) == psi


def test_oracle_equivalence_exhaustive_small():
    for cells in ([fair_coin(), fair_coin()], [fair_coin(), uniform_cell(3)]):
        m = NoiseModel(cells)
        basis = [
            m.from_values([1 if w == j else 0 for w in range(m.n_points)])
            for j in range(m.n_points)
        ]
        for mask in range(1 << m.n_cells):
            x = BoolElem(mask, m.n_cells)
            assert [project(m, x, v) for v in basis] == project_oracle(m, x, basis)


def test_projection_idempotent_selfadjoint(coin_and_triple, rng):
    m = coin_and_triple
    f = m.random_rv(rng)
    g = m.random_rv(rng)
    for mask in range(4):
        x = BoolElem(mask, 2)
        qf = project(m, x, f)
        assert project(m, x, qf) == qf
        assert inner_product(m, qf, g) == inner_product(m, f, project(m, x, g))


def test_walsh_roundtrip_and_reconstruction(coin_and_triple, rng):
    m = coin_and_triple
    for _ in range(5):
        v = m.random_rv(rng)
        wc = walsh_decompose(m, v)
        assert walsh_reconstruct(m, wc) == v


def _reference_apply_per_cell(model, values, matrices):
    """Index-loop form of the per-cell transform: every output entry is
    computed in place at its mixed-radix position, cell 0 first."""
    vals = list(values)
    for i in range(model.n_cells):
        k = model.radices[i]
        stride = model.strides[i]
        mat = matrices[i]
        block = k * stride
        for base in range(0, model.n_points, block):
            for off in range(base, base + stride):
                cur = [vals[off + o * stride] for o in range(k)]
                for j in range(k):
                    row = mat[j]
                    acc = row[0] * cur[0]
                    for o in range(1, k):
                        acc += row[o] * cur[o]
                    vals[off + j * stride] = acc
    return vals


def reference_transform(model, values, synthesis=False):
    """The per-cell transform with k x k matrices of the backend's own numbers
    (Fraction or float), applied by the index loop: the independent reference
    that walsh_decompose / walsh_reconstruct are checked against."""
    matrices = []
    for cell, vecs, norms in zip(model.cells, model.cell_vectors, model.cell_norms_sq):
        probs = [model._num(p) for p in cell.probs]
        k = cell.k
        if synthesis:
            matrices.append([[vecs[j][o] for j in range(k)] for o in range(k)])
        else:
            matrices.append(
                [[vecs[j][o] * probs[o] / norms[j] for o in range(k)] for j in range(k)]
            )
    return _reference_apply_per_cell(model, values, matrices)


def _random_cells(rng, n_cells, k_max=5):
    """Cells with k in 2..k_max and probabilities over one denominator up to 10^6."""
    cells = []
    for _ in range(n_cells):
        k = rng.randint(2, k_max)
        q = rng.randint(k, 10**6)
        cuts = sorted(rng.sample(range(1, q), k - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
        cells.append(Cell(tuple(F(a, q) for a in parts)))
    return cells


def _gram_schmidt(probs, num):
    """The written-out reference for model._cell_basis: each indicator 1_j,
    in outcome order, minus its components along the constant and the
    earlier vectors, without normalization, in the numbers num makes
    (Fraction or float), sums added left to right."""
    probs = [num(p) for p in probs]
    k = len(probs)
    one = num(F(1))
    vectors, norms = [[one] * k], [one]
    for j in range(1, k):
        vec = [num(F(0))] * k
        vec[j] = one
        for prev, norm in zip(vectors, norms):
            coef = functools.reduce(operator.add, [v * e * p for v, e, p in zip(vec, prev, probs)]) / norm
            vec = [v - coef * e for v, e in zip(vec, prev)]
        vectors.append(vec)
        norms.append(functools.reduce(operator.add, [v * v * p for v, p in zip(vec, probs)]))
    return vectors, norms


def _gram_schmidt_tables(cell, num):
    """(vectors, norms, analysis, synthesis) of one cell from _gram_schmidt,
    the k x k matrices built from those numbers as NoiseModel builds them."""
    vecs, norms = _gram_schmidt(cell.probs, num)
    probs = [num(p) for p in cell.probs]
    analysis = [[v * p / n for v, p in zip(vec, probs)] for vec, n in zip(vecs, norms)]
    return vecs, norms, analysis, [list(col) for col in zip(*vecs)]


def _flat(rows):
    return [v for row in rows for v in row]


def _hexes(rows):
    return [float(v).hex() for v in _flat(rows)]


def test_cell_basis_equals_the_gram_schmidt_reference():
    rng = random.Random(32)
    for trial in range(60):
        cells = _random_cells(rng, 1 + trial % 3, k_max=9)
        exact, rounded = NoiseModel(cells), NoiseModel(cells, backend="float")
        ref = [_gram_schmidt_tables(cell, lambda v: v) for cell in cells]
        assert exact.cell_vectors == tuple(tuple(map(tuple, vecs)) for vecs, _, _, _ in ref)
        assert exact.cell_norms_sq == tuple(tuple(norms) for _, norms, _, _ in ref)
        assert (exact._analysis, exact._analysis_scale) == model_mod._integer_matrices([t[2] for t in ref])
        assert (exact._synthesis, exact._synthesis_scale) == model_mod._integer_matrices([t[3] for t in ref])
        # The float vectors and norms are the exact ones rounded once, and the
        # float matrices are built from those rounded numbers.
        float_tables = zip(rounded.cell_vectors, rounded.cell_norms_sq, rounded._analysis, rounded._synthesis)
        for (vecs, norms, analysis, synthesis), (exact_vecs, exact_norms, _, exact_synthesis), cell in zip(
            float_tables, ref, cells
        ):
            assert _hexes(vecs) == _hexes(exact_vecs)
            assert _hexes([norms]) == _hexes([exact_norms])
            assert _hexes(synthesis) == _hexes(exact_synthesis)
            # A float Gram-Schmidt agrees to 1e-12 relative. Where the exact
            # entry is 0 it leaves a rounding residue, and every entry but
            # the norms lies in [-1, 1], so the residue is held to 1e-12.
            gs_vecs, gs_norms, gs_analysis, gs_synthesis = _gram_schmidt_tables(cell, float)
            for got, expected in zip(
                (vecs, [norms], analysis, synthesis), (gs_vecs, [gs_norms], gs_analysis, gs_synthesis)
            ):
                for a, b in zip(_flat(got), _flat(expected)):
                    assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0 if a else 1e-12)


def test_one_cell_of_256_outcomes_builds_in_under_5_s_cpu():
    t0 = time.process_time()
    NoiseModel([uniform_cell(256)])
    elapsed = time.process_time() - t0
    print(f"NoiseModel([uniform_cell(256)]): {elapsed:.2f} s CPU {'<' if elapsed < 5 else '>='} 5 s")
    assert elapsed < 5.0


def _transform_inputs(rng, n):
    ints = [rng.randint(-50, 50) for _ in range(n)]
    mixed = [
        rng.randint(-9, 9)
        if rng.random() < 0.5
        else F(rng.randint(-(10**4), 10**4), rng.randint(1, 10**6))
        for _ in range(n)
    ]
    return ints, mixed, [0] * n


def test_integer_walsh_kernel_matches_fraction_reference():
    rng = random.Random(8)
    for trial in range(36):
        m = NoiseModel(_random_cells(rng, trial % 6))
        for values in _transform_inputs(rng, m.n_points):
            coeffs = walsh_decompose(m, RandomVariable(tuple(values)))
            points = walsh_reconstruct(m, values).values
            for got, expected in (
                (coeffs, reference_transform(m, values)),
                (points, reference_transform(m, values, synthesis=True)),
            ):
                assert all(type(v) is Fraction for v in got)
                assert list(got) == expected
            assert walsh_reconstruct(m, coeffs).values == tuple(values)


def test_float_walsh_transforms_match_the_float_matrix_path():
    rng = random.Random(9)
    for trial in range(24):
        m = NoiseModel(_random_cells(rng, trial % 6), backend="float")
        values = tuple(rng.uniform(-1.0, 1.0) for _ in range(m.n_points))
        coeffs = walsh_decompose(m, RandomVariable(values))
        assert all(type(v) is float for v in coeffs)
        points = walsh_reconstruct(m, values).values
        for got, expected in (
            (coeffs, reference_transform(m, values)),
            (points, reference_transform(m, values, synthesis=True)),
        ):
            assert [v.hex() for v in got] == [v.hex() for v in expected]


def _interleaving_kernel(values, radices, matrices):
    """The per-cell kernel before slice assignment and zero skipping: every
    term of every k x k row over the k slices, the k results interleaved."""
    vals = list(values)
    for k, mat in zip(radices, matrices):
        s = len(vals) // k
        slices = [vals[o * s : (o + 1) * s] for o in range(k)]
        outs = []
        for row in mat:
            acc = [row[0] * c for c in slices[0]]
            for r, sl in zip(row[1:], slices[1:]):
                acc = [a + r * c for a, c in zip(acc, sl)]
            outs.append(acc)
        vals = [x for t in zip(*outs) for x in t]
    return vals


def _signless_bits(values):
    """Float bit patterns with -0.0 read as +0.0 (v + 0.0 is v otherwise)."""
    return [(v + 0.0).hex() for v in values]


def test_walsh_kernel_matches_the_interleaving_kernel():
    rng = random.Random(37)
    for trial in range(40):
        cells = _random_cells(rng, 1 + trial % 4, k_max=4)
        exact, rounded = NoiseModel(cells), NoiseModel(cells, backend="float")
        n, radices = exact.n_cells, exact.radices
        ints = [rng.choice([0, rng.randint(-50, 50)]) for _ in range(exact.n_points)]
        floats = [rng.choice([0.0, -0.0, float(rng.randint(-3, 3)), rng.uniform(-1, 1)]) for _ in ints]
        for m, values, bits in ((exact, ints, list), (rounded, floats, _signless_bits)):
            for matrices in (m._analysis, m._synthesis):
                got = model_mod._apply_per_cell(values, radices, matrices)
                assert bits(got) == bits(_interleaving_kernel(values, radices, matrices))
            # Row 0 alone along the cells outside x: the full analysis's
            # coefficients supported inside x, bit for bit, and 0 elsewhere.
            f = RandomVariable(tuple(values))
            full = walsh_decompose(m, f)
            for x in (BoolElem(mask, n) for mask in range(1 << n)):
                assert _bits(m, walsh_decompose(m, f, x)) == _bits(m, masked_coeffs(m, full, x))
            assert m.eq(walsh_decompose(m, f, BoolElem(0, n))[0], expectation(m, f))


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_float_random_rv_makes_the_draws_of_uniform(seed):
    m = NoiseModel(_random_cells(random.Random(seed), 3, k_max=4), backend="float")
    rng, ref = random.Random(seed), random.Random(seed)
    got = m.random_rv(rng).values
    expected = [ref.uniform(-1.0, 1.0) for _ in range(m.n_points)]
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_sparse_synthesis_matches_the_index_loop_reference(backend, monkeypatch):
    # Synthesis runs on the sub-grid of the cells that some nonzero
    # coefficient depends on; the reference runs every axis over all N points.
    rng = random.Random(28)
    for trial in range(18):
        m = NoiseModel(_random_cells(rng, trial % 6, k_max=3), backend=backend)
        n = m.n_cells
        f = m.random_rv(rng)
        coeffs = walsh_decompose(m, f)
        xs = [BoolElem(mask, n) for mask in range(1 << n)]
        for x, q in zip(xs, projections(m, f, xs)):
            expected = reference_transform(m, masked_coeffs(m, coeffs, x), synthesis=True)
            assert _bits(m, q.values) == _bits(m, expected)
        # Zero patterns that come from no x: each coefficient kept at random.
        zero = m._num(0)
        for keep in (0.0, 0.2, 0.5):
            values = [c if rng.random() < keep else zero for c in coeffs]
            expected = reference_transform(m, values, synthesis=True)
            assert _bits(m, walsh_reconstruct(m, values).values) == _bits(m, expected)
        # A mask that keeps every coefficient: the live cells come from the
        # data, not from x, so every Q_x f is synthesized as f.
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "masked_coeffs", lambda model, coeffs, x: list(coeffs))
            expected = _bits(m, reference_transform(m, coeffs, synthesis=True))
            assert [_bits(m, q.values) for q in projections(m, f, xs)] == [expected] * len(xs)


def test_one_cell_conditional_runs_the_synthesis_kernel_on_k_entries(monkeypatch):
    m = NoiseModel([Cell((F(1, 3), F(2, 3)))] * 12)
    f = m.random_rv(random.Random(12))
    x = BoolElem(1 << 5, 12)
    sizes = []
    kernel = model_mod._apply_per_cell

    def counting(values, radices, matrices):
        sizes.append((len(values), len(radices)))
        return kernel(values, radices, matrices)

    monkeypatch.setattr(model_mod, "_apply_per_cell", counting)
    q = project(m, x, f)
    assert sizes == [(4096, 12), (2, 1)]  # analysis over N points, synthesis over k
    assert [q] == project_oracle(m, x, [f])


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_walsh_vector_multiplies_only_the_cells_of_its_support(backend, monkeypatch):
    m = NoiseModel([Cell((F(1, 3), F(2, 3)))] * 11 + [uniform_cell(3)], backend=backend)
    one = m._num(F(1))
    kron = model_mod._kron
    tables = []

    def recording(factors, start, op=operator.mul):
        tables.append(list(factors))
        return kron(factors, start, op)

    monkeypatch.setattr(model_mod, "_kron", recording)
    for idx in [m.strides[i] for i in range(12)] + [2, 3 * 5 + 2, m.n_points - 1]:
        digits = m.point_digits(idx)
        tables.clear()
        got = m.walsh_vector(idx)
        assert tables == [[m.cell_vectors[i][d] for i, d in enumerate(digits) if d]]
        expected = kron([vecs[d] for vecs, d in zip(m.cell_vectors, digits)], one)
        assert _bits(m, got.values) == _bits(m, expected)


def test_tensor_product_identity(four_coins):
    m = four_coins
    masks = m.support_masks
    for i in range(m.n_points):
        for j in range(m.n_points):
            if masks[i] & masks[j] == 0:
                prod = m.walsh_vector(i) * m.walsh_vector(j)
                assert prod == m.walsh_vector(i + j)
                assert norm_sq(m, prod) == m.basis_norms[i] * m.basis_norms[j]


def test_projection_laws_two_coins(two_coins, rng):
    rep = verify_projection_laws(two_coins, [BoolElem(mask, 2) for mask in range(4)], rng)
    assert not rep.failures
    assert rep.strict_superadditivity_witness is not None


def test_superadditivity_strict_witness(four_coins):
    # The second-chaos vector splits to zero across the two cells but keeps
    # full norm on their union.
    m = four_coins
    psi = sign_rv(m, 0) * sign_rv(m, 1)
    x, y = BoolElem(1, 4), BoolElem(2, 4)
    nx = norm_sq(m, project(m, x, psi))
    ny = norm_sq(m, project(m, y, psi))
    nj = norm_sq(m, project(m, x.join(y), psi))
    assert nx == 0 and ny == 0 and nj == 1


def test_float_backend_consistency(rng):
    m = NoiseModel([fair_coin(), uniform_cell(3), fair_coin()], backend="float")
    rep = verify_projection_laws(m, [BoolElem(mask, 3) for mask in range(8)], rng)
    assert not rep.failures
    f = m.random_rv(rng)
    for mask in range(1 << 3):
        x = BoolElem(mask, 3)
        (q,) = project_oracle(m, x, [f])
        assert m.rv_eq(project(m, x, f), q)


def test_mixed_radix_ordering():
    m = NoiseModel([fair_coin(), uniform_cell(3)])
    # Cell 0 is the slow axis.
    assert [m.point_digits(i) for i in range(6)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]
    assert point_index(m, (1, 2)) == 5


def test_integer_paths_match_their_fraction_definitions():
    rng = random.Random(15)
    for trial in range(30):
        m = NoiseModel(_random_cells(rng, trial % 5, k_max=4))
        w = m.point_weights
        vectors = [RandomVariable(tuple(v)) for v in _transform_inputs(rng, m.n_points)]
        vectors.append(m.random_rv(rng))
        for f in vectors:
            assert expectation(m, f) == sum((a * p for a, p in zip(f.values, w)), F(0))
            assert norm_sq(m, f) == sum((a * a * p for a, p in zip(f.values, w)), F(0))
            for g in vectors:
                expected = sum((a * b * p for a, b, p in zip(f.values, g.values, w)), F(0))
                got = inner_product(m, f, g)
                assert type(got) is Fraction and got == expected
            coeffs = walsh_decompose(m, f)
            for mask in range(1 << m.n_cells):
                x = BoolElem(mask, m.n_cells)
                expected = walsh_reconstruct(m, masked_coeffs(m, coeffs, x))
                got = project(m, x, f)
                assert all(type(v) is Fraction for v in got.values)
                assert got == expected
        short = RandomVariable((F(1),) * (m.n_points + 1))
        for call in (
            lambda: inner_product(m, vectors[0], short),
            lambda: norm_sq(m, short),
            lambda: expectation(m, short),
            lambda: project(m, BoolElem(0, m.n_cells), short),
        ):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_norm_sq_puts_f_over_its_lcd_once(backend, monkeypatch):
    rng = random.Random(33)
    m = NoiseModel(_random_cells(rng, 3, k_max=4), backend=backend)
    calls = []
    over_lcd = model_mod._over_lcd

    def counting(model, values):
        calls.append(values)
        return over_lcd(model, values)

    monkeypatch.setattr(model_mod, "_over_lcd", counting)
    for _ in range(10):
        f = m.random_rv(rng)
        calls.clear()
        got = norm_sq(m, f)
        assert calls == [f.values]
        # An equal vector that is another object takes the two-LCD path.
        assert _bits(m, [got]) == _bits(m, [inner_product(m, f, RandomVariable(tuple(f.values)))])
        assert len(calls) == 3


def _bits(model, values):
    """Entries as exact values on the exact backend, as float bit patterns
    on the float backend, so list equality is bit for bit."""
    return [v.hex() if model.backend == "float" else v for v in values]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_projections_equal_one_projection_per_element(backend):
    rng = random.Random(25)
    for trial in range(20):
        m = NoiseModel(_random_cells(rng, 1 + trial % 4, k_max=4), backend=backend)
        n = m.n_cells
        f = m.random_rv(rng)
        x = BoolElem(rng.randrange(1 << n), n)
        drawn = [BoolElem(rng.randrange(1 << n), n) for _ in range(3)]
        for xs in ([], [BoolElem(0, n)], [BoolElem(0, n), BoolElem((1 << n) - 1, n), x, *drawn, x]):
            got = projections(m, f, xs)
            expected = [project(m, y, f) for y in xs]
            assert [_bits(m, q.values) for q in got] == [_bits(m, q.values) for q in expected]


def test_exact_conditionals_hold_one_fraction_per_distinct_value():
    m = NoiseModel([Cell((F(1, 3), F(2, 3)))] * 3)
    q = project(m, BoolElem(0b001, 3), m.random_rv(random.Random(3)))
    assert len({id(v) for v in q.values}) == len(set(q.values)) == 2


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_project_oracle_partitions_once_for_all_vectors(backend, monkeypatch):
    rng = random.Random(29)
    m = NoiseModel(_random_cells(rng, 3, k_max=4), backend=backend)
    fs = [m.random_rv(rng) for _ in range(4)]
    calls = []
    partition = model_mod.sigma_field_of

    def counting(model, x):
        calls.append(x)
        return partition(model, x)

    monkeypatch.setattr(model_mod, "sigma_field_of", counting)
    for mask in range(1 << 3):
        x = BoolElem(mask, 3)
        calls.clear()
        qs = project_oracle(m, x, fs)
        assert calls == [x]
        # Each block holds one average object: the weighted sum of f over
        # it, added left to right, over the block's weight.
        wts = m.point_weights
        for f, q in zip(fs, qs):
            for block in partition(m, x):
                wsum = wtot = 0
                for w in block:
                    wsum += f.values[w] * wts[w]
                    wtot += wts[w]
                avg = wsum / wtot
                assert _bits(m, [avg]) == _bits(m, [q.values[block[0]]])
                assert all(q.values[w] is q.values[block[0]] for w in block)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_point_tables_match_their_per_point_definitions(backend):
    # Each table multiplies its per-cell factors left to right in cell
    # order, so the float entries agree bit for bit.
    rng = random.Random(26)
    for trial in range(24):
        m = NoiseModel(_random_cells(rng, trial % 6), backend=backend)
        one = m._num(Fraction(1))
        digits = [m.point_digits(idx) for idx in range(m.n_points)]
        weights = [
            math.prod((m._num(m.cells[i].probs[d]) for i, d in enumerate(dig)), start=one)
            for dig in digits
        ]
        norms = [math.prod((m.cell_norms_sq[i][d] for i, d in enumerate(dig)), start=one) for dig in digits]
        masks = [sum(1 << i for i, d in enumerate(dig) if d) for dig in digits]
        assert _bits(m, m.point_weights) == _bits(m, weights)
        assert _bits(m, m.basis_norms) == _bits(m, norms)
        assert list(m.support_masks) == masks
        assert isinstance(m.point_weights, tuple) and isinstance(m.basis_norms, tuple)


# Exact models with unequal probabilities, radices 2 and 3, N = 2 .. 18.
PARSEVAL_MODELS = [
    NoiseModel([Cell((F(1, 3), F(2, 3)))]),
    NoiseModel([Cell((F(1, 3), F(2, 3))), Cell((F(1, 6), F(1, 3), F(1, 2)))]),
    NoiseModel([Cell((F(2, 5), F(3, 5))), Cell((F(1, 4), F(1, 4), F(1, 2))), uniform_cell(3)]),
]


@settings(max_examples=200, derandomize=True)
@given(st.sampled_from(PARSEVAL_MODELS), st.data())
def test_mass_inside_is_the_written_out_parseval_sum(m, data):
    entry = st.integers(-30, 30) | st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
    coeffs = data.draw(st.lists(entry, min_size=m.n_points, max_size=m.n_points))
    x = BoolElem(data.draw(st.integers(0, (1 << m.n_cells) - 1)), m.n_cells)
    expected = sum(
        (F(c) * c * e for c, e, s in zip(coeffs, m.basis_norms, m.support_masks) if s & ~x.mask == 0),
        F(0),
    )
    got = mass_inside(m, coeffs, x)
    assert type(got) is Fraction and got == expected


def test_float_mass_inside_adds_in_flat_index_order():
    rng = random.Random(31)
    m = NoiseModel([Cell((F(1, 3), F(2, 3))), Cell((F(1, 6), F(1, 3), F(1, 2)))], backend="float")
    for _ in range(20):
        coeffs = walsh_decompose(m, m.random_rv(rng))
        for mask in range(1 << m.n_cells):
            kept = (c * c * e for c, e, s in zip(coeffs, m.basis_norms, m.support_masks) if not s & ~mask)
            expected = functools.reduce(operator.add, kept, 0.0)
            assert mass_inside(m, coeffs, BoolElem(mask, m.n_cells)).hex() == expected.hex()

