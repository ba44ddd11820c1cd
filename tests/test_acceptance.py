"""Acceptance gate: one test per criterion, one printed line per criterion.

Exact checks carry zero tolerance; float-backend checks use the 1e-9
absolute tolerance baked into the model backend; timing-limited criteria
measure wall time.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from noise_lab import linalg
from noise_lab.boolalg import (
    BoolElem,
    Subalgebra,
    random_partition_blocks,
)
from noise_lab.chaos import (
    Classification,
    additive_vector,
    atomless_defect,
    classify,
    defect_bound_check,
    first_chaos_basis,
    product_test,
    satisfies_additivity,
    split_check,
    split_solution_space,
    _additivity_rows,
    _split_span_rows,
)
from noise_lab.config import load_model_config
from noise_lab.geometry import (
    boundary_dichotomy,
    build_embedding,
    chain_sup,
    closure_cells,
    monotone_limit_check,
    spectral_set_map,
    verify_spectral_map_uniqueness,
    verify_spectral_set_identity,
)
from noise_lab.model import (
    Cell,
    NoiseModel,
    expectation,
    norm_sq,
    project,
    project_oracle,
    verify_projection_laws,
    walsh_decompose,
)
from noise_lab.regopen import (
    dyadic_grid_regopens,
    grid_scale,
    make_regopen,
    random_regopen,
    verify_reg_laws,
)
from noise_lab.spectrum import (
    build_spectral_space,
    sigma_x,
    spectral_measure,
    spectral_set,
    verify_independence,
    verify_sigma_join,
)

from conftest import (
    block_subalgebra, cli_env, full_subalgebra, is_full, model_family, sign_rv, varied_probs,
)

F = Fraction
L = grid_scale()  # the grid of the elements made here
REPO = Path(__file__).resolve().parent.parent


def _finish(num: int, name: str, failures: list, elapsed=None, bound=None):
    status = "PASS" if not failures else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.1f} s {'<' if elapsed < bound else '>='} {bound:g} s)"
    print(f"criterion {num:02d} [{name}]: {status}{timing}")
    assert not failures, failures[:5]


def test_criterion_01_projection_lattice():
    failures = []
    t0 = time.monotonic()

    rng = random.Random(0)
    for m in model_family(4, (2, 3)):  # 31 shapes, N up to 81, varied probs
        elements = [BoolElem(mask, m.n_cells) for mask in range(1 << m.n_cells)]
        rep = verify_projection_laws(m, elements, rng)
        if rep.failures:
            failures.append(f"exact model {m.radices}: {rep.failures[:2]}")

    for i in range(100):
        n = rng.randint(5, 7)
        cells = []
        for j in range(n):
            k = rng.choice((2, 2, 3))
            cells.append(Cell(varied_probs(k, rng.randrange(4))))
        m = NoiseModel(cells, backend="float")
        a = rng.randrange(1 << n)
        b = rng.randrange(1 << n) & ~a  # disjoint from a, so superadditivity is exercised
        elements = [BoolElem(mask, n) for mask in (0, (1 << n) - 1, a, b)]
        rep = verify_projection_laws(m, elements, rng)
        if rep.failures:
            failures.append(f"float model {i}: {rep.failures[:2]}")

    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _finish(1, "projection lattice, exact + float sweeps", failures, elapsed, 10.0)


def test_criterion_02_oracle_equivalence():
    failures = []
    shapes = [
        (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (3, 3, 3),
        (2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 2, 2, 2),
    ]
    for shape in shapes:
        m = NoiseModel([Cell(varied_probs(k, i)) for i, k in enumerate(shape)])
        assert m.n_points <= 64
        basis = [
            m.from_values([1 if w == j else 0 for w in range(m.n_points)])
            for j in range(m.n_points)
        ]
        for mask in range(1 << m.n_cells):
            x = BoolElem(mask, m.n_cells)
            if [project(m, x, v) for v in basis] != project_oracle(m, x, basis):
                failures.append(f"{shape} x={x}")
    _finish(2, "basis projection equals naive conditioning", failures)


def test_criterion_03_first_chaos():
    failures = []
    models = model_family(4, (2, 3), max_points=36)
    models.append(NoiseModel([Cell(varied_probs(3, i)) for i in range(4)]))  # N=81
    for m in models:
        # The additivity system, eliminated, against the single-cell Walsh vectors.
        solution = linalg.nullspace(_additivity_rows(m), m.n_points)
        fc = first_chaos_basis(m)
        expected = sum(k - 1 for k in m.radices)
        if len(solution) != expected:
            failures.append(f"{m.radices}: dim {len(solution)} != {expected}")
        if not linalg.span_equal(solution, [list(v.values) for v in fc]):
            failures.append(f"{m.radices}: span mismatch")
        if m.n_cells > 0 and classify(m, fc) is not Classification.CLASSICAL:
            failures.append(f"{m.radices}: not classical")
    _finish(3, "first chaos dimension, span, classicality", failures)


def test_criterion_04_split_product_and_subspace():
    failures = []
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)]
    for shape in shapes:
        m = NoiseModel([Cell(varied_probs(k, i)) for i, k in enumerate(shape)])
        assert m.n_points <= 64
        family = [m.walsh_vector(i) for i in range(m.n_points)]
        mixed = family[1] + family[-1].scale(F(3, 2))
        family.append(mixed)
        coeffs = [walsh_decompose(m, psi) for psi in family]
        xs = [BoolElem(mask, m.n_cells) for mask in range(1 << m.n_cells)]
        for x, products in zip(xs, product_test(m, family, xs)):
            for k, (c, product) in enumerate(zip(coeffs, products)):
                if split_check(m, c, x) != product:
                    failures.append(f"{shape} x={x} vec {k}")
            space = split_solution_space(m, x)
            if not linalg.span_equal(
                [list(v.values) for v in space], _split_span_rows(m, x)
            ):
                failures.append(f"{shape} x={x}: solution space mismatch")
    _finish(4, "split identity equals product criterion and span", failures)


def test_criterion_05_defect_bound_quantitative():
    failures = []
    m = NoiseModel([Cell((F(1, 2), F(1, 2)))] * 4)
    r = [sign_rv(m, i) for i in range(4)]
    psi = r[0] * r[1] + r[2] * r[3]
    blocks = block_subalgebra(m, [[0, 1], [2, 3]])

    cert = atomless_defect(m, psi, blocks)
    if cert.delta_sq != 1:
        failures.append(f"delta^2 = {cert.delta_sq} != 1")
    x = BoolElem.from_indices([0, 2], 4)
    (rep,) = defect_bound_check(m, cert, [x])
    if not rep.passed:
        failures.append("tight case does not pass")
    if expectation(m, psi * r[0] * r[1]) != 1:
        failures.append("mixed moment not attained with equality")
    if abs(rep.sigma_max - 1.0) > 1e-9:
        failures.append(f"sigma {rep.sigma_max} not tight")

    rng = random.Random(0)
    violations = 0
    for _ in range(1000):
        sub = Subalgebra(4, tuple(random_partition_blocks(rng, 4)))
        vec = additive_vector(m, sub, m.random_rv(rng))
        xr = BoolElem(rng.randrange(16), 4)
        (crep,) = defect_bound_check(m, atomless_defect(m, vec, sub), [xr])
        if not crep.passed:
            violations += 1
    if violations:
        failures.append(f"{violations} sweep violations")
    _finish(5, "quantitative defect bound, tight + 1000 sweeps", failures)


def test_criterion_06_zero_defect_degenerate_direction():
    failures = []
    rng = random.Random(0)
    zero_cases = 0
    for shape in [(2, 2), (2, 3, 2), (2, 2, 2, 2)]:
        m = NoiseModel([Cell(varied_probs(k, i)) for i, k in enumerate(shape)])
        for trial in range(120):
            sub = Subalgebra(m.n_cells, tuple(random_partition_blocks(rng, m.n_cells)))
            if trial % 4 == 0:
                seed_rv = m.constant(rng.randint(-5, 5))
            else:
                seed_rv = m.random_rv(rng)
            psi = additive_vector(m, sub, seed_rv)
            if not satisfies_additivity(m, psi, sub):
                failures.append(f"{shape}: constructed vector not additive")
                continue
            cert = atomless_defect(m, psi, sub)
            if cert.delta_sq == 0:
                zero_cases += 1
                if not psi.is_zero():
                    failures.append(f"{shape}: delta=0 but psi != 0")
    if zero_cases == 0:
        failures.append("sweep never exercised the zero-defect branch")
    _finish(6, "zero defect forces the zero vector", failures)


def test_criterion_07_spectrum():
    failures = []
    for shape in [(2, 2), (2, 3), (2, 3, 2), (2, 2, 2, 2), (3, 2, 3, 2)]:
        m = NoiseModel([Cell(varied_probs(k, i)) for i, k in enumerate(shape)])
        sp = build_spectral_space(m)
        n = m.n_cells
        elements = [BoolElem(mask, n) for mask in range(1 << n)]
        for x in elements:
            sx = spectral_set(sp, x)
            for y in elements:
                sy = spectral_set(sp, y)
                if sx & sy != spectral_set(sp, x.meet(y)):
                    failures.append(f"{shape}: intersection law at {x},{y}")
                if not verify_sigma_join(sp, x, y):
                    failures.append(f"{shape}: sigma join at {x},{y}")
                if x.disjoint(y) and not verify_independence(sp, x, y):
                    failures.append(f"{shape}: independence at {x},{y}")
            if spectral_set(sp, ~x) not in sigma_x(sp, x):
                failures.append(f"{shape}: complement set not a block at {x}")
            if not verify_independence(sp, x, x.complement()):
                failures.append(f"{shape}: complement independence at {x}")

    m = NoiseModel([Cell(varied_probs(k, i)) for i, k in enumerate((2, 3, 2))])
    sp = build_spectral_space(m)
    rng = random.Random(0)
    for _ in range(100):
        psi = m.random_rv(rng)
        masses = spectral_measure(m, psi)
        for mask in range(1 << m.n_cells):
            x = BoolElem(mask, m.n_cells)
            members = spectral_set(sp, x)
            mass = sum((masses[a] for a in members), F(0))
            if mass != norm_sq(m, project(m, x, psi)):
                failures.append(f"measure mismatch at {x}")
    _finish(7, "spectral sets, measures, joins, independence", failures)


def test_criterion_08_regular_open_algebra():
    failures = []
    rng = random.Random(0)
    rep = verify_reg_laws(rng, L, iterations=1000)
    if rep.failures:
        failures.append(f"law failures: {rep.failures[:3]}")

    r = make_regopen([(0, F(1, 2))], L)
    s = make_regopen([(F(1, 2), 1)], L)
    join = r | s
    if not is_full(join):
        failures.append("join of the two halves is not the full space")
    if r.contains_interior(F(1, 2)) or s.contains_interior(F(1, 2)):
        failures.append("1/2 wrongly interior to a half")
    if not join.contains_interior(F(1, 2)):
        failures.append("1/2 missing from the join interior")
    _finish(8, "regular-open Boolean laws and strictness witness", failures)


def test_criterion_09_geometry():
    failures = []
    emb = build_embedding([F(1, 5), F(1, 3), F(2, 3)], 3)

    if not verify_spectral_map_uniqueness(emb, 4, [BoolElem(mask, 3) for mask in range(8)]):
        failures.append("closed-set approximant differs from its definition")
    count = 0
    for a in dyadic_grid_regopens(6, L):
        count += 1
        if not verify_spectral_set_identity(emb, a):
            failures.append(f"spectral identity fails at {a}")
    if count != (64 + 1) * 64 // 2:
        failures.append("dyadic family of depth 6 incomplete")

    atom = BoolElem.from_indices([0, 2], 3)
    closed = closure_cells(emb, spectral_set_map(emb, atom).cover)
    if closed != atom:
        failures.append(f"closed set of {atom} covers {closed}")

    chain = [make_regopen([(0, 1 - F(1, 2**n))], L) for n in range(1, 10)]
    if not monotone_limit_check(emb, chain):
        failures.append("chain equivalence fails")
    if not chain_sup(emb, chain).is_one:
        failures.append("chain sup misses the full set")
    if not any(closure_cells(emb, a).is_one for a in chain):
        failures.append("chain leaves atoms uncovered")

    rep = boundary_dichotomy(emb, make_regopen([(0, F(1, 3))], L))
    if rep.holds or rep.inner | rep.outer != BoolElem.from_indices([0, 2], 3):
        failures.append(f"dichotomy join {rep.inner | rep.outer}")
    if rep.boundary_hits[:1] != (1,):
        failures.append(f"dichotomy witness {rep.boundary_hits}")

    rng = random.Random(0)
    for k in range(1000):
        if k % 5 == 0:
            t = rng.choice(emb.sample_points)
            other = F(rng.randint(0, 16), 16)
            lo, hi = min(t, other), max(t, other)
            r = make_regopen([(lo, hi)], L) if lo < hi else make_regopen([], L)
        else:
            r = random_regopen(rng, L)
        rep = boundary_dichotomy(emb, r)
        if not rep.inner.disjoint(rep.outer):
            failures.append(f"case {k}: inner approximations of r and its complement overlap")
        if rep.holds != (not rep.boundary_hits):
            failures.append(f"case {k}: boundary dichotomy equivalence violated")
    _finish(9, "spectral identity, chains, boundary dichotomy", failures)


def test_criterion_10_cli_reproducibility(tmp_path):
    failures = []
    config = REPO / "examples" / "two-coins.json"
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "noise_lab", "verify", str(config), "--seed", "0"]
    run1 = subprocess.run(
        cmd + ["--json", str(tmp_path / "r1.json")], capture_output=True, cwd=REPO, env=cli_env()
    )
    run2 = subprocess.run(
        cmd + ["--json", str(tmp_path / "r2.json")], capture_output=True, cwd=REPO, env=cli_env()
    )
    elapsed = time.monotonic() - t0
    if run1.returncode != 0:
        failures.append(f"exit code {run1.returncode}")
    if run1.stdout != run2.stdout:
        failures.append("stdout differs between runs")
    if (tmp_path / "r1.json").read_bytes() != (tmp_path / "r2.json").read_bytes():
        failures.append("machine reports differ between runs")
    payload = json.loads((tmp_path / "r1.json").read_text())
    if payload["summary"]["fail"] != 0 or payload["summary"]["skip"] != 0:
        failures.append(f"summary {payload['summary']}")
    if elapsed >= 60.0:
        failures.append(f"two runs took {elapsed:.1f}s (>= 60s)")
    _finish(10, "reproducible CLI verification run", failures, elapsed, 60.0)
