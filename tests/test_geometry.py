import ast
import dataclasses
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from noise_lab import geometry

from noise_lab.boolalg import BoolElem
from noise_lab.geometry import (
    Embedding,
    boundary_dichotomy,
    build_embedding,
    chain_sup,
    closure_cells,
    inner_approx,
    is_dyadic,
    is_dyadic_regopen,
    monotone_limit_check,
    sample_hom,
    shrink_chain,
    spectral_set_map,
    verify_shrink_chain,
    verify_spectral_map_uniqueness,
    verify_spectral_set_identity,
)
from noise_lab.config import load_config_dict, load_model_config
from noise_lab.regopen import (
    DYADIC_POOL,
    dyadic_grid_regopens,
    grid_scale,
    make_regopen,
    random_regopen,
)
from noise_lab.suite import (
    DEPTH,
    _Ctx,
    geometry__approximant,
    geometry__homomorphism,
    geometry__spectral_identity,
    run_verification_suite,
)

from conftest import CONFIGS, REPO, cli_env, contains_closure

F = Fraction
# The grid of the elements made here; it holds the sample points of ``emb``.
L = grid_scale()
EMPTY = make_regopen((), L)
FULL = make_regopen([(0, 1)], L)
SRC = REPO / "src" / "noise_lab"
MODEL_SIDE = {"model", "chaos", "spectrum", "linalg", "suite", "config", "cli"}


def inner_approx_detail(emb, r):
    """inner_approx(emb, r) together with the dyadic depth at which the
    supremum is reached: the smallest depth whose grid provides, around each
    captured sample point, an interval compactly inside r."""
    elem = inner_approx(emb, r)
    worst = 0
    for i in elem.indices():
        t = emb.sample_points[i]
        a, b = next((a, b) for a, b in r.intervals if a < t < b or (a == t == 0) or (b == t == 1))
        d = 0
        while True:
            q = 1 << d
            lo = F(math.floor(t * q), q)
            hi = lo + F(1, q)
            lo_ok = lo > a or (a == 0 and lo >= 0)
            hi_ok = hi < b or (b == 1 and hi <= 1)
            if lo < t < hi and lo_ok and hi_ok:
                break
            d += 1
            if d > 64:
                raise RuntimeError("no dyadic neighborhood found")
        worst = max(worst, d)
    return elem, worst


@pytest.fixture
def emb():
    return build_embedding([F(1, 5), F(1, 3), F(2, 3)], 3)


def test_build_embedding_validations():
    assert build_embedding([F(1, 5), F(1, 3), F(2, 3)], 3).n == 3
    with pytest.raises(ValueError, match="potential boundary"):
        build_embedding([F(1, 4), F(1, 3), F(2, 3)], 3)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_embedding([F(1, 3), F(1, 5), F(2, 3)], 3)
    with pytest.raises(ValueError, match="sample points"):
        build_embedding([F(1, 5), F(1, 3)], 3)
    with pytest.raises(ValueError, match="outside"):
        build_embedding([F(3, 2)], 1)


def test_build_embedding_runs_no_evaluation_map_check(monkeypatch):
    def refuse(emb, a):
        raise AssertionError("build_embedding evaluated the map")

    monkeypatch.setattr(geometry, "sample_hom", refuse)
    emb = build_embedding([F(1, 5), F(1, 3), F(2, 3)], 3)
    assert emb.sample_points == (F(1, 5), F(1, 3), F(2, 3))


def test_embedding_is_frozen(emb):
    with pytest.raises(dataclasses.FrozenInstanceError):
        emb.sample_points = (F(1, 3), F(1, 5), F(2, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        emb.cache = {}


def test_is_dyadic():
    assert is_dyadic(F(1, 4)) and is_dyadic(F(3, 8)) and is_dyadic(F(1))
    assert not is_dyadic(F(1, 3)) and not is_dyadic(F(1, 5)) and not is_dyadic(F(5, 6))


def test_is_dyadic_regopen_matches_the_rational_definition(rng):
    scale = grid_scale([F(1, 7), F(1, 3 << 9)])
    for _ in range(300):
        r = random_regopen(rng, scale, denominators=(2, 3, 7, 12, 64, 3 << 9))
        assert is_dyadic_regopen(r) == all(is_dyadic(x) for iv in r.intervals for x in iv)


def test_evaluation_refuses_an_element_of_another_grid():
    e = build_embedding([F(1, 7), F(1, 3)], 2)
    assert e.scale == grid_scale([F(1, 7)]) != L
    assert e.ticks == (e.scale // 7, e.scale // 3)
    half = make_regopen([(0, F(1, 2))], L)
    for evaluate in (sample_hom, inner_approx, closure_cells):
        with pytest.raises(ValueError, match="grid"):
            evaluate(e, half)
    assert sample_hom(e, make_regopen([(0, F(1, 2))], e.scale)) == BoolElem(0b11, 2)


def test_geometry_checks_pass_with_awkward_sample_denominators():
    # 786432 = 3 * 2^18, so the grid needs a power of two beyond what the
    # checks themselves make.
    cfg = load_config_dict(
        {
            "cells": [{"k": 2, "probs": ["1/2", "1/2"]}] * 2,
            "embedding": {"sample_points": ["1/786432", "1/101"]},
        }
    )
    assert cfg.embedding.scale % (101 << 18) == 0
    report = run_verification_suite(cfg, "geometry")
    assert [r.status for r in report.results] == ["pass"] * 6


def test_sample_hom_example(emb):
    assert sample_hom(emb, make_regopen([(0, F(1, 2))], L)) == BoolElem.from_indices([0, 1], 3)
    assert sample_hom(emb, FULL).is_one
    assert sample_hom(emb, EMPTY).is_zero
    with pytest.raises(ValueError):
        sample_hom(emb, make_regopen([(F(1, 3), F(2, 3))], L))


def test_sample_hom_is_homomorphism_random(emb, rng):
    dyads = (2, 4, 8, 16, 32)
    for _ in range(300):
        a = random_regopen(rng, L, denominators=dyads)
        b = random_regopen(rng, L, denominators=dyads)
        assert sample_hom(emb, a & b) == sample_hom(emb, a) & sample_hom(emb, b)
        assert sample_hom(emb, a | b) == sample_hom(emb, a) | sample_hom(emb, b)
        assert sample_hom(emb, ~a) == ~sample_hom(emb, a)


def test_spectral_set_map_examples(emb):
    assert spectral_set_map(emb, BoolElem(0, 3)).cover.intervals == ()

    atom = BoolElem.from_indices([0, 2], 3)
    assert closure_cells(emb, spectral_set_map(emb, atom).cover) == atom

    res3 = spectral_set_map(emb, BoolElem.from_indices([1], 3), depth=3)
    assert res3.cover.intervals == ((F(1, 4), F(3, 8)),)  # the depth-3 cell around 1/3


def test_spectral_set_map_shrinks(emb):
    atom = BoolElem.from_indices([0, 1, 2], 3)
    previous = None
    for depth in range(1, 9):
        res = spectral_set_map(emb, atom, depth=depth)
        for t in emb.sample_points:
            assert any(a <= t <= b for a, b in res.cover.intervals)
        assert res.hausdorff_distance < F(1, 1 << depth)
        total = sum((b - a for a, b in res.cover.intervals), F(0))
        if previous is not None:
            assert total <= previous
        previous = total
    # 1/5 and 1/3 fall in adjacent cells up to depth 3, so the components
    # first separate at depth 4.
    assert len(spectral_set_map(emb, atom, depth=3).cover.ticks) == 2
    assert len(spectral_set_map(emb, atom, depth=4).cover.ticks) == 3


def _all_atoms(emb):
    return [BoolElem(mask, emb.n) for mask in range(1 << emb.n)]


def test_uniqueness_of_the_union(emb):
    for depth in (2, 3, 4):
        assert verify_spectral_map_uniqueness(emb, depth, _all_atoms(emb))


# The flag-array construction the grid cover replaced: uncovered grid units
# (open cells and grid points) assembled into closed intervals.


def _assemble_closed(cell_uncov, point_uncov, depth):
    q = 1 << depth
    out = []
    run_start = None
    for j in range(q + 1):
        if point_uncov[j] and run_start is None:
            run_start = F(j, q)
        if not point_uncov[j]:
            if run_start is not None:
                out.append((run_start, F(j - 1, q)))
                run_start = None
            if j < q and cell_uncov[j]:
                raise RuntimeError("uncovered cell with covered endpoints")
        elif j < q and not cell_uncov[j] and run_start is not None:
            out.append((run_start, F(j, q)))
            run_start = None
    if run_start is not None:
        out.append((run_start, F(1)))
    return tuple(out)


def reference_cover(targets, depth):
    q = 1 << depth
    cell_hit = [False] * q
    for t in targets:
        cell_hit[int(t * q)] = True
    point_uncov = [(j > 0 and cell_hit[j - 1]) or (j < q and cell_hit[j]) for j in range(q + 1)]
    return _assemble_closed(cell_hit, point_uncov, depth)


def _non_dyadic_points(rng, count):
    points = set()
    while len(points) < count:
        t = F(rng.randrange(1, 3 << 9), 3 << 9)
        if not is_dyadic(t):
            points.add(t)
    return sorted(points)


def _target_sets(rng):
    yield from (_non_dyadic_points(rng, rng.randint(0, 6)) for _ in range(60))
    for depth in range(9):
        q = 1 << depth
        # Points in cells 0 and 2^D - 1, and in two adjacent cells.
        yield [F(1, 3 * q), F(3 * q - 1, 3 * q)]
        c = rng.randrange(q)
        yield sorted({F(3 * c + 1, 3 * q), F(3 * min(c + 1, q - 1) + 2, 3 * q)})


def test_approximant_matches_the_flag_array_reference(rng):
    for targets in _target_sets(rng):
        emb = build_embedding(targets, len(targets))
        atom = BoolElem((1 << emb.n) - 1, emb.n)
        for depth in range(9):
            res = spectral_set_map(emb, atom, depth=depth)
            assert res.cover.intervals == reference_cover(targets, depth)


def test_per_atom_checks_take_their_atoms_from_the_element_policy(monkeypatch):
    n = 12
    cfg = load_config_dict(
        {
            "cells": [{"k": 2, "probs": ["1/2", "1/2"]}] * n,
            "backend": "float",
            "embedding": {"sample_points": [f"{k}/{2 * n + 1}" for k in range(1, n + 1)]},
        }
    )
    ctx = _Ctx(cfg)
    budget = len(ctx.elements(random.Random(0))) * DEPTH
    calls = {"spectral_set_map": 0, "_grid_cover": 0}

    def counted(name):
        real = getattr(geometry, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(geometry, name, counted(name))
    for check in (geometry__spectral_identity, geometry__approximant):
        calls.update(dict.fromkeys(calls, 0))
        result = check(ctx)
        assert result.status == "pass"
        assert 0 < max(calls.values()) <= budget, (check.__name__, calls)
    assert result.detail == f"14 sampled atoms, depths 1..{DEPTH}"


def test_spectral_set_identity_runs_no_uniqueness_oracle(emb, monkeypatch):
    def refuse(emb, depth, atoms):
        raise AssertionError("identity check ran the uniqueness oracle")

    monkeypatch.setattr(geometry, "verify_spectral_map_uniqueness", refuse)
    for a in dyadic_grid_regopens(2, L):
        assert verify_spectral_set_identity(emb, a)


def test_spectral_set_identity(emb):
    assert verify_spectral_set_identity(emb, make_regopen([(0, F(1, 2))], L))
    assert verify_spectral_set_identity(emb, FULL)
    assert verify_spectral_set_identity(emb, EMPTY)
    for a in dyadic_grid_regopens(3, L):
        assert verify_spectral_set_identity(emb, a)


def test_monotone_limit_growing_chain(emb):
    chain = [make_regopen([(0, 1 - F(1, 2**n))], L) for n in range(1, 9)]
    assert monotone_limit_check(emb, chain)
    assert chain_sup(emb, chain).is_one
    assert _uncovered_by_atoms(emb, chain) == []
    assert _covered_side_matches_atoms(emb, chain)


def test_monotone_limit_constant_chain(emb):
    chain = [make_regopen([(0, F(1, 2))], L)] * 4
    assert monotone_limit_check(emb, chain)  # both sides of the equivalence fail
    assert chain_sup(emb, chain) == BoolElem.from_indices([0, 1], 3)
    stuck = _uncovered_by_atoms(emb, chain)
    assert BoolElem.from_indices([2], 3) in stuck
    assert _covered_side_matches_atoms(emb, chain)


def test_monotone_limit_input_errors(emb):
    with pytest.raises(ValueError, match="empty chain"):
        monotone_limit_check(emb, [])
    with pytest.raises(ValueError, match="increasing"):
        monotone_limit_check(
            emb, [make_regopen([(0, F(1, 2))], L), make_regopen([(F(1, 2), 1)], L)]
        )


def test_inner_approx_examples(emb):
    r = make_regopen([(0, F(1, 3))], L)
    assert inner_approx(emb, r) == BoolElem.from_indices([0], 3)  # 1/3 is on the boundary
    assert inner_approx(emb, FULL).is_one
    half = make_regopen([(0, F(1, 2))], L)
    assert inner_approx(emb, half) == sample_hom(emb, half)

    elem, depth = inner_approx_detail(emb, r)
    assert elem == BoolElem.from_indices([0], 3)
    assert depth >= 1
    # Reported depth really suffices: the dyadic cell around 1/5 at that
    # depth is compactly inside [0, 1/3).
    q = 1 << depth
    lo = F(math.floor(F(1, 5) * q), q)
    assert lo + F(1, q) < F(1, 3)


def test_inner_approx_disjointness(emb, rng):
    for _ in range(200):
        r = random_regopen(rng, L)
        assert inner_approx(emb, r).disjoint(inner_approx(emb, ~r))


def test_boundary_dichotomy_examples(emb):
    rep = boundary_dichotomy(emb, make_regopen([(0, F(1, 3))], L))
    assert not rep.holds
    assert rep.inner | rep.outer == BoolElem.from_indices([0, 2], 3)
    assert rep.boundary_hits == (1,)

    rep2 = boundary_dichotomy(emb, make_regopen([(0, F(1, 2))], L))
    assert rep2.holds and (rep2.inner | rep2.outer).is_one and ~rep2.inner == rep2.outer

    rep3 = boundary_dichotomy(emb, EMPTY)
    assert rep3.holds and (rep3.inner | rep3.outer).is_one


def test_boundary_dichotomy_random(emb, rng):
    for k in range(300):
        if k % 4 == 0:
            t = rng.choice(emb.sample_points)
            hi = max(t, F(7, 8))
            r = make_regopen([(t, hi)], L) if t < hi else EMPTY
        else:
            r = random_regopen(rng, L)
        rep = boundary_dichotomy(emb, r)
        assert rep.inner.disjoint(rep.outer)
        assert rep.holds == (not rep.boundary_hits)
        assert rep.boundary_hits == tuple(
            i
            for i, t in enumerate(emb.sample_points)
            if contains_closure(r, t) and not r.contains_interior(t)
        )
        if rep.holds:
            assert ~rep.inner == rep.outer


def test_homomorphism_check_evaluates_each_distinct_element_once(monkeypatch):
    calls = []
    hom = geometry.sample_hom

    def counted(emb, a):
        calls.append(a.ticks)
        return hom(emb, a)

    monkeypatch.setattr(geometry, "sample_hom", counted)
    ctx = _Ctx(load_model_config(str(CONFIGS["two-coins"])))
    result = geometry__homomorphism(ctx)
    assert (result.status, result.detail) == ("pass", "2296 pairs")
    # The check's operands, drawn as it draws them, with their meets, joins
    # and complements.
    rng = ctx.rng("geometry.hom")
    grid = dyadic_grid_regopens(3, ctx.scale)
    drawn = [random_regopen(rng, ctx.scale, denominators=DYADIC_POOL) for _ in range(2000)]
    pairs = [(a, b) for a in grid for b in grid] + list(zip(drawn[::2], drawn[1::2]))
    elements = {e for a, b in pairs for e in (a, b, a & b, a | b)}
    elements |= {~a for a in grid + drawn[::2]}
    assert len(calls) == len(set(calls))
    assert set(calls) == {e.ticks for e in elements}
    assert len(calls) == 420  # not the 7664 evaluations of one per use


@pytest.mark.parametrize("module", ["regopen", "geometry"])
def test_regular_open_layer_imports_no_model_code(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("noise_lab"):
                continue
            if module in ("", "noise_lab"):  # from . import x, from noise_lab import x
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(module.split(".")[-1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & MODEL_SIDE


@pytest.mark.parametrize("module", ["regopen", "geometry"])
def test_regular_open_layer_loads_no_model_code(module):
    # The source check above cannot see what the package root imports.
    code = f"import sys, noise_lab.{module}; print(*sorted(sys.modules))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=cli_env(), check=True)
    loaded = set(run.stdout.decode().split())
    assert not loaded & {f"noise_lab.{name}" for name in MODEL_SIDE}


def test_shrink_chain_properties(emb):
    a = make_regopen([(F(1, 4), F(3, 8)), (F(1, 2), F(3, 4))], L)
    chain = shrink_chain(a, 6)
    for f, g in zip(chain, chain[1:]):
        assert f.le(g)
    assert verify_shrink_chain(emb, a)
    assert verify_shrink_chain(emb, FULL)
    for x in dyadic_grid_regopens(2, L):
        assert verify_shrink_chain(emb, x)


def test_shrink_chain_check_catches_a_chain_that_bridges_a_gap(emb, monkeypatch):
    # Endpoints interior to a, but the chain spans the gap (3/8, 1/2).
    two = make_regopen([(F(1, 4), F(3, 8)), (F(1, 2), F(3, 4))], L)
    bridge = make_regopen([(F(5, 16), F(11, 16))], L)
    monkeypatch.setattr(geometry, "shrink_chain", lambda a, count: [bridge] * count)
    assert not verify_shrink_chain(emb, two)


def test_spectral_set_identity_across_cell_counts():
    # Cell counts 1..5, exhaustive dyadic single intervals of depth <= 4.
    points = [F(1, 7), F(1, 5), F(1, 3), F(3, 5), F(2, 3)]
    for n in range(1, 6):
        e = build_embedding(points[:n], n)
        assert verify_spectral_map_uniqueness(e, 3, _all_atoms(e))
        for a in dyadic_grid_regopens(4, e.scale):
            assert verify_spectral_set_identity(e, a)


def test_dyadic_base_is_a_base(emb):
    # Around every sample point and every dyadic point, the family provides
    # arbitrarily small neighborhoods once the depth is large enough.
    targets = list(emb.sample_points) + [F(1, 2), F(3, 4)]
    for t in targets:
        for depth in (4, 6):
            hits = [
                iv
                for iv in dyadic_grid_regopens(depth, L)
                if iv.contains_interior(t)
            ]
            assert hits
            smallest = min(b - a for iv in hits for a, b in iv.intervals)
            assert smallest <= 2 * F(1, 1 << depth)


def test_mask_forms_build_no_closed_sets(emb, monkeypatch):
    def refuse(emb, s):
        raise AssertionError("closed set of an atom was built")

    monkeypatch.setattr(geometry, "_atom_ticks", refuse)
    for a in dyadic_grid_regopens(3, L):
        assert verify_spectral_set_identity(emb, a)
    rep = boundary_dichotomy(emb, make_regopen([(0, F(1, 3))], L))
    assert rep.boundary_hits[0] == 1
    growing = [make_regopen([(0, 1 - F(1, 2**n))], L) for n in range(1, 9)]
    constant = [make_regopen([(0, F(1, 2))], L)] * 4
    assert monotone_limit_check(emb, growing)
    assert monotone_limit_check(emb, constant)
    for chain in (growing, constant):
        assert _covered_side_matches_atoms(emb, chain)


# The per-atom definitions the mask forms replace, written out over the
# closed set of every atom.


def _closed_set(emb, atom):
    return tuple(emb.sample_points[i] for i in atom.indices())


def _identity_by_atoms(emb, a):
    ha = sample_hom(emb, a)
    lhs = {m for m in range(1 << emb.n) if m & ~ha.mask == 0}
    rhs = {
        m
        for m in range(1 << emb.n)
        if all(contains_closure(a, t) for t in _closed_set(emb, BoolElem(m, emb.n)))
    }
    return lhs == rhs


def _uncovered_by_atoms(emb, chain):
    out = []
    for m in range(1 << emb.n):
        atom = BoolElem(m, emb.n)
        pts = _closed_set(emb, atom)
        if not any(all(contains_closure(a, t) for t in pts) for a in chain):
            out.append(atom)
    return out


def _covered_side_matches_atoms(emb, chain):
    """monotone_limit_check against the per-atom reference: it holds exactly
    when reaching the full set agrees with leaving no atom uncovered."""
    every_atom_covered = not _uncovered_by_atoms(emb, chain)
    return monotone_limit_check(emb, chain) == (chain_sup(emb, chain).is_one == every_atom_covered)


def _dichotomy_hits_by_atoms(emb, r):
    """The cells whose one-point atom has its closed set meet the boundary of r."""
    return tuple(
        i
        for i in range(emb.n)
        if any(
            contains_closure(r, t) and not r.contains_interior(t)
            for t in _closed_set(emb, BoolElem(1 << i, emb.n))
        )
    )


def _assert_mask_forms_match_atoms(emb, rng):
    family = dyadic_grid_regopens(4, emb.scale)
    for a in family:
        assert verify_spectral_set_identity(emb, a) == _identity_by_atoms(emb, a)
        assert _covered_side_matches_atoms(emb, [a])
    for _ in range(40):
        acc = make_regopen((), emb.scale)
        chain = []
        for _ in range(rng.randint(1, 4)):
            acc = acc | rng.choice(family)
            chain.append(acc)
        assert _covered_side_matches_atoms(emb, chain)
    # Boundaries on and off the sample points.
    ends = sorted(set(emb.sample_points) | {F(j, 16) for j in range(17)})
    for lo in ends:
        for hi in ends:
            if lo < hi:
                r = make_regopen([(lo, hi)], emb.scale)
                assert boundary_dichotomy(emb, r).boundary_hits == _dichotomy_hits_by_atoms(emb, r)


def test_mask_forms_match_atom_definitions_across_cell_counts(rng):
    points = [F(1, 7), F(1, 5), F(1, 3), F(3, 5), F(2, 3)]
    for n in range(1, 6):
        e = build_embedding(points[:n], n)
        _assert_mask_forms_match_atoms(e, rng)


def test_mask_forms_match_atom_definitions_on_a_dyadic_sample_point(rng):
    # Built directly, so build_embedding does not reject the point 1/2.
    e = Embedding((F(1, 5), F(1, 2), F(2, 3)))
    half = make_regopen([(0, F(1, 2))], e.scale)
    assert not verify_spectral_set_identity(e, half)
    assert not _identity_by_atoms(e, half)
    assert closure_cells(e, half) == BoolElem.from_indices([0, 1], 3)
    assert sample_hom(e, half) == BoolElem.from_indices([0], 3)
    _assert_mask_forms_match_atoms(e, rng)
