"""Verification suite: named checks per module, deterministic given a seed.

Each check group mirrors one module's invariants. Checks are pure and run
sequentially in a fixed order; every randomized check derives its own
generator from the global seed and its name, so reports are byte-identical
across runs. Timings are deliberately kept out of the report payload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import chaos as chaos_mod
from . import geometry as geo_mod
from . import linalg
from . import regopen as reg_mod
from . import spectrum as spec_mod
from .boolalg import (
    BoolElem,
    Subalgebra,
    iter_partitions_of_unity,
    random_partition_blocks,
)
from .config import ModelConfig
from .model import (
    RandomVariable,
    inner_product,
    mass_inside,
    norm_sq,
    project_oracle,
    projections,
    verify_projection_laws,
    walsh_decompose,
    walsh_reconstruct,
)

GROUPS = ("laws", "chaos", "spectrum", "regopen", "geometry")

# Largest N a check runs on with the exact backend: EXACT_CAP for most checks,
# ELIMINATION_CAP for those that solve a dense N x N system and for two
# checks whose work grows with the first chaos's dimension (see chaos__classification).
EXACT_CAP = 4096
ELIMINATION_CAP = 128
# The largest N at which each of two chaos checks fits a budget of about
# 5 s CPU on fair coins. chaos.defect_zero walks all 3^k disjoint element
# pairs of a k-block subalgebra: 1.1 s at N=512, 3.1-4.1 s at N=1024 and
# 7.0 s at N=2048. chaos.split_product_equiv runs split_check against
# product_test on 10 vectors per element: 1.2 s at N=512, 3.1-3.9 s at
# N=1024, 5.4-6.0 s at N=2048 and 28 s at N=4096.
PAIRWISE_CAP = 1024
# Largest N at which a check walks the whole basis (every Walsh or point
# vector, or every pair of them); past it, it takes a seeded sample.
BASIS_LIMIT = 64
# Largest 2^n at which a check walks every element of the cell algebra;
# past it, it takes a seeded sample (_Ctx.elements).
EXHAUSTIVE_LIMIT = 16
# Finest dyadic depth of the geometry approximants.
DEPTH = 6
# Most witnesses a check reports; past them, one line counts the rest.
MAX_WITNESSES = 10


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    status: str  # pass | fail | skip
    detail: str = ""
    witnesses: tuple[str, ...] = ()


@dataclass
class Report:
    seed: int
    backend: str
    selection: str
    results: list[CheckResult] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def n_skip(self) -> int:
        return sum(1 for r in self.results if r.status == "skip")

    def exit_code(self, strict: bool = False) -> int:
        if self.n_fail:
            return 1
        if strict and self.n_skip:
            return 3
        return 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "backend": self.backend,
            "selection": self.selection,
            "checks": [
                {
                    "group": r.group,
                    "name": r.name,
                    "status": r.status,
                    "detail": r.detail,
                    "witnesses": list(r.witnesses),
                }
                for r in self.results
            ],
            "summary": {"pass": self.n_pass, "fail": self.n_fail, "skip": self.n_skip},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.status.upper():4}  {r.group}.{r.name}  {r.detail}".rstrip())
            for w in r.witnesses:
                lines.append(f"      | {w}")
        lines.append(
            f"summary: {self.n_pass} passed, {self.n_fail} failed, {self.n_skip} skipped"
        )
        return "\n".join(lines) + "\n"


class _Ctx:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.cfg.seed}:{name}")

    @cached_property
    def scale(self) -> int:
        """The grid of every regular open set this run makes: the
        embedding's, when the config has one."""
        emb = self.cfg.embedding
        return reg_mod.grid_scale() if emb is None else emb.scale

    @cached_property
    def model(self):
        # Built on first use, so a run whose model checks all skip builds none.
        return self.cfg.build_model()

    @cached_property
    def space(self):
        return spec_mod.build_spectral_space(self.model)

    @cached_property
    def chaos(self):
        return chaos_mod.first_chaos_basis(self.model)

    def exhaustive(self) -> bool:
        return (1 << self.cfg.n_cells) <= EXHAUSTIVE_LIMIT

    def elements(self, rng: random.Random, sample: int = 12) -> list[BoolElem]:
        n = self.cfg.n_cells
        if self.exhaustive():
            return [BoolElem(mask, n) for mask in range(1 << n)]
        out = [BoolElem(0, n), BoolElem((1 << n) - 1, n)]
        out.extend(BoolElem(rng.randrange(1 << n), n) for _ in range(sample))
        return out

    def whole_basis(self) -> bool:
        return self.cfg.n_points <= BASIS_LIMIT

    def spanning_family(self, rng: random.Random):
        if self.whole_basis():
            return [self.model.walsh_vector(i) for i in range(self.model.n_points)]
        fam = [self.model.walsh_vector(rng.randrange(self.model.n_points)) for _ in range(6)]
        fam.extend(self.model.random_rv(rng) for _ in range(4))
        return fam


def skip_reason(
    cfg: ModelConfig,
    *,
    exact: bool = False,
    points: int | None = None,
    cells: bool = False,
    embedding: bool = False,
) -> str | None:
    """Why a check with these needs cannot run on cfg, or None if it can.

    Reads only the config, so the answer comes before any model is built.
    `exact` asks for the exact backend; `points` caps N on the exact backend
    (the suffix names the float backend only for checks that run there too);
    `cells` asks for at least one cell; `embedding` for sample points."""
    if exact and cfg.backend != "exact":
        return "requires the exact backend"
    if points is not None and cfg.backend == "exact" and cfg.n_points > points:
        reason = f"exact backend cap exceeded (N={cfg.n_points} > {points})"
        return reason if exact else reason + "; select the float backend"
    if cells and cfg.n_cells == 0:
        return "no cells"
    if embedding and cfg.embedding is None:
        return "no embedding in config"
    return None


# Every check, in definition order: the order of the report.
_ALL_CHECKS = []


def _check(**needs):
    """Turn an assertion-style check body into a CheckResult producer that
    skips, with skip_reason(cfg, **needs), before the body runs, and append
    it to _ALL_CHECKS."""

    def decorate(fn):
        group, name = fn.__name__.split("__")

        def wrapper(ctx: _Ctx) -> CheckResult:
            reason = skip_reason(ctx.cfg, **needs)
            if reason is not None:
                return CheckResult(group, name, "skip", detail=reason)
            try:
                detail, witnesses, ok = fn(ctx)
            except Exception as exc:  # a check crash is a failure with a witness
                return CheckResult(group, name, "fail", witnesses=(repr(exc),))
            more = len(witnesses) - MAX_WITNESSES
            if more > 0:
                witnesses = (*witnesses[:MAX_WITNESSES], f"… and {more} more")
            return CheckResult(group, name, "pass" if ok else "fail", detail, tuple(witnesses))

        wrapper.__name__ = fn.__name__
        wrapper.needs = needs
        _ALL_CHECKS.append(wrapper)
        return wrapper

    return decorate


# -- laws group ---------------------------------------------------------------


@_check(points=EXACT_CAP)
def laws__projection_lattice(ctx: _Ctx):
    rng = ctx.rng("laws.lattice")
    elements = ctx.elements(rng)
    rep = verify_projection_laws(ctx.model, elements, rng)
    wit = list(rep.failures)
    if rep.strict_superadditivity_witness:
        wit.insert(0, "strict superadditivity: " + rep.strict_superadditivity_witness)
    return f"{len(elements) ** 2} pairs", wit, not rep.failures


@_check(points=EXACT_CAP)
def laws__oracle_equivalence(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("laws.oracle")
    elements = ctx.elements(rng)
    if ctx.whole_basis():
        basis = [m.from_values([1 if w == j else 0 for w in range(m.n_points)]) for j in range(m.n_points)]
    else:
        basis = [m.random_rv(rng) for _ in range(6)]
    # Each element's oracle from one partition; one vector's projections at a
    # time are compared with it until the first disagreement, reported once.
    oracle = [project_oracle(m, x, basis) for x in elements]
    agrees = [True] * len(elements)
    for j, v in enumerate(basis):
        for i, qv in enumerate(projections(m, v, elements)):
            if agrees[i] and not m.rv_eq(qv, oracle[i][j]):
                agrees[i] = False
    bad = [f"x={x}" for x, ok in zip(elements, agrees) if not ok]
    return f"{len(elements)} elements x {len(basis)} vectors", bad, not bad


@_check(points=EXACT_CAP)
def laws__tensor_basis(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("laws.tensor")
    masks = m.support_masks
    if ctx.whole_basis():
        pairs = [
            (i, j)
            for i in range(m.n_points)
            for j in range(m.n_points)
            if masks[i] & masks[j] == 0
        ]
    else:
        pairs = []
        while len(pairs) < 60:
            i = rng.randrange(m.n_points)
            j = rng.randrange(m.n_points)
            if masks[i] & masks[j] == 0:
                pairs.append((i, j))
    needed = {k for i, j in pairs for k in (i, j, i + j)}
    vectors = {k: m.walsh_vector(k) for k in needed}
    bad = []
    for i, j in pairs:
        prod = vectors[i] * vectors[j]
        if not m.rv_eq(prod, vectors[i + j]):
            bad.append(f"product fails at {i},{j}")
        if not m.eq(norm_sq(m, prod), m.basis_norms[i] * m.basis_norms[j]):
            bad.append(f"norm product fails at {i},{j}")
    return f"{len(pairs)} disjoint-support pairs", bad, not bad


@_check(points=EXACT_CAP)
def laws__walsh_roundtrip(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("laws.roundtrip")
    probes = [m.random_rv(rng) for _ in range(4)]
    if ctx.whole_basis():
        probes.extend(m.walsh_vector(i) for i in range(m.n_points))
    bad = []
    for i, v in enumerate(probes):
        if not m.rv_eq(walsh_reconstruct(m, walsh_decompose(m, v)), v):
            bad.append(f"roundtrip fails on probe {i}")
    return f"{len(probes)} vectors", bad, not bad


# -- chaos group --------------------------------------------------------------


@_check(exact=True, points=PAIRWISE_CAP)
def chaos__split_product_equiv(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("chaos.splitprod")
    family = ctx.spanning_family(rng)
    xs = ctx.elements(rng, sample=6)
    coeffs = [walsh_decompose(m, psi) for psi in family]
    bad = []
    for x, products in zip(xs, chaos_mod.product_test(m, family, xs)):
        for k, (c, product) in enumerate(zip(coeffs, products)):
            if chaos_mod.split_check(m, c, x) != product:
                bad.append(f"x={x} vector {k}")
    return f"{len(family)} vectors per element", bad, not bad


@_check(exact=True, points=ELIMINATION_CAP)
def chaos__split_space(ctx: _Ctx):
    m = ctx.model
    xs = ctx.elements(ctx.rng("chaos.splitspace"), sample=6)
    # I - K_x - K_x' is one system for x and ~x: solve once per pair.
    agrees: dict[int, bool] = {}
    bad = []
    for x in xs:
        pair = min(x.mask, x.complement().mask)
        if pair not in agrees:
            space = chaos_mod.split_solution_space(m, x)
            expected = chaos_mod._split_span_rows(m, x)
            agrees[pair] = linalg.span_equal([list(v.values) for v in space], expected)
        if not agrees[pair]:
            bad.append(f"x={x}")
    scope = "all elements" if ctx.exhaustive() else f"{len(xs)} sampled elements"
    return f"solution space vs basis span, {scope}", bad, not bad


@_check(exact=True, points=ELIMINATION_CAP)
def chaos__first_chaos(ctx: _Ctx):
    m = ctx.model
    # The oracle: the additivity system, solved once, here.
    solution = linalg.nullspace(chaos_mod._additivity_rows(m), m.n_points)
    expected = sum(k - 1 for k in m.radices)
    bad = []
    if len(solution) != expected:
        bad.append(f"dimension {len(solution)} != {expected}")
    if not linalg.span_equal(solution, [list(v.values) for v in ctx.chaos]):
        bad.append("span differs from the single-cell Walsh directions")
    # The pairwise definition on every solution vector, over the finest subalgebra.
    finest = Subalgebra(m.n_cells, tuple(BoolElem(1 << i, m.n_cells) for i in range(m.n_cells)))
    for i, row in enumerate(solution):
        if not chaos_mod.satisfies_additivity(m, RandomVariable(tuple(row)), finest):
            bad.append(f"pairwise additivity fails on solution vector {i}")
    return f"dimension {len(solution)}", bad, not bad


# Both eliminate nothing, but their work grows with the first chaos's dimension:
# additive_norm took 18 s CPU on one fair cell with k=256 (dimension 255).
@_check(exact=True, points=ELIMINATION_CAP)
def chaos__classification(ctx: _Ctx):
    m = ctx.model
    kind = chaos_mod.classify(m, ctx.chaos)
    if m.n_cells == 0:
        return "degenerate zero-cell model", (f"kind={kind.value} (flagged degenerate)",), True
    ok = kind is chaos_mod.Classification.CLASSICAL
    return f"kind={kind.value}, dim={len(ctx.chaos)}", [] if ok else [f"kind={kind.value}"], ok


@_check(exact=True, points=ELIMINATION_CAP)
def chaos__additive_norm(ctx: _Ctx):
    m = ctx.model
    fc = ctx.chaos
    rng = ctx.rng("chaos.addnorm")
    probes = list(fc)
    if fc:
        combo = m.constant(0)
        for v in fc:
            combo = combo + v.scale(Fraction(rng.randint(-3, 3)))
        probes.append(combo)
    bad = []
    for psi in probes:
        pairs = [
            (x, y)
            for x in ctx.elements(rng, sample=5)
            for y in ctx.elements(rng, sample=5)
            if x.mask & y.mask == 0
        ]
        # The distinct cell sets of the pairs and their joins, conditioned on at once.
        xs = list({e.mask: e for x, y in pairs for e in (x, y, x.join(y))}.values())
        norms = {x.mask: norm_sq(m, q) for x, q in zip(xs, projections(m, psi, xs))}
        for x, y in pairs:
            if norms[x.mask | y.mask] != norms[x.mask] + norms[y.mask]:
                bad.append(f"x={x} y={y}")
    return f"{len(probes)} first-chaos vectors", bad, not bad


@_check(exact=True, points=PAIRWISE_CAP, cells=True)
def chaos__defect_zero(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("chaos.defectzero")
    bad = []
    zero_cases = 0
    for trial in range(30):
        blocks = random_partition_blocks(rng, m.n_cells)
        sub = Subalgebra(m.n_cells, tuple(blocks))
        if trial % 3 == 0:
            seed_rv = m.constant(rng.randint(-3, 3))  # collapses to zero
        else:
            seed_rv = m.random_rv(rng)
        psi = chaos_mod.additive_vector(m, sub, seed_rv)
        # The pairwise definition against the shared block criterion (0 is additive).
        if not psi.is_zero() and not chaos_mod.satisfies_additivity(m, psi, sub):
            bad.append(f"b={blocks}: additive_vector output is not additive")
        cert = chaos_mod.atomless_defect(m, psi, sub)
        if cert.delta_sq == 0:
            zero_cases += 1
            if not psi.is_zero():
                bad.append("zero defect with nonzero vector")
    return f"30 additive vectors ({zero_cases} with zero defect)", bad, not bad


@_check(exact=True, points=EXACT_CAP, cells=True)
def chaos__defect_bound(ctx: _Ctx):
    m = ctx.model
    rng = ctx.rng("chaos.defectbound")
    bad = []
    for _ in range(25):
        blocks = random_partition_blocks(rng, m.n_cells)
        sub = Subalgebra(m.n_cells, tuple(blocks))
        psi = chaos_mod.additive_vector(m, sub, m.random_rv(rng))
        x = BoolElem(rng.randrange(1 << m.n_cells), m.n_cells)
        cert = chaos_mod.atomless_defect(m, psi, sub)
        # delta^2 is the largest |Q_b psi|^2 over the blocks, read here in point space.
        block_norm = max(norm_sq(m, q) for q in projections(m, psi, sub.blocks))
        if cert.delta_sq != block_norm:
            bad.append(f"b={blocks}: delta^2={cert.delta_sq} != largest block norm {block_norm}")
        if len(blocks) <= 5:
            # delta^2 is the least largest part-mass over all partitions of unity.
            least = min(
                max(mass_inside(m, cert.coeffs, part) for part in partition)
                for partition in iter_partitions_of_unity(sub)
            )
            if cert.delta_sq != least:
                bad.append(f"b={blocks}: delta^2={cert.delta_sq} != least part-mass {least}")
        (rep,) = chaos_mod.defect_bound_check(m, cert, [x])
        if not rep.passed:
            bad.append(f"x={x} sigma={rep.sigma_max} delta={cert.delta}")
    return "25 randomized (psi, b, x) cases", bad, not bad


# -- spectrum group -----------------------------------------------------------


@_check(points=EXACT_CAP)
def spectrum__spectral_sets(ctx: _Ctx):
    space = ctx.space
    rng = ctx.rng("spectrum.sets")
    elements = ctx.elements(rng)
    sets = [spec_mod.spectral_set(space, x) for x in elements]
    bad = []
    strict = None
    for x, sx in zip(elements, sets):
        for y, sy in zip(elements, sets):
            if sx & sy != spec_mod.spectral_set(space, x.meet(y)):
                bad.append(f"meet identity fails at {x},{y}")
            sj = spec_mod.spectral_set(space, x.join(y))
            if not sx | sy <= sj:
                bad.append(f"join inclusion fails at {x},{y}")
            elif strict is None and sx | sy < sj:
                strict = f"x={x} y={y}: union misses {len(sj - (sx | sy))} atoms"
    # The spectral filter {x : s in S_x} of each atom s is its principal
    # filter; the filter law then follows from the meet identity.
    for atom in ctx.elements(ctx.rng("spectrum.filter")):
        for x, sx in zip(elements, sets):
            if (atom.mask in sx) != atom.le(x):
                bad.append(f"spectral filter of atom {atom} differs from its up-set at {x}")
    wit = [f"strict inclusion: {strict}"] if strict else []
    return f"{len(elements)}^2 pairs", wit + bad, not bad


@_check(points=EXACT_CAP)
def spectrum__projection_measure(ctx: _Ctx):
    m = ctx.model
    space = ctx.space
    rng = ctx.rng("spectrum.measure")
    bad = []
    for _ in range(20):
        psi = m.random_rv(rng)
        masses = spec_mod.spectral_measure(m, psi)
        xs = ctx.elements(rng, sample=6)
        # The point side: norms of conditionals synthesized from a second,
        # separate analysis of psi, never from the masses.
        for x, q in zip(xs, projections(m, psi, xs)):
            mass = sum(
                (masses[a] for a in sorted(spec_mod.spectral_set(space, x))),
                m._num(Fraction(0)),
            )
            if not m.eq(mass, norm_sq(m, q)):
                bad.append(f"mass mismatch at x={x}")
    return "20 random vectors", bad, not bad


@_check(exact=True, points=EXACT_CAP)
def spectrum__event_subspaces(ctx: _Ctx):
    m = ctx.model
    space = ctx.space
    rng = ctx.rng("spectrum.events")
    atoms = range(len(space.dims))
    bad = []
    for _ in range(10):
        e1 = frozenset(a for a in atoms if rng.random() < 0.5)
        e2 = frozenset(a for a in atoms if rng.random() < 0.5)
        h1 = spec_mod.subspace_of_event(space, e1)
        h2 = spec_mod.subspace_of_event(space, e2)
        inter = spec_mod.subspace_of_event(space, e1 & e2)
        union = spec_mod.subspace_of_event(space, e1 | e2)
        if set(inter) != set(h1) & set(h2):
            bad.append("intersection identity fails")
        if set(union) != set(h1) | set(h2):
            bad.append("union identity fails")
        if not (e1 & e2):
            right = [m.walsh_vector(j) for j in h2[:6]]
            for i in h1[:6]:
                ei = m.walsh_vector(i)
                for ej in right:
                    if not m.eq(inner_product(m, ei, ej), 0):
                        bad.append("disjoint events not orthogonal")
    if ctx.whole_basis():
        basis = [m.walsh_vector(i) for i in range(m.n_points)]
        xs = ctx.elements(rng, sample=4)
        images = [projections(m, e, xs) for e in basis]
        for k, x in enumerate(xs):
            hx = spec_mod.subspace_of_event(space, spec_mod.spectral_set(space, x))
            image_rows = [list(qe[k].values) for qe in images]
            basis_rows = [list(basis[i].values) for i in hx]
            if not linalg.span_equal([r for r in image_rows if any(r)], basis_rows):
                bad.append(f"H(S_x) != range of projection at x={x}")
    return "10 random event pairs", bad, not bad


@_check(points=EXACT_CAP)
def spectrum__sigma_lattice(ctx: _Ctx):
    space = ctx.space
    rng = ctx.rng("spectrum.sigma")
    elements = ctx.elements(rng, sample=8)
    bad = []
    for x in elements:
        px = spec_mod.sigma_x(space, x)
        if spec_mod.sigma_x_generated(space, x) != px:
            bad.append(f"generated partition differs from trace partition at {x}")
        block_of = {a: b1 for b1 in px for a in b1}
        for y in elements:
            if x.le(y):
                # Coarser element gives coarser partition: every finer block
                # sits inside the coarser block of any one of its atoms.
                for b2 in spec_mod.sigma_x(space, y):
                    if not b2 <= block_of[min(b2)]:
                        bad.append(f"monotonicity fails at {x} <= {y}")
            if not spec_mod.verify_sigma_join(space, x, y):
                bad.append(f"join fails at {x},{y}")
    return f"{len(elements)}^2 pairs", bad, not bad


@_check(points=EXACT_CAP)
def spectrum__independence(ctx: _Ctx):
    space = ctx.space
    rng = ctx.rng("spectrum.indep")
    elements = ctx.elements(rng, sample=8)
    bad = []
    # The canonical measure is a product: each cell subset's multiplicity
    # factors over its cells (a missing subset has 0, below every product).
    subsets = (BoolElem(a, space.n).indices() for a in range(1 << space.n))
    factored = tuple(math.prod(space.model.radices[i] - 1 for i in s) for s in subsets)
    if space.dims != factored:
        bad.append("support multiplicity does not factor over cells")
    for x in elements:
        if not spec_mod.verify_independence(space, x, x.complement()):
            bad.append(f"complement independence fails at {x}")
        for y in elements:
            if x.disjoint(y) and not spec_mod.verify_independence(space, x, y):
                bad.append(f"independence fails at {x},{y}")
    return "all sampled disjoint pairs", bad, not bad


@_check(points=EXACT_CAP)
def spectrum__atom_block(ctx: _Ctx):
    space = ctx.space
    bad = []
    for x in ctx.elements(ctx.rng("spectrum.atom"), sample=10):
        if spec_mod.spectral_set(space, ~x) not in spec_mod.sigma_x(space, x):
            bad.append(f"x={x}")
    return "complement spectral set is one block", bad, not bad


@_check(exact=True, points=EXACT_CAP)
def spectrum__measure_class(ctx: _Ctx):
    m = ctx.model
    space = ctx.space
    generic = walsh_reconstruct(m, [Fraction(1)] * m.n_points)
    masses = spec_mod.spectral_measure(m, generic)
    ok = spec_mod.mutually_absolutely_continuous(masses, space.measure)
    concentrated = spec_mod.spectral_measure(m, m.constant(1))
    negative = (
        spec_mod.mutually_absolutely_continuous(concentrated, space.measure)
        if m.n_cells > 0
        else False
    )
    bad = []
    if not ok:
        bad.append("generic vector measure not equivalent to the canonical one")
    if negative:
        bad.append("concentrated measure wrongly declared equivalent")
    return "canonical class uniqueness", bad, not bad


# -- regopen group ------------------------------------------------------------


@_check()
def regopen__laws(ctx: _Ctx):
    rep = reg_mod.verify_reg_laws(ctx.rng("regopen.laws"), ctx.scale)
    strict = rep.join_strict_witnesses + rep.meet_strict_witnesses
    wit = [f"strict inclusion: {w}" for w in strict] + list(rep.failures)
    return f"{rep.checked} pairs", wit, not rep.failures


@_check()
def regopen__finite_spaces(ctx: _Ctx):
    """The brute-force twin on three small spaces, then against the interval
    on its dyadic quotients. At depth 2 the 16 cell unions map one-to-one
    onto the quotient's regular opens, a Boolean algebra, and every
    operation follows the map, so every associative, distributive, De Morgan
    and absorption law holds on them."""
    bad = []
    sier = reg_mod.FiniteSpace(
        points=("a", "b"),
        opens=frozenset({frozenset(), frozenset({"a"}), frozenset({"a", "b"})}),
    )
    elems = reg_mod.finite_space_regopen(sier)
    if [sorted(e) for e in elems] != [[], ["a", "b"]]:
        bad.append("Sierpinski regulars wrong")
    bad.extend(sier.verify_laws(elems))

    disc = reg_mod.FiniteSpace(
        points=(0, 1, 2),
        opens=frozenset(
            frozenset(s) for s in [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]
        ),
    )
    elems = reg_mod.finite_space_regopen(disc)
    if len(elems) != 8:
        bad.append("discrete space should have all subsets regular")
    bad.extend(disc.verify_laws(elems))

    indis = reg_mod.FiniteSpace(
        points=(0, 1), opens=frozenset({frozenset(), frozenset({0, 1})})
    )
    if len(reg_mod.finite_space_regopen(indis)) != 2:
        bad.append("indiscrete space should have trivial regulars")

    for depth in (1, 2):
        space, cells = reg_mod.dyadic_quotient_space(depth)
        interval_elems = reg_mod.dyadic_cell_unions(depth, ctx.scale)
        images = {r: reg_mod.regopen_to_quotient(r, depth, cells) for r in interval_elems}
        if set(images.values()) != set(reg_mod.finite_space_regopen(space)):
            bad.append(f"quotient depth {depth}: element sets differ")

        def law(name: str, result: reg_mod.RegOpen, expected: frozenset, *operands) -> None:
            # A result with no image is no canonical cell union.
            image = images.get(result)
            if image != expected:
                at = " ".join(f"{v}={x}" for v, x in zip("rs", operands))
                why = "differs" if image is not None else f"is no cell union: {result}"
                bad.append(f"quotient depth {depth}: {name} at {at} {why}")

        for r in interval_elems:
            for s in interval_elems:
                law("meet", r & s, images[r] & images[s], r, s)
                law("join", r | s, space.join(images[r], images[s]), r, s)
            law("complement", ~r, space.complement(images[r]), r)
    return "Sierpinski, discrete, indiscrete, dyadic quotients", bad, not bad


# -- geometry group -----------------------------------------------------------


@_check(embedding=True)
def geometry__homomorphism(ctx: _Ctx):
    emb = ctx.cfg.embedding
    rng = ctx.rng("geometry.hom")

    # Ticks name an element on ctx.scale: each distinct one is evaluated once.
    images = {}

    def h(a):
        image = images.get(a.ticks)
        if image is None:
            image = images[a.ticks] = geo_mod.sample_hom(emb, a)
        return image

    grid = reg_mod.dyadic_grid_regopens(3, ctx.scale)
    drawn = [
        reg_mod.random_regopen(rng, ctx.scale, denominators=reg_mod.DYADIC_POOL) for _ in range(2000)
    ]
    pairs = [(x, y) for x in grid for y in grid] + list(zip(drawn[::2], drawn[1::2]))
    bad = []
    for a, b in pairs:
        if h(a & b) != h(a) & h(b):
            bad.append(f"meet at {a},{b}")
        if h(a | b) != h(a) | h(b):
            bad.append(f"join at {a},{b}")
    # Once per element: each grid element and the first of each random pair.
    for a in grid + drawn[::2]:
        if h(~a) != ~h(a):
            bad.append(f"complement at {a}")
    return f"{len(pairs)} pairs", bad, not bad


@_check(embedding=True)
def geometry__spectral_identity(ctx: _Ctx):
    emb = ctx.cfg.embedding
    bad = []
    atoms = ctx.elements(ctx.rng("geometry.uniqueness"))
    if not geo_mod.verify_spectral_map_uniqueness(emb, 4, atoms):
        bad.append("closed-set approximant differs from its definition")
    count = 0
    for a in reg_mod.dyadic_grid_regopens(DEPTH, ctx.scale):
        count += 1
        if not geo_mod.verify_spectral_set_identity(emb, a):
            bad.append(f"identity fails at {a}")
    rng = ctx.rng("geometry.identity")
    dyads = tuple(1 << d for d in range(1, DEPTH + 1))
    for _ in range(60):
        a = reg_mod.random_regopen(rng, ctx.scale, denominators=dyads)
        count += 1
        if not geo_mod.verify_spectral_set_identity(emb, a):
            bad.append(f"identity fails at {a}")
    return f"{count} dyadic elements, depth {DEPTH}", bad, not bad


@_check(embedding=True)
def geometry__approximant(ctx: _Ctx):
    emb = ctx.cfg.embedding
    atoms = ctx.elements(ctx.rng("geometry.approximant"))
    bad = []
    for atom in atoms:
        for d in range(1, DEPTH + 1):
            res = geo_mod.spectral_set_map(emb, atom, depth=d)
            missed = atom & ~geo_mod.closure_cells(emb, res.cover)
            bad.extend(
                f"point {emb.sample_points[i]} escapes the depth-{d} cover" for i in missed.indices()
            )
            if res.hausdorff_distance >= Fraction(1, 1 << d):
                bad.append(f"Hausdorff bound broken at atom {atom}, depth {d}")
    scope = "all atoms" if ctx.exhaustive() else f"{len(atoms)} sampled atoms"
    return f"{scope}, depths 1..{DEPTH}", bad, not bad


@_check(embedding=True)
def geometry__shrink_chains(ctx: _Ctx):
    emb = ctx.cfg.embedding
    bad = []
    family = reg_mod.dyadic_grid_regopens(3, ctx.scale)
    rng = ctx.rng("geometry.shrink")
    family += [
        reg_mod.random_regopen(rng, ctx.scale, denominators=reg_mod.DYADIC_POOL) for _ in range(40)
    ]
    for a in family:
        if a.is_empty:
            continue
        if not geo_mod.verify_shrink_chain(emb, a):
            bad.append(f"shrink chain fails inside {a}")
    return f"{len(family)} dyadic elements", bad, not bad


@_check(embedding=True)
def geometry__monotone_limit(ctx: _Ctx):
    emb = ctx.cfg.embedding
    bad = []
    chain = [reg_mod.make_regopen([(0, 1 - Fraction(1, 1 << n))], ctx.scale) for n in range(1, 9)]
    if not geo_mod.monotone_limit_check(emb, chain):
        bad.append("growing chain equivalence fails")
    if not geo_mod.chain_sup(emb, chain).is_one:
        bad.append("growing chain does not reach the full set")
    half = [reg_mod.make_regopen([(0, Fraction(1, 2))], ctx.scale)] * 4
    if not geo_mod.monotone_limit_check(emb, half):
        bad.append("constant chain equivalence fails")
    rng = ctx.rng("geometry.chain")
    for _ in range(25):
        acc = reg_mod.make_regopen((), ctx.scale)
        rand_chain = []
        for _ in range(rng.randint(1, 6)):
            acc = acc | reg_mod.random_regopen(rng, ctx.scale, denominators=reg_mod.DYADIC_POOL)
            rand_chain.append(acc)
        if not geo_mod.monotone_limit_check(emb, rand_chain):
            bad.append("random chain equivalence fails")
    return "structured + 25 random chains", bad, not bad


@_check(cells=True, embedding=True)
def geometry__boundary_dichotomy(ctx: _Ctx):
    emb = ctx.cfg.embedding
    rng = ctx.rng("geometry.dichotomy")
    holds = misses = 0
    bad = []
    for k in range(1000):
        if k % 5 == 0:
            # Force some boundaries straight onto sample points.
            t = rng.choice(emb.sample_points)
            other = Fraction(rng.randint(0, 16), 16)
            lo, hi = min(t, other), max(t, other)
            r = reg_mod.make_regopen([(lo, hi)] if lo < hi else [], ctx.scale)
        else:
            r = reg_mod.random_regopen(rng, ctx.scale)
        rep = geo_mod.boundary_dichotomy(emb, r)
        if not rep.inner.disjoint(rep.outer):
            bad.append(f"case {k}: inner approximations of r and its complement overlap")
            continue
        if rep.holds != (not rep.boundary_hits):
            bad.append(f"case {k}: boundary dichotomy equivalence violated")
            continue
        holds += rep.holds
        misses += not rep.holds
    return f"1000 cases ({holds} clear, {misses} boundary-hitting)", bad, not bad


def run_verification_suite(cfg: ModelConfig, selection: str = "all") -> Report:
    if selection not in GROUPS + ("all",):
        raise ValueError(f"unknown selection {selection!r}")
    ctx = _Ctx(cfg)
    report = Report(seed=cfg.seed, backend=cfg.backend, selection=selection)
    for check in _ALL_CHECKS:
        group = check.__name__.split("__")[0]
        if selection != "all" and group != selection:
            continue
        report.results.append(check(ctx))
    return report

