"""The fault matrix: each row plants one fault in the library and names,
per config, exactly the suite checks that fail with it, together with lines
the text report must then contain. A config a row names with no checks must
pass the row's groups, so the table also records where a fault goes unseen.
Every suite check is failed by at least one row."""

import copy
import dataclasses
import functools
import itertools
import operator
from fractions import Fraction
from typing import NamedTuple

import pytest

from noise_lab import chaos as chaos_mod
from noise_lab import geometry as geo_mod
from noise_lab import model as model_mod
from noise_lab import spectrum as spec_mod
from noise_lab.boolalg import BoolElem
from noise_lab.config import load_model_config
from noise_lab.geometry import BoundaryDichotomyReport as Dichotomy
from noise_lab.regopen import RegOpen
from noise_lab.suite import _ALL_CHECKS, GROUPS, run_verification_suite

from conftest import CONFIGS

EXACT = ("two-coins", "four-coins", "mixed-233-exact")
FLOAT = ("five-ternary-float",)
NON_UNIFORM = ("mixed-233-exact", "five-ternary-float")
# The regopen group reads no model, and every config here has the same grid.
TWO = ("two-coins",)
W = "      | "  # a witness line of the text report

# The originals the faults call, taken before any is planted.
masked_coeffs = model_mod.masked_coeffs
mass_inside = model_mod.mass_inside
project_oracle = model_mod.project_oracle
split_check = chaos_mod.split_check
atomless_defect = chaos_mod.atomless_defect
sigma_field_generated = chaos_mod.sigma_field_generated
build_spectral_space = spec_mod.build_spectral_space
spectral_set = spec_mod.spectral_set
sigma_x = spec_mod.sigma_x
subspace_of_event = spec_mod.subspace_of_event
meet, join, complement, le = RegOpen.meet, RegOpen.join, RegOpen.complement, RegOpen.le
sample_hom = geo_mod.sample_hom
grid_cover = geo_mod._grid_cover


# -- faults longer than a lambda ------------------------------------------------


def drop_last_inside(model, coeffs, x):
    kept = masked_coeffs(model, coeffs, x)
    last = max(i for i, s in enumerate(model.support_masks) if s & ~x.mask == 0)
    kept[last] = model._num(0)
    return kept


def p0_counted_twice(probs):
    # model._cell_basis with P(S_j) = 2 p_0 + p_j + ... + p_{k-1}.
    k, one = len(probs), Fraction(1)
    vectors, norms = [(one,) * k], [one]
    for j in range(1, k):
        mass = sum(probs[j:], 2 * probs[0])
        c = probs[j] / mass
        vectors.append(tuple((o == j) - c * (o == 0 or o >= j) for o in range(k)))
        norms.append(probs[j] * (mass - probs[j]) / mass)
    return tuple(vectors), tuple(norms)


def unweighted(model, f, g):
    # Every point weighs 1/N: right exactly when the cells are uniform.
    return sum(a * b for a, b in zip(f.values, g.values)) / model.n_points


def unweighted_oracle(model, x, fs):
    # Every point of a block weighs the same: right exactly when the cells are uniform.
    uniform = copy.copy(model)
    uniform.point_weights = (model._num(1),) * model.n_points
    return project_oracle(uniform, x, fs)


def unscaled_dead_cells(model, coeffs):
    # _synthesize without the dead cells' column-0 scale.
    masks = model.support_masks
    live = functools.reduce(operator.or_, itertools.compress(masks, coeffs), 0)
    axes = [i for i in range(model.n_cells) if live >> i & 1]
    sub = model_mod._apply_per_cell(
        [c for c, s in zip(coeffs, masks) if not s & ~live],
        [model.radices[i] for i in axes],
        [model._synthesis[i] for i in axes],
    )
    return model_mod._broadcast(model, sub, live)


def two_cell_direction(model):
    # Cell 1's direction replaced by the two-cell e_(1,1): right dimension, wrong span.
    single, two_cell = ([i for i, s in enumerate(model.support_masks) if s == m] for m in (0b01, 0b11))
    return tuple(model.walsh_vector(i) for i in single + two_cell)


def without_cell(dropped):
    def rows(model):
        cells = [BoolElem(1 << i, model.n_cells) for i in range(model.n_cells) if i != dropped]
        return [list(model.point_weights), *chaos_mod._averaging_rows(model, cells)]

    return rows


def inflated_defect(model, psi, b):
    # A larger delta only loosens the moment bound: the partitions catch it.
    cert = atomless_defect(model, psi, b)
    return dataclasses.replace(cert, delta_sq=cert.delta_sq + Fraction(1, 7))


def x_side_only(model, x):
    masks = model.support_masks
    return [list(model.walsh_vector(i).values) for i, m in enumerate(masks) if m and m & ~x.mask == 0]


def first_two_blocks_merged(model, vectors):
    blocks = sigma_field_generated(model, vectors)
    return (blocks[0] + blocks[1], *blocks[2:]) if len(blocks) > 1 else blocks


def wrong_multiplicity(model):
    space = build_spectral_space(model)
    return dataclasses.replace(space, dims=(space.dims[0] + 1, *space.dims[1:]))


def trace_zero_merged(space, x):
    # The trace-0 block holds atom 0, so it sorts first.
    blocks = sorted(sigma_x(space, x), key=min)
    return frozenset([blocks[0] | blocks[1], *blocks[2:]]) if len(blocks) > 1 else frozenset(blocks)


def join_without_fusing(self, other):
    merged = []
    for a, b in sorted(self.ticks + other.ticks):
        if merged and a < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return RegOpen(tuple(merged), self.scale)


def drop_last_piece(r):
    return RegOpen(r.ticks[:-1], r.scale)


def complement_without_right_edge(self):
    c = complement(self)
    return drop_last_piece(c) if c.ticks and c.ticks[-1][1] == c.scale else c


def meet_wrong_when_reversed(self, other):
    m = meet(self, other)
    return drop_last_piece(m) if self.ticks > other.ticks else m


def meet_split_in_two(self, other):
    m = meet(self, other)
    if not m.ticks:
        return m
    (a, b), rest = m.ticks[0], m.ticks[1:]
    return RegOpen(((a, (a + b) // 2), ((a + b) // 2, b)) + rest, m.scale)


def cover_without_last_cell(targets, scale, depth):
    r = grid_cover(targets, scale, depth)
    if not r.ticks:
        return r
    a, b = r.ticks[-1]
    b -= scale >> depth
    return RegOpen(r.ticks[:-1] + (((a, b),) if a < b else ()), scale)


# -- the table -----------------------------------------------------------------


def plant(fault, *targets):
    """The fault at each target, an attribute path under noise_lab. A
    function that suite imports by name is a target twice, and so is a
    RegOpen operation with its operator alias."""
    return dict.fromkeys(targets, fault)


def on(configs, checks=""):
    """The same failing checks, "group.name" separated by spaces, on each config."""
    return dict.fromkeys(configs, frozenset(checks.split()))


class Row(NamedTuple):
    patches: dict  # target -> fault
    fails: dict  # config -> the checks that fail there; the configs the row runs on
    lines: dict = {}  # config -> text the report must contain, as whole consecutive lines

    @property
    def groups(self) -> list:
        """The check groups run with the faults in place: those of the checks the row names."""
        named = {check.split(".")[0] for checks in self.fails.values() for check in checks}
        return [group for group in GROUPS if group in named]


MASS_INSIDE = ("model.mass_inside", "suite.mass_inside", "chaos.mass_inside")
MEET = ("regopen.RegOpen.meet", "regopen.RegOpen.__and__")
JOIN = ("regopen.RegOpen.join", "regopen.RegOpen.__or__")
COMPLEMENT = ("regopen.RegOpen.complement", "regopen.RegOpen.__invert__")
LAWS = "laws.oracle_equivalence laws.projection_lattice"
POINT_SIDES = "laws.oracle_equivalence spectrum.projection_measure"
ADDITIVITY = "chaos.first_chaos chaos.additive_norm chaos.defect_zero"
BASIS_LAWS = f"{LAWS} laws.tensor_basis laws.walsh_roundtrip"
BASIS_SPECTRUM = "spectrum.projection_measure spectrum.event_subspaces spectrum.measure_class"
TOP = "spectrum.spectral_sets spectrum.projection_measure spectrum.atom_block"
SIGMA = "spectrum.sigma_lattice spectrum.atom_block"
REG = "regopen.laws regopen.finite_spaces"
FIRST_PIECE = "geometry.homomorphism geometry.spectral_identity geometry.shrink_chains"
SPAN = W + "span differs from the single-cell Walsh directions"
MEASURE = f"FAIL  spectrum.projection_measure  20 random vectors\n{W}mass mismatch at x={{}}"
AND_AT = W + "meet is not the cell AND: r=RegOpen((0,1/8)) s=RegOpen((0,1/4))"
# Every witness shown for three faults, in report order: the blocks whose
# additive_vector output fails the pairwise definition, and the largest
# block norms, each equal to the least part-mass, which the inflated
# certificates exceed by 1/7.
NOT_ADDITIVE = ("{0,1,2}, {3}", "{0,2,3}, {1}", "{0}, {1}, {2}, {3}", "{0}, {1,2}, {3}", "{0,2}, {1,3}")
NOT_ADDITIVE += ("{0,1}, {2,3}", "{0,2,3}, {1}", "{0,1,3}, {2}", "{0,1,3}, {2}", "{0,2,3}, {1}")
PART_MASS = (
    ("{0,1,2,3}", "50527/9216"), ("{0,3}, {1,2}", "362707/230400"), ("{0,1}, {2}, {3}", "6889/36864"),
    ("{0,1,2,3}", "92429/11520"), ("{0}, {1,2,3}", "1180109/307200"),
)
ESCAPES = [*itertools.product(("1/5", "1/3"), range(1, 7))][:10]  # sample points, depths

ROWS = {
    # Every Q_x = I: a point side read off the spectral side would still agree.
    "masked_coeffs keeps every coefficient": Row(
        plant(lambda m, coeffs, x: list(coeffs), "model.masked_coeffs"),
        {
            **on(EXACT, f"{POINT_SIDES} {ADDITIVITY} chaos.defect_bound spectrum.event_subspaces"),
            **on(FLOAT, POINT_SIDES),
        },
        {
            "mixed-233-exact": (
                f"FAIL  laws.oracle_equivalence  8 elements x 18 vectors\n{W}x={{}}",
                f"FAIL  chaos.additive_norm  6 first-chaos vectors\n{W}x={{}} y={{}}",
                MEASURE,
            ),
            "five-ternary-float": (MEASURE,),
        },
    ),
    # A mask that grows with x passes the law on comparable pairs (x or y = 0
    # on exhaustive runs, x = 1 on sampled ones); only incomparable pairs see it.
    "masked_coeffs keeps the supports that meet x": Row(
        plant(
            lambda m, cs, x: [c if s & x.mask else m._num(0) for c, s in zip(cs, m.support_masks)],
            "model.masked_coeffs",
        ),
        on(CONFIGS, LAWS),
        {
            "four-coins": (
                "FAIL  laws.projection_lattice  256 pairs\n"
                f"{W}strict superadditivity: x={{0}} y={{1}}: 170569/921600+380689/921600 < 1083569/307200\n"
                f"{W}composition (full application) fails at x={{0}} y={{1}}",
                f"{W}… and 3 more\nFAIL  laws.oracle_equivalence  16 elements x 16 vectors",
            ),
            "mixed-233-exact": (W + "composition (full application) fails at x={0} y={1}",),
            "five-ternary-float": (W + "composition (full application) fails at x={0,2} y={4}",),
        },
    ),
    # Where x meet y = 0 both sides of Q_x Q_y f = Q_{x meet y} f vanish on the
    # zero-mean probe, so only an incomparable pair with a nonzero meet sees
    # the next two; two cells have none.
    "masked_coeffs doubles what it keeps": Row(
        plant(lambda m, coeffs, x: [c * 2 for c in masked_coeffs(m, coeffs, x)], "model.masked_coeffs"),
        {**on(CONFIGS, LAWS), **on(TWO, "laws.oracle_equivalence")},
    ),
    "masked_coeffs drops the last support inside x": Row(
        plant(drop_last_inside, "model.masked_coeffs"),
        {**on(CONFIGS, LAWS), **on(TWO, "laws.oracle_equivalence")},
    ),
    "mass_inside ignores x": Row(
        plant(lambda m, c, x: mass_inside(m, c, ~BoolElem(0, x.n)), *MASS_INSIDE),
        on(CONFIGS, "laws.projection_lattice"),
    ),
    # Superadditivity and the partition brute force compare masses that all
    # double; the point-space block norms of chaos.defect_bound do not.
    "mass_inside doubled": Row(
        plant(lambda m, c, x: 2 * mass_inside(m, c, x), *MASS_INSIDE),
        {**on(FLOAT), **on(EXACT, "chaos.defect_bound")},
        {"four-coins": (W + "b=[{0,1,2,3}]: delta^2=50527/4608 != largest block norm 50527/9216",)},
    ),
    # The cell basis is neither orthogonal nor normed as its tables say.
    "p_0 counted twice in P(S_j)": Row(
        plant(p0_counted_twice, "model._cell_basis"),
        {
            **on(EXACT, f"{BASIS_LAWS} {ADDITIVITY} chaos.split_space chaos.defect_bound {BASIS_SPECTRUM}"),
            **on(FLOAT, f"{BASIS_LAWS} spectrum.projection_measure"),
        },
    ),
    "sigma_field_of returns singletons": Row(
        plant(lambda m, x: tuple((w,) for w in range(m.n_points)), "model.sigma_field_of"),
        on(CONFIGS, "laws.oracle_equivalence"),
    ),
    "inner_product ignores the weights": Row(
        plant(unweighted, "model.inner_product", "suite.inner_product"),
        {**on(CONFIGS), **on(NON_UNIFORM, "laws.tensor_basis")},
    ),
    "project returns f": Row(
        plant(lambda m, x, f: f, "model.project"), on(CONFIGS, "laws.projection_lattice")
    ),
    "project_oracle averages without the weights": Row(
        plant(unweighted_oracle, "model.project_oracle", "suite.project_oracle"),
        {**on(CONFIGS), **on(NON_UNIFORM, "laws.oracle_equivalence")},
    ),
    # A uniform cell's column-0 entry is 1.
    "_synthesize skips the dead cells' scale": Row(
        plant(unscaled_dead_cells, "model._synthesize"),
        {
            **on(FLOAT),
            **on(EXACT, "laws.walsh_roundtrip " + LAWS),
            **on(TWO, "laws.walsh_roundtrip laws.oracle_equivalence"),
        },
    ),
    "first_chaos_basis swaps a direction for a two-cell one": Row(
        plant(two_cell_direction, "chaos.first_chaos_basis"),
        {
            **on(EXACT, "chaos.first_chaos chaos.classification chaos.additive_norm"),
            **on(TWO, "chaos.first_chaos chaos.additive_norm"),
        },
        {"two-coins": ("FAIL  chaos.first_chaos  dimension 2\n" + SPAN,)},
    ),
    **{
        f"the additivity system drops cell {i}": Row(
            plant(without_cell(i), "chaos._additivity_rows"),
            on(EXACT, "chaos.first_chaos"),
            {"two-coins": (f"FAIL  chaos.first_chaos  dimension 1\n{W}dimension 1 != 2\n{SPAN}",)},
        )
        for i in (0, 1)
    },
    "satisfies_additivity refuses every vector": Row(
        plant(lambda m, psi, b: False, "chaos.satisfies_additivity"),
        on(EXACT, "chaos.first_chaos chaos.defect_zero"),
        {
            "two-coins": (
                "FAIL  chaos.first_chaos  dimension 2\n"
                f"{W}pairwise additivity fails on solution vector 0\n"
                f"{W}pairwise additivity fails on solution vector 1\n"
                "PASS  chaos.classification  kind=classical, dim=2",
            )
        },
    ),
    # additive_vector then keeps every nonconstant coefficient and atomless_defect
    # accepts its output; only the pairwise definition in point space catches it.
    "_in_one_block accepts supports that meet a block": Row(
        plant(lambda s, b: any(s & block.mask for block in b.blocks), "chaos._in_one_block"),
        on(EXACT, "chaos.defect_zero chaos.defect_bound"),
        {
            "four-coins": (
                "FAIL  chaos.defect_zero  30 additive vectors (10 with zero defect)\n"
                + "".join(f"{W}b=[{b}]: additive_vector output is not additive\n" for b in NOT_ADDITIVE)
                + f"{W}… and 6 more",
            )
        },
    ),
    "atomless_defect adds 1/7 to delta^2": Row(
        plant(inflated_defect, "chaos.atomless_defect"),
        on(EXACT, "chaos.defect_bound"),
        {
            "four-coins": (
                "FAIL  chaos.defect_bound  25 randomized (psi, b, x) cases\n"
                + "".join(
                    f"{W}b=[{b}]: delta^2={Fraction(m) + Fraction(1, 7)} != {side} {m}\n"
                    for b, m in PART_MASS
                    for side in ("largest block norm", "least part-mass")
                )
                + f"{W}… and 40 more",
            )
        },
    ),
    "split_check ignores the mean": Row(
        plant(lambda m, coeffs, x: split_check(m, [0, *coeffs[1:]], x), "chaos.split_check"),
        on(EXACT, "chaos.split_product_equiv"),
    ),
    "the split span keeps x's side only": Row(
        plant(x_side_only, "chaos._split_span_rows"), on(EXACT, "chaos.split_space")
    ),
    "sigma_field_generated merges its first two blocks": Row(
        plant(first_two_blocks_merged, "chaos.sigma_field_generated"), on(EXACT, "chaos.classification")
    ),
    "build_spectral_space adds 1 to the first multiplicity": Row(
        plant(wrong_multiplicity, "spectrum.build_spectral_space"),
        on(CONFIGS, "spectrum.independence"),
        {
            "two-coins": (
                "FAIL  spectrum.independence  all sampled disjoint pairs\n"
                f"{W}support multiplicity does not factor over cells\n"
                "PASS  spectrum.atom_block  complement spectral set is one block",
            )
        },
    ),
    "spectral_set drops the top atom": Row(
        plant(lambda sp, x: spectral_set(sp, x) - ({x.mask} if x.is_one else set()), "spectrum.spectral_set"),
        {**on(EXACT, TOP + " spectrum.event_subspaces"), **on(FLOAT, TOP)},
        {"two-coins": (W + "spectral filter of atom {0,1} differs from its up-set at {0,1}",)},
    ),
    # Only the full element has the discrete partition.
    "sigma_x_generated is the discrete partition": Row(
        plant(lambda sp, x: frozenset(frozenset([m]) for m in range(len(sp.dims))), "spectrum.sigma_x_generated"),
        on(CONFIGS, "spectrum.sigma_lattice"),
        {
            "two-coins": (
                "FAIL  spectrum.sigma_lattice  4^2 pairs\n"
                f"{W}generated partition differs from trace partition at {{}}\n"
                f"{W}generated partition differs from trace partition at {{0}}\n"
                f"{W}generated partition differs from trace partition at {{1}}\n"
                "PASS  spectrum.independence  all sampled disjoint pairs",
            )
        },
    ),
    "sigma_x keys the trace without cell 0": Row(
        plant(lambda sp, x: spec_mod._partition(sp, lambda m: m & x.mask & ~1), "spectrum.sigma_x"),
        on(CONFIGS, SIGMA),
        dict.fromkeys(("two-coins", "mixed-233-exact"), (W + "join fails at {},{0}",)),
    ),
    "sigma_x merges the trace-0 block into the next": Row(
        plant(trace_zero_merged, "spectrum.sigma_x"), on(CONFIGS, SIGMA)
    ),
    "subspace_of_event drops its last index": Row(
        plant(lambda sp, event: subspace_of_event(sp, event)[:-1], "spectrum.subspace_of_event"),
        {**on(FLOAT), **on(EXACT, "spectrum.event_subspaces")},
    ),
    "mutually_absolutely_continuous always holds": Row(
        plant(lambda m1, m2: True, "spectrum.mutually_absolutely_continuous"),
        {**on(FLOAT), **on(EXACT, "spectrum.measure_class")},
    ),
    "FiniteSpace.closure returns its argument": Row(
        plant(lambda self, a: a, "regopen.FiniteSpace.closure"), on(TWO, "regopen.finite_spaces")
    ),
    "join keeps touching hulls apart": Row(
        plant(join_without_fusing, *JOIN),
        on(TWO, REG),
        {
            "two-coins": (
                W + "join is not the cell OR: r=RegOpen((0,1/8)) s=RegOpen((1/8,1/4))",
                "FAIL  regopen.finite_spaces  Sierpinski, discrete, indiscrete, dyadic quotients\n"
                f"{W}quotient depth 1: join at r=RegOpen((0,1/2)) s=RegOpen((1/2,1)) is no cell union: "
                "RegOpen((0,1/2) (1/2,1))",
            )
        },
    ),
    # All 1744 failures past the first ten are counted.
    "meet drops its last piece": Row(
        plant(lambda self, other: drop_last_piece(meet(self, other)), *MEET),
        on(TWO, REG),
        {
            "two-coins": (
                AND_AT,
                f"{W}… and 1744 more\n"
                "FAIL  regopen.finite_spaces  Sierpinski, discrete, indiscrete, dyadic quotients",
            )
        },
    ),
    "le ignores the last piece": Row(
        plant(lambda self, other: le(drop_last_piece(self), other), "regopen.RegOpen.le"),
        on(TWO, "regopen.laws"),
        {"two-coins": (W + "le is not cell inclusion: r=RegOpen((0,1/4)) s=RegOpen((0,1/8))",)},
    ),
    "meet and join swapped": Row(
        {**plant(join, *MEET), **plant(meet, *JOIN)},
        on(TWO, REG),
        {"two-coins": (AND_AT, W + "join is not the cell OR: r=RegOpen((0,1/8)) s=RegOpen((0,1/4))")},
    ),
    "complement drops its right-edge piece": Row(
        plant(complement_without_right_edge, *COMPLEMENT),
        on(TWO, REG),
        {"two-coins": (W + "complement is not the cell NOT: r=RegOpen((0,1/8))",)},
    ),
    # The dyadic pairs come with r before s in tick order, so only the reversed
    # order meets the fault there; a failure names its operands in the order
    # they were operated on.
    "meet is wrong in one argument order": Row(
        plant(meet_wrong_when_reversed, *MEET),
        on(TWO, REG),
        {"two-coins": (W + "meet is not the cell AND: r=RegOpen((0,1/4)) s=RegOpen((0,1/8))",)},
    ),
    "meet returns touching pieces": Row(
        plant(meet_split_in_two, *MEET),
        on(TWO, REG),
        {
            "two-coins": (
                AND_AT,
                "FAIL  regopen.finite_spaces  Sierpinski, discrete, indiscrete, dyadic quotients\n"
                f"{W}quotient depth 1: meet at r=RegOpen((0,1/2)) s=RegOpen((0,1/2)) is no cell union: "
                "RegOpen((0,1/4) (1/4,1/2))",
            )
        },
    ),
    # monotone_limit's random chains see it on two configs; the first ten
    # witnesses are shown, then one line counts the rest.
    "sample_hom evaluates the first piece only": Row(
        plant(lambda emb, a: sample_hom(emb, RegOpen(a.ticks[:1], a.scale)), "geometry.sample_hom"),
        {**on(CONFIGS, FIRST_PIECE), **on(("four-coins", *FLOAT), FIRST_PIECE + " geometry.monotone_limit")},
        {
            "two-coins": (
                f"FAIL  geometry.homomorphism  2296 pairs\n{W}join at RegOpen((0,1/8)),RegOpen((1/4,3/8))",
                f"{W}… and 23 more\nFAIL  geometry.spectral_identity  2140 dyadic elements, depth 6",
            )
        },
    ),
    "the grid cover loses its last cell": Row(
        plant(cover_without_last_cell, "geometry._grid_cover"),
        on(CONFIGS, "geometry.spectral_identity geometry.approximant"),
        {
            "two-coins": (
                f"{W}closed-set approximant differs from its definition\n"
                "FAIL  geometry.approximant  all atoms, depths 1..6\n"
                + "".join(f"{W}point {p} escapes the depth-{d} cover\n" for p, d in ESCAPES)
                + f"{W}… and 9 more",
            )
        },
    ),
    "boundary_dichotomy holds with a boundary hit": Row(
        plant(
            lambda e, r: Dichotomy(~BoolElem(0, e.n), BoolElem(0, e.n), (0,)), "geometry.boundary_dichotomy"
        ),
        on(CONFIGS, "geometry.boundary_dichotomy"),
        {"two-coins": (W + "case 0: boundary dichotomy equivalence violated",)},
    ),
    "boundary_dichotomy overlaps its approximations": Row(
        plant(
            lambda e, r: Dichotomy(~BoolElem(0, e.n), ~BoolElem(0, e.n), ()), "geometry.boundary_dichotomy"
        ),
        on(CONFIGS, "geometry.boundary_dichotomy"),
        {"two-coins": (W + "case 0: inner approximations of r and its complement overlap",)},
    ),
    "shrink_chain repeats its element": Row(
        plant(lambda a, count: [a] * count, "geometry.shrink_chain"),
        on(CONFIGS, "geometry.shrink_chains"),
        {
            "two-coins": (
                "FAIL  geometry.shrink_chains  76 dyadic elements\n"
                f"{W}shrink chain fails inside RegOpen((0,1/8))",
            )
        },
    ),
}
CASES = [pytest.param(f, config, id=f"{f}-{config}") for f, row in ROWS.items() for config in row.fails]


@pytest.mark.parametrize("fault, config", CASES)
def test_fault_fails_exactly_its_checks(fault, config, monkeypatch):
    row = ROWS[fault]
    for target, fn in row.patches.items():
        monkeypatch.setattr(f"noise_lab.{target}", fn)
    cfg = load_model_config(str(CONFIGS[config]))
    failed, text = set(), ""
    for group in row.groups:
        report = run_verification_suite(cfg, group)
        failed |= {f"{r.group}.{r.name}" for r in report.results if r.status == "fail"}
        text += report.render_text()
    assert failed == row.fails[config]
    for lines in row.lines.get(config, ()):
        assert f"\n{lines}\n" in "\n" + text


def test_every_check_is_failed_by_a_row():
    failed = set().union(*(checks for row in ROWS.values() for checks in row.fails.values()))
    assert {c.__name__.replace("__", ".") for c in _ALL_CHECKS} <= failed
