"""The laws- and geometry-group rows of the fault matrix: each row plants
one fault in `noise_lab.model` or `noise_lab.geometry` and names the checks
of its group that must fail on each golden config. A config a row does not
name must pass the whole group, so the table also records where a fault
goes unseen."""

from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from noise_lab import geometry as geo_mod
from noise_lab import model as model_mod
from noise_lab import suite as suite_mod
from noise_lab.boolalg import BoolElem
from noise_lab.config import load_model_config
from noise_lab.regopen import RegOpen
from noise_lab.suite import run_verification_suite

REPO = Path(__file__).resolve().parent.parent
CONFIGS = {
    "two-coins": REPO / "examples" / "two-coins.json",
    "four-coins": REPO / "examples" / "four-coins.json",
    "mixed-233-exact": REPO / "tests" / "golden" / "mixed-233-exact.json",
    "five-ternary-float": REPO / "tests" / "golden" / "five-ternary-float.json",
}
NON_UNIFORM = ("mixed-233-exact", "five-ternary-float")
# Two cells have no incomparable pair with a nonzero meet.
MEETING = ("four-coins", "mixed-233-exact", "five-ternary-float")

masked_coeffs = model_mod.masked_coeffs
mass_inside = model_mod.mass_inside
sample_hom = geo_mod.sample_hom


def keep_every(model, coeffs, x):
    return list(coeffs)


def keep_meeting(model, coeffs, x):
    return [c if s & x.mask else model._num(0) for c, s in zip(coeffs, model.support_masks)]


def double_kept(model, coeffs, x):
    return [c * 2 for c in masked_coeffs(model, coeffs, x)]


def drop_last_inside(model, coeffs, x):
    kept = masked_coeffs(model, coeffs, x)
    last = max(i for i, s in enumerate(model.support_masks) if s & ~x.mask == 0)
    kept[last] = model._num(0)
    return kept


def mass_of_whole(model, coeffs, x):
    return mass_inside(model, coeffs, BoolElem((1 << x.n) - 1, x.n))


def singletons(model, x):
    return tuple((w,) for w in range(model.n_points))


def unweighted(model, f, g):
    # Every point weighs 1/N: right exactly when the cells are uniform.
    return sum(a * b for a, b in zip(f.values, g.values)) / model.n_points


def unweighted_oracle(model, x, fs):
    # Every point of a block weighs the same: right exactly when the cells are uniform.
    blocks = model_mod.sigma_field_of(model, x)
    out = []
    for f in fs:
        values = [None] * model.n_points
        for block in blocks:
            avg = sum(f.values[w] for w in block) / model._num(Fraction(len(block)))
            for w in block:
                values[w] = avg
        out.append(model_mod.RandomVariable(tuple(values)))
    return out


def identity(model, x, f):
    return f


def first_piece(emb, a):
    return sample_hom(emb, RegOpen(a.ticks[:1], a.scale))


class Row(NamedTuple):
    attr: str  # the noise_lab.model function the fault replaces
    fault: Callable
    kills: frozenset  # the laws checks that fail on every config in `configs`
    configs: tuple = tuple(CONFIGS)
    # Failing on the MEETING configs only: where x meet y = 0 both sides of
    # Q_x Q_y f = Q_{x meet y} f vanish on the zero-mean probe, so only an
    # incomparable pair with a nonzero meet sees the fault.
    meeting_also: frozenset = frozenset()


ORACLE = frozenset({"oracle_equivalence"})
LATTICE = frozenset({"projection_lattice"})
FAULTS = {
    "masked_coeffs keeps every coefficient": Row("masked_coeffs", keep_every, ORACLE),
    "masked_coeffs keeps the supports that meet x": Row("masked_coeffs", keep_meeting, ORACLE | LATTICE),
    "masked_coeffs doubles what it keeps": Row("masked_coeffs", double_kept, ORACLE, meeting_also=LATTICE),
    "masked_coeffs drops the last support inside x": Row(
        "masked_coeffs", drop_last_inside, ORACLE, meeting_also=LATTICE
    ),
    "mass_inside ignores x": Row("mass_inside", mass_of_whole, LATTICE),
    "sigma_field_of returns singletons": Row("sigma_field_of", singletons, ORACLE),
    "inner_product ignores the weights": Row(
        "inner_product", unweighted, frozenset({"tensor_basis"}), NON_UNIFORM
    ),
    "project returns f": Row("project", identity, LATTICE),
    "project_oracle averages without the weights": Row(
        "project_oracle", unweighted_oracle, ORACLE, NON_UNIFORM
    ),
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("fault", FAULTS)
def test_laws_fault_fails_its_named_checks(fault, config, monkeypatch):
    row = FAULTS[fault]
    cfg = load_model_config(str(CONFIGS[config]))
    monkeypatch.setattr(model_mod, row.attr, row.fault)
    if hasattr(suite_mod, row.attr):  # a function the suite imports by name
        monkeypatch.setattr(suite_mod, row.attr, row.fault)
    report = run_verification_suite(cfg, "laws")
    failed = {r.name for r in report.results if r.status == "fail"}
    expected = set()
    if config in row.configs:
        expected = row.kills | (row.meeting_also if config in MEETING else frozenset())
    assert failed == expected


# The geometry checks that fail with an evaluation map that reads an element's
# first piece only; monotone_limit's random chains see it on two configs.
FIRST_PIECE_KILLS = frozenset({"homomorphism", "spectral_identity", "shrink_chains"})
GEOMETRY_FAULTS = {
    "sample_hom evaluates the first piece only": (
        "sample_hom",
        first_piece,
        {
            "two-coins": FIRST_PIECE_KILLS,
            "four-coins": FIRST_PIECE_KILLS | {"monotone_limit"},
            "mixed-233-exact": FIRST_PIECE_KILLS,
            "five-ternary-float": FIRST_PIECE_KILLS | {"monotone_limit"},
        },
    ),
}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("fault", GEOMETRY_FAULTS)
def test_geometry_fault_fails_its_named_checks(fault, config, monkeypatch):
    attr, fault_fn, kills = GEOMETRY_FAULTS[fault]
    monkeypatch.setattr(geo_mod, attr, fault_fn)
    report = run_verification_suite(load_model_config(str(CONFIGS[config])), "geometry")
    assert {r.name for r in report.results if r.status == "fail"} == kills[config]
