import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from noise_lab.boolalg import BoolElem, Subalgebra
from noise_lab.model import Cell, NoiseModel

REPO = Path(__file__).resolve().parent.parent
# The configs the suite tests run on: two exact examples, an exact model with
# unequal probabilities and a float one, each with an embedding.
CONFIGS = {
    "two-coins": REPO / "examples" / "two-coins.json",
    "four-coins": REPO / "examples" / "four-coins.json",
    "mixed-233-exact": REPO / "tests" / "golden" / "mixed-233-exact.json",
    "five-ternary-float": REPO / "tests" / "golden" / "five-ternary-float.json",
}


def cli_env() -> dict[str, str]:
    """The environment for a ``python -m noise_lab`` subprocess: the
    repository's ``src`` first on ``PYTHONPATH``, since pytest's
    ``pythonpath`` setting reaches only the pytest process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    return env


def fair_coin() -> Cell:
    return Cell((Fraction(1, 2), Fraction(1, 2)))


def uniform_cell(k: int) -> Cell:
    return Cell(tuple(Fraction(1, k) for _ in range(k)))


def is_full(r) -> bool:
    """Whether the regular open r is all of [0,1]."""
    return r.ticks == ((0, r.scale),)


def contains_closure(r, t: Fraction) -> bool:
    """Whether the rational t lies in the closure of r: the per-point
    reference for RegOpen.closure_mask."""
    return any(a <= t <= b for a, b in r.intervals)


def sign_rv(model, cell):
    """The +/-1 coordinate function of one two-valued cell."""
    vals = [1 if model.point_digits(w)[cell] else -1 for w in range(model.n_points)]
    return model.from_values(vals)


def point_index(model, digits):
    """Flat index of the point with the given per-cell digits."""
    return sum(d * s for d, s in zip(digits, model.strides))


def full_subalgebra(model):
    n = model.n_cells
    return Subalgebra(n, tuple(BoolElem(1 << i, n) for i in range(n)))


def block_subalgebra(model, blocks):
    return Subalgebra(
        model.n_cells, tuple(BoolElem.from_indices(b, model.n_cells) for b in blocks)
    )


def varied_probs(k: int, salt: int) -> tuple[Fraction, ...]:
    """Deterministic non-uniform probabilities for sweep families."""
    if k == 2:
        options = [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(2, 5), Fraction(3, 5)),
        ]
    elif k == 3:
        options = [
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
            (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        ]
    else:
        base = [Fraction(1, k)] * k
        return tuple(base)
    return options[salt % len(options)]


def model_family(max_cells: int, radix_choices=(2, 3), max_points: int | None = None):
    """Every radix shape with up to max_cells cells, deterministic probs."""
    import itertools

    models = []
    for n in range(max_cells + 1):
        for shape in itertools.product(radix_choices, repeat=n):
            pts = 1
            for k in shape:
                pts *= k
            if max_points is not None and pts > max_points:
                continue
            cells = [Cell(varied_probs(k, i)) for i, k in enumerate(shape)]
            models.append(NoiseModel(cells))
    return models


@pytest.fixture
def two_coins():
    return NoiseModel([fair_coin(), fair_coin()])


@pytest.fixture
def four_coins():
    return NoiseModel([fair_coin()] * 4)


@pytest.fixture
def coin_and_triple():
    return NoiseModel([fair_coin(), uniform_cell(3)])


@pytest.fixture
def rng():
    return random.Random(0)
