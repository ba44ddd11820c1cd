import dataclasses
from fractions import Fraction

import pytest

from noise_lab.cli import decimal12
from noise_lab.config import (
    ConfigError,
    load_config_dict,
    load_model_config,
    parse_fraction,
)

F = Fraction

TWO_COINS = {
    "cells": [
        {"k": 2, "probs": ["1/2", "1/2"]},
        {"k": 2, "probs": ["1/2", "1/2"]},
    ],
    "vectors": {"r1": ["-1", "-1", "1", "1"]},
    "subalgebras": {"full": [[0], [1]]},
    "embedding": {"sample_points": ["1/5", "1/3"]},
}


def test_parse_fraction():
    assert parse_fraction("3/4", "p") == F(3, 4)
    assert parse_fraction("-2", "p") == F(-2)
    for bad in ("0.5", "1/0", "1 / 2", "", "a/b", 5):
        with pytest.raises(ConfigError):
            parse_fraction(bad, "p")


def test_format_round_trip():
    for x in (F(1, 3), F(-7, 2), F(4)):
        assert parse_fraction(str(x), "p") == x


def test_load_two_coins():
    cfg = load_config_dict(TWO_COINS)
    assert cfg.n_cells == 2
    assert cfg.n_points == 4
    model = cfg.build_model()
    assert model.n_points == 4
    assert cfg.vector("r1") == (-1, -1, 1, 1)
    sub = cfg.subalgebra("full")
    assert len(sub.blocks) == 2


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config_dict({**TWO_COINS, "extra": 1})
    bad_cell = {"cells": [{"k": 2, "probs": ["1/2", "1/2"], "color": "red"}]}
    with pytest.raises(ConfigError, match=r"cells\[0\]"):
        load_config_dict(bad_cell)
    with pytest.raises(ConfigError, match="embedding"):
        load_config_dict(
            {"cells": TWO_COINS["cells"], "embedding": {"sample_points": ["1/5", "1/3"], "x": 1}}
        )


def test_semantic_errors_with_paths():
    with pytest.raises(ConfigError, match=r"cells\[0\].*sum to 5/6"):
        load_config_dict({"cells": [{"k": 2, "probs": ["1/2", "1/3"]}]})
    with pytest.raises(ConfigError, match="does not match"):
        load_config_dict({"cells": [{"k": 3, "probs": ["1/2", "1/2"]}]})
    with pytest.raises(ConfigError, match="potential boundary"):
        load_config_dict(
            {"cells": TWO_COINS["cells"], "embedding": {"sample_points": ["1/5", "1/4"]}}
        )
    with pytest.raises(ConfigError, match="strictly increasing"):
        load_config_dict(
            {"cells": TWO_COINS["cells"], "embedding": {"sample_points": ["1/3", "1/5"]}}
        )
    with pytest.raises(ConfigError, match="entries"):
        load_config_dict({"cells": TWO_COINS["cells"], "vectors": {"v": ["1", "2"]}})
    with pytest.raises(ConfigError, match="cover"):
        load_config_dict({"cells": TWO_COINS["cells"], "subalgebras": {"s": [[0]]}})
    with pytest.raises(ConfigError, match="repeated within a block"):
        load_config_dict({"cells": TWO_COINS["cells"], "subalgebras": {"s": [[0, 0], [1]]}})
    with pytest.raises(ConfigError, match="backend"):
        load_config_dict({"cells": TWO_COINS["cells"], "backend": "quantum"})
    with pytest.raises(ConfigError, match="seed"):
        load_config_dict({"cells": TWO_COINS["cells"], "seed": -1})


def test_replaced_fields_pass_the_same_checks():
    cfg = load_config_dict(TWO_COINS)
    for name, value in (
        ("backend", "quantum"),
        ("seed", -5),
    ):
        with pytest.raises(ConfigError, match=name) as info:
            dataclasses.replace(cfg, **{name: value})
        assert info.value.path == name
    assert dataclasses.replace(cfg, seed=5).seed == 5


@pytest.mark.parametrize("name", ["seed"])
def test_boolean_integer_fields_rejected(name):
    with pytest.raises(ConfigError, match=f"^{name}: ") as info:
        load_config_dict({"cells": [], name: True})
    assert info.value.path == name
    assert getattr(load_config_dict({"cells": [], name: 1}), name) == 1


@pytest.mark.parametrize("k", ["2", 2.0, True])
def test_cell_k_must_be_an_integer(k):
    with pytest.raises(ConfigError, match=r"^cells\[1\]: k must be an integer$") as info:
        load_config_dict({"cells": [TWO_COINS["cells"][0], {"k": k, "probs": ["1/2", "1/2"]}]})
    assert info.value.path == "cells[1]"


def test_boolean_cell_index_rejected():
    with pytest.raises(ConfigError, match=r"^subalgebras\.s: cell index True out of range"):
        load_config_dict({"cells": TWO_COINS["cells"], "subalgebras": {"s": [[True], [0]]}})


@pytest.mark.parametrize(
    "key, raw",
    [("subalgebras", [1]), ("subalgebras", [[0, 1]]), ("vectors", "ab"), ("vectors", [])],
)
def test_named_fields_must_be_objects(key, raw):
    with pytest.raises(ConfigError, match=f"^{key}: {key} must be an object") as info:
        load_config_dict({"cells": TWO_COINS["cells"], key: raw})
    assert info.value.path == key


@pytest.mark.parametrize("blocks", [[[0, 5], [1]], [[0, 1], [1]], [[0, 0], [1]], [[], [0, 1]], [[0]]])
def test_subalgebra_refusals_keep_their_field_path(blocks):
    with pytest.raises(ConfigError) as info:
        load_config_dict({"cells": TWO_COINS["cells"], "subalgebras": {"s": blocks}})
    assert info.value.path == "subalgebras.s"


def test_string_cell_index_reads_as_a_string():
    with pytest.raises(ConfigError, match=r"^subalgebras\.s: cell index '1' out of range"):
        load_config_dict({"cells": TWO_COINS["cells"], "subalgebras": {"s": [["1"], [0]]}})


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"cells": [\n  {"k": 2, "probs": ["1/2" "1/2"]}\n]}')
    with pytest.raises(ConfigError, match="line 2"):
        load_model_config(str(path))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_model_config("/nonexistent/config.json")


def test_defaults():
    cfg = load_config_dict({"cells": []})
    assert cfg.backend == "exact"
    assert cfg.seed == 0
    assert cfg.embedding is None


def test_decimal12():
    assert decimal12(F(1, 4)) == "0.25"
    assert decimal12(F(1, 3)) == "0.333333333333"
    assert decimal12(F(0)) == "0"
