import argparse
import ast
import copy
import dataclasses
import json
import re
import subprocess
import sys

import pytest

from noise_lab import chaos as chaos_mod
from noise_lab import linalg
from noise_lab import model as model_mod
from noise_lab import suite
from noise_lab.boolalg import Subalgebra
from noise_lab.cli import _build_parser, main
from noise_lab.config import ModelConfig, load_config_dict, load_model_config
from noise_lab.suite import (
    _ALL_CHECKS,
    BASIS_LIMIT,
    CheckResult,
    Report,
    _Ctx,
    chaos__additive_norm,
    chaos__classification,
    chaos__first_chaos,
    chaos__split_product_equiv,
    chaos__split_space,
    laws__oracle_equivalence,
    laws__projection_lattice,
    laws__tensor_basis,
    laws__walsh_roundtrip,
    run_verification_suite,
    spectrum__event_subspaces,
    spectrum__projection_measure,
)

from conftest import CONFIGS, REPO, cli_env

TWO_COINS, FOUR_COINS = CONFIGS["two-coins"], CONFIGS["four-coins"]
MIXED_233, FIVE_TERNARY = CONFIGS["mixed-233-exact"], CONFIGS["five-ternary-float"]
COIN = {"k": 2, "probs": ["1/2", "1/2"]}
TERNARY = {"k": 3, "probs": ["1/3", "1/3", "1/3"]}
# A fair coin with vector entries of 401 digits: its masses are beyond the float range.
HUGE = {"cells": [COIN], "vectors": {"v": ["-1" + "0" * 400, "1" + "0" * 400]}}


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "noise_lab", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(),
    )


def _assert_immutable(value, where):
    assert not isinstance(value, (list, dict)), f"{where} is a {type(value).__name__}"
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            _assert_immutable(item, f"{where}[{i}]")


def test_suite_leaves_no_state_on_the_model(monkeypatch):
    built = []
    build_model = ModelConfig.build_model

    def build_and_record(cfg):
        model = build_model(cfg)
        built.append((model, copy.deepcopy(vars(model))))
        return model

    monkeypatch.setattr(ModelConfig, "build_model", build_and_record)
    cfg = load_model_config(str(FOUR_COINS))
    for backend in ("exact", "float"):
        report = run_verification_suite(dataclasses.replace(cfg, backend=backend), "all")
        assert report.n_fail == 0
        model, before = built.pop()
        assert model.backend == backend
        assert vars(model) == before
        for name, value in vars(model).items():
            _assert_immutable(value, name)


def test_split_space_solves_once_per_complementary_pair(monkeypatch):
    solve = chaos_mod.split_solution_space
    solved = []

    def count_and_solve(model, x):
        solved.append(x.mask)
        return solve(model, x)

    monkeypatch.setattr(chaos_mod, "split_solution_space", count_and_solve)
    result = chaos__split_space(_Ctx(load_model_config(str(FOUR_COINS))))
    assert result.status == "pass"
    assert result.detail == "solution space vs basis span, all elements"
    assert len(solved) == 8
    assert {min(m, m ^ 0b1111) for m in solved} == set(range(8))


@pytest.mark.parametrize("path", [FOUR_COINS, FIVE_TERNARY])
def test_projection_lattice_checks_every_pair_of_the_element_sample(path):
    # four-coins enumerates its 16 elements; five-ternary (32 > 16) samples 14.
    ctx = _Ctx(load_model_config(str(path)))
    result = laws__projection_lattice(ctx)
    assert result.status == "pass"
    assert result.detail == f"{len(ctx.elements(ctx.rng('laws.lattice'))) ** 2} pairs"


@pytest.mark.parametrize(
    "check, analyses",
    [
        (chaos__additive_norm, 6),  # 5 first-chaos vectors and their combination
        (spectrum__projection_measure, 40),  # 20 vectors: spectral side and point side
        (laws__oracle_equivalence, 18),  # the N = 18 point-mass vectors
        (spectrum__event_subspaces, 18),  # the N = 18 Walsh vectors
    ],
)
def test_checks_analyse_each_probe_vector_once(check, analyses, monkeypatch):
    # mixed-233-exact enumerates its 8 elements; each vector conditioned on
    # all of them is analysed once.
    ctx = _Ctx(load_model_config(str(MIXED_233)))
    assert ctx.space and ctx.chaos  # built before counting
    calls = []
    transform = model_mod._transform

    def counting(model, values, matrices, scale):
        calls.append(matrices is model._analysis)
        return transform(model, values, matrices, scale)

    monkeypatch.setattr(model_mod, "_transform", counting)
    assert check(ctx).status == "pass"
    assert calls.count(True) == analyses


@pytest.mark.parametrize("path, elements", [(MIXED_233, 8), (FIVE_TERNARY, 14)])
def test_oracle_equivalence_partitions_each_element_once(path, elements, monkeypatch):
    calls = []
    partition = model_mod.sigma_field_of

    def counting(model, x):
        calls.append(x)
        return partition(model, x)

    monkeypatch.setattr(model_mod, "sigma_field_of", counting)
    result = laws__oracle_equivalence(_Ctx(load_model_config(str(path))))
    assert result.status == "pass"
    assert result.detail.startswith(f"{elements} elements x ")
    assert len(calls) == elements


@pytest.mark.parametrize(
    "radices, details",
    [
        (
            (2, 2, 2, 2, 2, 2),  # N = 64: the whole basis
            (
                "14 elements x 64 vectors",
                "729 disjoint-support pairs",
                "68 vectors",
                "64 vectors per element",
            ),
        ),
        (
            (2, 2, 2, 3, 3),  # N = 72: seeded samples
            (
                "14 elements x 6 vectors",
                "60 disjoint-support pairs",
                "4 vectors",
                "10 vectors per element",
            ),
        ),
    ],
)
def test_basis_loops_walk_the_whole_basis_up_to_the_basis_limit(radices, details, monkeypatch):
    cfg = load_config_dict({"cells": [COIN if k == 2 else TERNARY for k in radices]})
    ctx = _Ctx(cfg)
    checks = (laws__oracle_equivalence, laws__tensor_basis, laws__walsh_roundtrip, chaos__split_product_equiv)
    results = [check(ctx) for check in checks]
    assert all(r.status == "pass" for r in results)
    assert tuple(r.detail for r in results) == details
    # spectrum.event_subspaces compares projection ranges only on the whole basis.
    spans = []

    def record_span(rows, basis_rows):
        spans.append(len(rows))
        return True

    monkeypatch.setattr(linalg, "span_equal", record_span)
    assert spectrum__event_subspaces(ctx).status == "pass"
    assert bool(spans) == (cfg.n_points <= BASIS_LIMIT)


def test_split_space_detail_says_sampled():
    cfg = load_config_dict({"cells": [{"k": 2, "probs": ["1/2", "1/2"]}] * 5})
    result = chaos__split_space(_Ctx(cfg))
    assert result.status == "pass"
    assert "all elements" not in result.detail
    assert "sampled" in result.detail


def test_suite_selection():
    cfg = load_model_config(str(TWO_COINS))
    report = run_verification_suite(cfg, "regopen")
    assert {r.group for r in report.results} == {"regopen"}
    with pytest.raises(ValueError):
        run_verification_suite(cfg, "nonsense")


def test_suite_skips_geometry_without_embedding():
    cfg = load_config_dict({"cells": [{"k": 2, "probs": ["1/2", "1/2"]}]})
    report = run_verification_suite(cfg, "geometry")
    assert all(r.status == "skip" for r in report.results)
    assert report.exit_code() == 0
    assert report.exit_code(strict=True) == 3


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_zero_cell_config_with_an_embedding_skips_the_dichotomy(backend):
    cfg = load_config_dict({"cells": [], "embedding": {"sample_points": []}, "backend": backend})
    report = run_verification_suite(cfg)
    assert report.exit_code() == 0
    dichotomy = next(r for r in report.results if r.name == "boundary_dichotomy")
    assert (dichotomy.status, dichotomy.detail) == ("skip", "no cells")


def test_suite_float_backend_skips_exact_only_checks():
    cfg = load_config_dict(
        {"cells": [{"k": 2, "probs": ["1/2", "1/2"]}] * 3, "backend": "float"}
    )
    report = run_verification_suite(cfg, "chaos")
    statuses = {r.name: r.status for r in report.results}
    assert statuses["first_chaos"] == "skip"
    report_laws = run_verification_suite(cfg, "laws")
    assert report_laws.n_fail == 0
    assert any(r.status == "pass" for r in report_laws.results)


def test_suite_skips_oversized_exact_model():
    cfg = load_config_dict({"cells": [{"k": 2, "probs": ["1/2", "1/2"]}] * 13})
    report = run_verification_suite(cfg, "laws")
    assert all(r.status == "skip" for r in report.results)
    assert any("cap exceeded" in r.detail for r in report.results)
    assert report.exit_code(strict=True) == 3


def test_elimination_checks_skip_above_their_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(linalg, "rref", refuse)
    ctx = _Ctx(load_config_dict({"cells": [COIN] + [TERNARY] * 4}))
    for check in (chaos__split_space, chaos__first_chaos, chaos__classification, chaos__additive_norm):
        result = check(ctx)
        assert (result.status, result.detail) == ("skip", "exact backend cap exceeded (N=162 > 128)")


@pytest.mark.parametrize(
    "cfg, numbers",
    [({"cells": [COIN] * 13}, ("8192", "4096")), ({"cells": [COIN], "backend": "float"}, ("exact",))],
)
def test_cli_chaos_refuses_before_building(cfg, numbers, tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ModelConfig, "build_model", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["chaos", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert all(n in err for n in numbers)


def test_cli_spectrum_refuses_before_building(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ModelConfig, "build_model", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cells": [COIN] * 13}))
    assert main(["spectrum", str(path), "--vector", "demo"]) == 2
    assert capsys.readouterr().err == (
        "input error: exact backend cap exceeded (N=8192 > 4096); select the float backend\n"
    )
    # The float backend has no size cap, so the same cells, with the named
    # vector (resolved before the build), get to the build.
    demo = {"demo": ["0"] * 8192}
    path.write_text(json.dumps({"cells": [COIN] * 13, "backend": "float", "vectors": demo}))
    with pytest.raises(AssertionError, match="the model was built"):
        main(["spectrum", str(path), "--vector", "demo"])


def _perfbench_float_skips():
    """FLOAT_SKIPS from perfbench/run.py, read from its source, not imported."""
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FLOAT_SKIPS"]:
            return set(ast.literal_eval(node.value.args[0]))
    raise AssertionError("perfbench/run.py defines no FLOAT_SKIPS")


def test_perfbench_float_skips_are_the_exact_only_checks():
    exact_only = {c.__name__.replace("__", ".") for c in _ALL_CHECKS if c.needs.get("exact")}
    assert _perfbench_float_skips() == exact_only


def _readme_needs_table():
    """The README's per-check needs table (the first table after the
    ``suite.skip_reason`` paragraph), as {check name: row} with the row's
    cells in the order Backend, Exact cap, Cells, Embedding."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    after = text[text.index("`suite.skip_reason`"):]
    lines = after[after.index("\n|"):].strip().split("\n")
    names = {c.__name__.replace("__", ".") for c in _ALL_CHECKS}
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        checks, *needs = [cell.strip() for cell in line.strip("|").split("|")]
        for segment in checks.split(";"):
            head, *rest = re.findall(r"`([^`]+)`", segment)
            if head.endswith(".*"):
                named = {n for n in names if n.startswith(head[:-1])}
            elif head.endswith("."):
                named = {head + r for r in rest}
            else:
                named = {head, *rest}
            for name in named:
                assert name not in rows, f"{name} has two rows"
                rows[name] = tuple(needs)
    return rows


def test_readme_needs_table_matches_the_check_decorators():
    backend = {"either": False, "exact": True}
    cell_need = {"": False, "≥ 1": True}
    embedding_need = {"": False, "required": True}
    rows = _readme_needs_table()
    assert set(rows) == {c.__name__.replace("__", ".") for c in _ALL_CHECKS}
    for check in _ALL_CHECKS:
        name = check.__name__.replace("__", ".")
        exact, cap, cells, embedding = rows[name]
        documented = {
            "exact": backend[exact],
            "points": int(cap) if cap else None,
            "cells": cell_need[cells],
            "embedding": embedding_need[embedding],
        }
        declared = {
            "exact": check.needs.get("exact", False),
            "points": check.needs.get("points"),
            "cells": check.needs.get("cells", False),
            "embedding": check.needs.get("embedding", False),
        }
        assert documented == declared, name


def _readme_block(heading, lang):
    """The first ```lang block after a README heading."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"```{lang}\n") + len(lang) + 4
    return after[start:after.index("```", start)]


def test_readme_config_example_loads_and_cli_synopsis_parses():
    cfg = load_config_dict(json.loads(_readme_block("## Config format", "json")))
    assert cfg.n_points == len(cfg.vector("demo"))
    documented = {}
    for line in _readme_block("## CLI", "sh").splitlines():
        if line.startswith("noise-lab "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z]+", line))
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {name: set(p._option_string_actions) - {"-h", "--help"} for name, p in sub.choices.items()}
    assert documented == accepted


def test_report_exit_codes_and_renderings():
    rep = Report(seed=0, backend="exact", selection="all")
    rep.results.append(CheckResult("laws", "ok", "pass", "detail"))
    assert rep.exit_code() == 0
    rep.results.append(CheckResult("laws", "broken", "fail", witnesses=("w1",)))
    assert rep.exit_code() == 1
    rep.results.append(CheckResult("geometry", "nothing", "skip"))
    assert rep.exit_code() == 1  # fail wins over skip
    text = rep.render_text()
    assert "FAIL" in text and "| w1" in text
    data = rep.to_json_dict()
    assert data["summary"] == {"pass": 1, "fail": 1, "skip": 1}


@pytest.mark.parametrize(
    "count, more",
    [(suite.MAX_WITNESSES, ()), (suite.MAX_WITNESSES + 1, ("… and 1 more",))],
    ids=["at-the-cap", "one-past-the-cap"],
)
def test_witnesses_past_the_cap_are_counted(count, more, monkeypatch):
    monkeypatch.setattr(suite, "_ALL_CHECKS", [])

    @suite._check()
    def stub__witnesses(ctx):
        return "", [f"w{i}" for i in range(count)], False

    result = stub__witnesses(_Ctx(load_model_config(str(TWO_COINS))))
    assert result.witnesses == (*(f"w{i}" for i in range(suite.MAX_WITNESSES)), *more)


def test_cli_verify_reproducible(tmp_path):
    out1 = run_cli("verify", str(TWO_COINS), "--seed", "0", "--json", str(tmp_path / "r1.json"))
    out2 = run_cli("verify", str(TWO_COINS), "--seed", "0", "--json", str(tmp_path / "r2.json"))
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    payload = json.loads((tmp_path / "r1.json").read_text())
    assert payload["summary"]["fail"] == 0


def test_cli_verify_seed_changes_witnesses():
    out1 = run_cli("verify", str(TWO_COINS), "--seed", "1", "--only", "laws")
    out2 = run_cli("verify", str(TWO_COINS), "--seed", "2", "--only", "laws")
    assert out1.returncode == out2.returncode == 0
    # Same checks, same statuses; the runs are still independent executions.
    assert out1.stdout.count(b"PASS") == out2.stdout.count(b"PASS")


def test_cli_input_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [{"k": 2, "probs": ["1/2", "1/3"]}]}')
    out = run_cli("verify", str(bad))
    assert out.returncode == 2
    assert b"input error" in out.stderr

    missing = run_cli("verify", str(tmp_path / "nope.json"))
    assert missing.returncode == 2


@pytest.mark.parametrize("flag, value", [("--seed", "-5")])
def test_cli_overrides_are_validated(flag, value, capsys):
    assert main(["verify", str(TWO_COINS), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {flag[2:]}: " in captured.err


@pytest.mark.parametrize(
    "keys, flags",
    [({"depth": 6}, []), ({"exhaustive_limit": 16}, []), ({}, ["--depth", "6"])],
    ids=["depth", "exhaustive_limit", "--depth"],
)
def test_effort_limits_are_not_settable(keys, flags, tmp_path):
    # DEPTH and EXHAUSTIVE_LIMIT are constants of suite: neither is a config
    # key, and verify has no --depth flag.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cells": [COIN], **keys}))
    out = run_cli("verify", str(path), *flags)
    assert out.returncode == 2
    assert out.stdout == b""
    assert [*keys, *flags][0].encode() in out.stderr


def test_cli_boolean_seed_exit_2(tmp_path, capsys):
    cfg = tmp_path / "boolseed.json"
    cfg.write_text('{"cells": [{"k": 2, "probs": ["1/2", "1/2"]}], "seed": true}')
    assert main(["verify", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: seed: " in captured.err


def test_cli_strict_skip_exit_3(tmp_path):
    cfg = tmp_path / "noemb.json"
    cfg.write_text('{"cells": [{"k": 2, "probs": ["1/2", "1/2"]}]}')
    out = run_cli("verify", str(cfg), "--only", "geometry", "--strict")
    assert out.returncode == 3
    relaxed = run_cli("verify", str(cfg), "--only", "geometry")
    assert relaxed.returncode == 0


def test_cli_spectrum_table_and_csv(tmp_path):
    csv_path = tmp_path / "table.csv"
    out = run_cli("spectrum", str(TWO_COINS), "--vector", "demo", "--csv", str(csv_path))
    assert out.returncode == 0
    text = out.stdout.decode()
    assert "atom" in text and "{0,1}" in text
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "atom,dim,canonical,mass,mass_decimal"
    assert rows[1] == '"{}",1,1/4,9,9'
    assert rows[3] == '"{1}",1,1/4,0,0'
    assert rows[4] == '"{0,1}",1,1/4,4,4'


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", str(TWO_COINS), "--json"],
        ["spectrum", str(TWO_COINS), "--vector", "demo", "--csv"],
    ],
    ids=["verify-json", "spectrum-csv"],
)
def test_cli_unwritable_output_path_is_an_input_error(argv, tmp_path, capsys):
    # Refused before any check runs or any table is printed.
    path = tmp_path / "missing" / "out"
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"input error: cannot write {path}: ")


@pytest.mark.parametrize("command", ["chaos", "spectrum"])
def test_cli_float_overflow_is_an_input_error(command, tmp_path, capsys):
    # delta and the decimal mass column are floats; 10^800 is beyond them.
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(HUGE))
    assert main([command, str(cfg), "--vector", "v"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("input error: a value is beyond the float range")


def test_cli_chaos_resolves_the_subalgebra_without_a_vector(capsys):
    assert main(["chaos", str(FOUR_COINS), "--subalgebra", "ghost"]) == 2
    assert "unknown subalgebra 'ghost'" in capsys.readouterr().err


def test_cli_spectrum_unknown_vector():
    out = run_cli("spectrum", str(TWO_COINS), "--vector", "ghost")
    assert out.returncode == 2
    assert b"unknown vector 'ghost'" in out.stderr


@pytest.mark.parametrize(
    "config, vector, error",
    [
        (None, "ghost", "unknown vector 'ghost'"),
        # Refused when the model converts the vector to floats.
        ({**HUGE, "backend": "float"}, "v", "a value is beyond the float range"),
        # Refused when a spectral mass is formatted as a decimal.
        (HUGE, "v", "a value is beyond the float range"),
    ],
    ids=["unknown-vector", "float-overflow", "exact-overflow"],
)
def test_cli_spectrum_unknown_vector_leaves_no_csv(config, vector, error, tmp_path, capsys):
    cfg = TWO_COINS
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
    path = tmp_path / "out.csv"
    assert main(["spectrum", str(cfg), "--vector", vector, "--csv", str(path)]) == 2
    assert error in capsys.readouterr().err
    assert not path.exists()


def test_cli_chaos_summary():
    out = run_cli("chaos", str(FOUR_COINS), "--subalgebra", "blocks", "--vector", "pairsum")
    assert out.returncode == 0
    text = out.stdout.decode()
    assert "first-chaos dimension: 4" in text
    assert "classification: classical" in text
    assert "delta^2 = 1" in text
    assert "defect bound: pass" in text


def test_cli_chaos_defaults_to_full_subalgebra():
    out = run_cli("chaos", str(FOUR_COINS), "--vector", "pairsum")
    assert out.returncode == 0
    assert b"additivity on subalgebra: no" in out.stdout


@pytest.mark.parametrize("subalgebra", [["--subalgebra", "blocks"], []])
def test_cli_chaos_decomposes_psi_at_most_twice(subalgebra, monkeypatch, capsys):
    decomposed = []
    decompose = chaos_mod.walsh_decompose

    def count_decompose(model, f):
        decomposed.append(f)
        return decompose(model, f)

    def refuse(self):
        raise AssertionError("the elements of the subalgebra were enumerated")

    monkeypatch.setattr(chaos_mod, "walsh_decompose", count_decompose)
    # Additivity is read off the coefficients, never tested pair by pair.
    monkeypatch.setattr(Subalgebra, "elements", refuse)
    assert main(["chaos", str(FOUR_COINS), *subalgebra, "--vector", "pairsum"]) == 0
    out = capsys.readouterr().out
    cfg = load_model_config(str(FOUR_COINS))
    model = cfg.build_model()
    psi = model.from_values(cfg.vector("pairsum"))
    assert decomposed == [psi]
    assert ("defect bound: pass" in out) == bool(subalgebra)


def test_cli_chaos_bounds_every_cell_set_in_one_call(monkeypatch, capsys):
    calls = []
    bound = chaos_mod.defect_bound_check

    def count_calls(model, certificate, xs):
        calls.append([x.mask for x in xs])
        return bound(model, certificate, xs)

    monkeypatch.setattr(chaos_mod, "defect_bound_check", count_calls)
    assert main(["chaos", str(FOUR_COINS), "--subalgebra", "blocks", "--vector", "pairsum"]) == 0
    assert "defect bound: pass (all cell sets)" in capsys.readouterr().out
    # One cell set per complementary pair: the masks without the top cell.
    assert calls == [list(range(8))]


def test_cli_chaos_exits_1_when_the_defect_bound_fails(monkeypatch, capsys):
    spectral_norm = linalg.spectral_norm
    monkeypatch.setattr(linalg, "spectral_norm", lambda mat: 1e9 if mat else spectral_norm(mat))
    assert main(["chaos", str(FOUR_COINS), "--subalgebra", "blocks", "--vector", "pairsum"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "defect bound: FAIL at {0}"
