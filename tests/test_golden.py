"""`noise-lab verify` reports, text and --json, `noise-lab chaos` output and
`noise-lab spectrum` tables, printed and --csv, byte for byte against the
committed files in ``tests/golden/``.

A change meant to keep behaviour (a refactor or a speed-up) must keep these
bytes. A change meant to alter a report regenerates the affected files with
the command in ``CASES``, ``CHAOS_CASES`` or ``SPECTRUM_CASES``
(``golden_cases.py``, which also checks every case without pytest) and says
so.
"""

import sys

import pytest

from noise_lab import boolalg, linalg
from noise_lab.cli import main
from noise_lab.config import ModelConfig

from golden_cases import CASES, CHAOS_CASES, GOLDEN, REPO, SPECTRUM_CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_matches_golden(name, tmp_path, capsys):
    args = CASES[name]
    report = tmp_path / "report.json"
    code = main(["verify", str(REPO / args[0]), *args[1:], "--json", str(report)])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_verify_builds_no_model_when_every_model_check_skips(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ModelConfig, "build_model", refuse)
    name = "thirteen-coins-seed0"
    assert main(["verify", str(REPO / CASES[name][0]), *CASES[name][1:]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


def test_verify_geometry_builds_no_model(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the model was built")

    monkeypatch.setattr(ModelConfig, "build_model", refuse)
    assert main(["verify", str(REPO / "examples" / "two-coins.json"), "--only", "geometry", "--seed", "0"]) == 0
    golden = (GOLDEN / "two-coins-seed0.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    geometry = [line for line in golden if line.startswith("PASS  geometry.")]
    assert len(geometry) == 6
    expected = "".join(geometry) + "summary: 6 passed, 0 failed, 0 skipped\n"
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", sorted(CHAOS_CASES))
def test_chaos_output_matches_golden(name, capsys):
    args = CHAOS_CASES[name]
    assert main(["chaos", str(REPO / args[0]), *args[1:]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_spectrum_table_matches_golden(name, tmp_path, capsys):
    args = SPECTRUM_CASES[name]
    csv = tmp_path / "table.csv"
    assert main(["spectrum", str(REPO / args[0]), *args[1:], "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
    assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def _refuse_everywhere(monkeypatch, fn):
    """Make every noise_lab module attribute bound to fn raise when called."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} ran")

    for name, module in list(sys.modules.items()):
        if name == "noise_lab" or name.startswith("noise_lab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("name", sorted(CHAOS_CASES))
def test_chaos_output_runs_no_suite_oracle(name, monkeypatch, capsys):
    # Elimination, the span comparison and the partition brute force run
    # only in their suite checks (chaos.first_chaos, chaos.defect_bound).
    for oracle in (linalg.rref, linalg.nullspace, linalg.span_equal, boolalg.iter_partitions_of_unity):
        _refuse_everywhere(monkeypatch, oracle)
    args = CHAOS_CASES[name]
    assert main(["chaos", str(REPO / args[0]), *args[1:]]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
