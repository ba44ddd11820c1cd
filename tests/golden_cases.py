"""The golden cases: `noise-lab verify`, `noise-lab chaos` and `noise-lab
spectrum` arguments whose output is committed in ``tests/golden/``.

``tests/test_golden.py`` reads the tables below. Run as a script, this file
regenerates every case with the standard library alone and compares the
bytes, so the goldens can be checked under an interpreter without pytest:

    PYTHONPATH=src python tests/golden_cases.py

It prints one line per mismatch and exits 1 if there is any.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from noise_lab.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

# name -> verify arguments; the reports are GOLDEN/<name>.txt and .json.
CASES = {
    "two-coins-seed0": ["examples/two-coins.json", "--seed", "0"],
    "four-coins-seed3": ["examples/four-coins.json", "--seed", "3"],
    "four-coins-float-seed0": ["examples/four-coins.json", "--backend", "float", "--seed", "0"],
    "five-ternary-float-seed0": ["tests/golden/five-ternary-float.json", "--seed", "0"],
    # Exact, radices (2,3,3) with unequal probabilities: the k = 3 exact path.
    "mixed-233-exact-seed0": ["tests/golden/mixed-233-exact.json", "--seed", "0"],
    # 13 fair coins, exact, no embedding (N=8192): every size and embedding skip line.
    "thirteen-coins-seed0": ["tests/golden/thirteen-coins.json", "--seed", "0"],
    # 10 float cells, radices (2,3,2,2,3,2,2,2,2,2): the spectrum group on 1024 atoms.
    "ten-cells-float-spectrum-seed0": [
        "tests/golden/ten-cells-float.json", "--only", "spectrum", "--seed", "0"
    ],
}

# name -> chaos arguments; the output is GOLDEN/<name>.txt. pairsum-2323.json
# is a perfbench-style chaos-cli config (radices 2,3,2,3) with delta^2 = 20/441.
CHAOS_CASES = {
    "two-coins-chaos": ["examples/two-coins.json", "--subalgebra", "blocks", "--vector", "demo"],
    "four-coins-chaos": ["examples/four-coins.json", "--subalgebra", "blocks", "--vector", "pairsum"],
    "pairsum-2323-chaos": [
        "tests/golden/pairsum-2323.json", "--subalgebra", "blocks", "--vector", "pairsum"
    ],
}

# name -> spectrum arguments; the table is GOLDEN/<name>.txt and the --csv
# file GOLDEN/<name>.csv. pairsum-2323-float.json is pairsum-2323.json on the
# float backend.
SPECTRUM_CASES = {
    "two-coins-spectrum": ["examples/two-coins.json", "--vector", "demo"],
    "pairsum-2323-float-spectrum": ["tests/golden/pairsum-2323-float.json", "--vector", "pairsum"],
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def mismatches() -> list[str]:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for name, args in sorted(CASES.items()):
            code, text = _run(["verify", str(REPO / args[0]), *args[1:], "--json", str(report)])
            if code != 0:
                bad.append(f"{name}: exit {code}")
            if text != (GOLDEN / f"{name}.txt").read_bytes():
                bad.append(f"{name}: text report differs")
            if report.read_bytes() != (GOLDEN / f"{name}.json").read_bytes():
                bad.append(f"{name}: json report differs")
        csv = Path(tmp) / "table.csv"
        for name, args in sorted(SPECTRUM_CASES.items()):
            code, text = _run(["spectrum", str(REPO / args[0]), *args[1:], "--csv", str(csv)])
            if code != 0 or text != (GOLDEN / f"{name}.txt").read_bytes():
                bad.append(f"{name}: spectrum table differs (exit {code})")
            if csv.read_bytes() != (GOLDEN / f"{name}.csv").read_bytes():
                bad.append(f"{name}: spectrum csv differs")
    for name, args in sorted(CHAOS_CASES.items()):
        code, text = _run(["chaos", str(REPO / args[0]), *args[1:]])
        if code != 0 or text != (GOLDEN / f"{name}.txt").read_bytes():
            bad.append(f"{name}: chaos output differs (exit {code})")
    return bad


if __name__ == "__main__":
    bad = mismatches()
    print("\n".join(bad) or f"all {len(CASES) + len(CHAOS_CASES) + len(SPECTRUM_CASES)} golden cases match")
    sys.exit(1 if bad else 0)
