"""Command line front end.

Exit codes: 0 all checks pass, 1 at least one failure, 2 input error
(including a config that `chaos` or `spectrum` refuses for its backend or
size, an output path that cannot be written, which is refused before any
check runs, and a value beyond the float range), 3 a check was skipped
while --strict was requested.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import chaos as chaos_mod
from . import spectrum as spec_mod
from .boolalg import BoolElem, Subalgebra
from .config import load_model_config
from .suite import EXACT_CAP, GROUPS, run_verification_suite, skip_reason


def decimal12(x) -> str:
    """12 significant digits, for the human/CSV renderings."""
    return f"{float(x):.12g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noise-lab",
        description="Exact verification laboratory for finite noise-type Boolean algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite on a config")
    p_verify.add_argument("config")
    p_verify.add_argument("--only", default="all", choices=GROUPS + ("all",))
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--backend", choices=("exact", "float"), default=None)
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--json", metavar="PATH", default=None, help="write the machine report")

    p_spec = sub.add_parser("spectrum", help="print the spectral measure of a vector")
    p_spec.add_argument("config")
    p_spec.add_argument("--vector", required=True)
    p_spec.add_argument("--csv", metavar="PATH", default=None)

    p_chaos = sub.add_parser("chaos", help="first-chaos summary for a config")
    p_chaos.add_argument("config")
    p_chaos.add_argument("--subalgebra", default=None)
    p_chaos.add_argument("--vector", default=None)
    return parser


def _override(cfg, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.backend is not None:
        updates["backend"] = args.backend
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_verify(args) -> int:
    cfg = _override(load_model_config(args.config), args)
    if args.json:
        _write(args.json, "")  # refuse an unwritable path before any check runs
    report = run_verification_suite(cfg, args.only)
    sys.stdout.write(report.render_text())
    if args.json:
        _write(args.json, report.to_json())
    return report.exit_code(strict=args.strict)


def _write(path, text):
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _load_admitted(path, **needs):
    """Load a config, refusing it before any model is built when a command
    with these needs (as in suite.skip_reason) cannot run on it."""
    cfg = load_model_config(path)
    refusal = skip_reason(cfg, **needs)
    if refusal is not None:
        raise ValueError(refusal)
    return cfg


def _cmd_spectrum(args) -> int:
    cfg = _load_admitted(args.config, points=EXACT_CAP)
    values = cfg.vector(args.vector)
    # One row per atom: label, multiplicity, canonical mass, spectral mass
    # (an exact fraction on the exact backend) and a 12-digit decimal.
    model = cfg.build_model()
    psi = model.from_values(values)
    space = spec_mod.build_spectral_space(model)
    masses = spec_mod.spectral_measure(model, psi)
    mass = str if model.backend == "exact" else decimal12
    headers = ("atom", "dim", "canonical", "mass", "mass_decimal")
    rows = [
        (repr(BoolElem(a, model.n_cells)), str(dim), str(canonical), mass(m), decimal12(m))
        for a, (dim, canonical, m) in enumerate(zip(space.dims, space.measure, masses))
    ]
    if args.csv:
        _write(args.csv, "")  # refuse an unwritable path once every value is formatted
    widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
    out = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(headers))]
    for r in rows:
        out.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))))
    sys.stdout.write("\n".join(out) + "\n")

    if args.csv:
        csv = [",".join(headers)]
        csv.extend(",".join(f'"{r[0]}"' if c == 0 else r[c] for c in range(len(headers))) for r in rows)
        _write(args.csv, "\n".join(csv) + "\n")
    return 0


def _cmd_chaos(args) -> int:
    cfg = _load_admitted(args.config, exact=True, points=EXACT_CAP)
    n = cfg.n_cells
    finest = Subalgebra(n, tuple(BoolElem(1 << i, n) for i in range(n)))
    sub = finest if args.subalgebra is None else cfg.subalgebra(args.subalgebra)
    values = None if args.vector is None else cfg.vector(args.vector)
    worst = None
    model = cfg.build_model()
    basis = chaos_mod.first_chaos_basis(model)
    kind = chaos_mod.classify(model, basis)
    lines = [
        f"first-chaos dimension: {len(basis)}",
        f"classification: {kind.value}" + (" (degenerate)" if n == 0 else ""),
    ]
    if args.vector is not None:
        psi = model.from_values(values)
        try:
            cert = chaos_mod.atomless_defect(model, psi, sub)
        except chaos_mod.NotAdditiveError:
            cert = None
        lines.append(f"additivity on subalgebra: {'no' if cert is None else 'yes'}")
        if cert is not None:
            lines.append(
                f"defect delta^2 = {cert.delta_sq}; delta = {decimal12(cert.delta)}"
            )
            # The mixed matrix of ~x is that of x transposed, so the masks
            # without the top cell decide every cell set and hold the first failure.
            xs = [BoolElem(mask, n) for mask in range(max(1, (1 << n) // 2))]
            reports = chaos_mod.defect_bound_check(model, cert, xs)
            worst = next((x for x, rep in zip(xs, reports) if not rep.passed), None)
            lines.append(
                "defect bound: pass (all cell sets)"
                if worst is None
                else f"defect bound: FAIL at {worst}"
            )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if worst is None else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
    except OverflowError as exc:
        print(f"input error: a value is beyond the float range ({exc})", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
