"""noise-lab benchmark: the public CLI driven in process, one client, closed loop.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Each op is one ``noise_lab.cli.main(argv)`` call with stdout captured, on
inputs generated from ``--seed``. The next op starts only after the previous
one returns. With ``--trace 0`` the run reports end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded around the
program's functions (see ``tracer.py``). ``--workload all`` runs every
workload in turn. The last line of standard output is one JSON object.

Workloads and why they were chosen (sizes are per op):

* ``verify-exact``: ``verify`` on all groups, exact backend, radices
  (2,3,3), N=18. The chaos group (exact Walsh transforms, projections and
  ``rref``) does most of the work; exact-kernel and elimination changes
  should move it.
* ``verify-float``: ``verify`` on all groups, float backend, five ternary
  cells, N=243. The nine exact-only checks skip and ``rref`` never runs;
  geometry and spectrum (which grow with 2^cells) and the float Walsh path do
  the work. Exact-kernel and elimination changes should not move it.
* ``chaos-cli``: ``chaos --subalgebra blocks --vector pairsum`` on radices
  (2,3,2,3), N=36. ``linalg.rref`` is most of an op; the model layer is used
  through a different command.

An op fails when its exit code is not 0, a ``verify`` report has a failure or
an unexpected skip set, a traced op's output differs from the untraced op on
the same inputs, the rerun of the first op at the end of the run differs from
it, or the ``chaos`` output differs from the values derived here
independently (dimension, classification, additivity, the defect bound and
the exact closed-form delta^2).

Host speed. On a shared host the same op can take up to twice as long from
one minute to the next, in CPU time as much as in wall time, so raw op times
mostly measure the neighbours. The gated times are therefore normalised: while
a measured region runs, a ``SIGPROF`` timer interrupts it every
``SAMPLE_EVERY_S`` of CPU time to time one fixed reference pass. The region's
CPU time, less the passes, is divided by the mean pass time and multiplied by
``NOMINAL_PASS_S``: the result is the region's CPU time at the host speed at
which a pass takes ``NOMINAL_PASS_S`` (about an idle core of a 2-core x86-64
box running Python 3.11). Raw wall and CPU times are printed beside them.

End-to-end metrics (``--trace 0``), each printed with its sample count:

* ``setup_s``: importing ``noise_lab`` afresh and generating and writing the
  inputs, normalised; the median of ``SETUP_REPEATS`` set-ups.
* ``op_norm_s.p50``: median normalised CPU time per op.
* ``peak_rss_mb``: the process's peak resident set.
* printed only, because they follow the host: ``ops_per_s``, ``op_s.p50``
  (wall), ``op_cpu_s.p50``, ``setup_wall_s``, ``ref_pass_ms.mean``, and
  ``failed_ratio`` (0 when the run is correct).

Per-layer metrics (``--trace 1``) are per op: ``<module>.<function>.calls``
and ``.self_s``, the counters and ratios of ``tracer.py``, the median wall
time of each ``verify --only <group>``, the skipped and failed checks per
report, and ``trace.overhead_ratio``: the median, over ops, of a traced op's
CPU time divided by that of the same op run untraced just before it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 21
# Distinct configs generated per run; ops cycle through them, so a run's
# median spreads over probability draws rather than resting on one.
CONFIGS_PER_RUN = 16
GROUPS = ("laws", "chaos", "spectrum", "regopen", "geometry")
FLOAT_SKIPS = frozenset(
    [
        "chaos.split_product_equiv",
        "chaos.split_space",
        "chaos.first_chaos",
        "chaos.classification",
        "chaos.additive_norm",
        "chaos.defect_zero",
        "chaos.defect_bound",
        "spectrum.event_subspaces",
        "spectrum.measure_class",
    ]
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "chaos"
    radices: tuple[int, ...]
    backend: str = "exact"
    expected_skips: frozenset = frozenset()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-exact", "verify", (2, 3, 3)),
        Workload("verify-float", "verify", (3, 3, 3, 3, 3), "float", FLOAT_SKIPS),
        Workload("chaos-cli", "chaos", (2, 3, 2, 3)),
    )
}

# The result line's end-to-end metrics; only host-speed-normalised times are
# among them. Everything else is printed with its sample count.
END_TO_END = (
    ("setup_s", "s"),
    ("op_norm_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)
PRINTED = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_cpu_s.p50", "s"),
    ("setup_wall_s", "s"),
    ("ref_pass_ms.mean", "ms"),
    ("failed_ratio", "ratio"),
)


# -- host speed -----------------------------------------------------------------

NOMINAL_PASS_S = 0.001
SAMPLE_EVERY_S = 0.025


def reference_pass() -> None:
    """A fixed pure-Python loop (Fraction, float and dict work, like the
    program's). Changing it changes every normalised time."""
    acc, x, counts = Fraction(0), 0.0, {}
    for i in range(1, 150):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        x += (i * 0.5) ** 0.5
        counts[i % 61] = counts.get(i % 61, 0) + 1


class SpeedSampler:
    """Time a region in CPU seconds at the nominal host speed.

    A SIGPROF timer runs one reference pass every SAMPLE_EVERY_S of CPU time
    inside the region, so the passes see the same host load as the region.
    The handler runs between bytecodes of the one thread; it touches no
    program state. Times are read from the thread's CPU clock: while a
    process CPU timer is armed, Linux reads the process clock only to the
    scheduler tick. ``cpu`` and ``wall`` leave the passes out. Unarmed, it
    only times the region.
    """

    def __init__(self, armed: bool = True) -> None:
        self.armed = armed
        self.passes: list[float] = []
        self.norm_s = self.ref_s = None

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        reference_pass()
        self.passes.append(time.thread_time() - t0)

    def __enter__(self):
        if self.armed:
            signal.signal(signal.SIGPROF, self._tick)
        self.c0, self.t0 = time.thread_time(), time.perf_counter()
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu, wall = time.thread_time() - self.c0, time.perf_counter() - self.t0
        spent = sum(self.passes)
        self.cpu, self.wall = cpu - spent, wall - spent
        if not self.armed:
            return
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        while len(self.passes) < 3:  # a region shorter than a few ticks
            self._tick(None, None)
        self.ref_s = statistics.fmean(self.passes)
        self.norm_s = self.cpu / self.ref_s * NOMINAL_PASS_S


# -- inputs -------------------------------------------------------------------


@dataclass
class Op:
    """One prepared CLI invocation and what its output must show."""

    argv: list[str]
    report: str | None = None  # --json path of a verify op
    delta_sq: Fraction | None = None
    dimension: int = 0


def import_cli():
    """Import noise_lab afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "noise_lab" or n.startswith("noise_lab.")]:
        del sys.modules[name]
    return importlib.import_module("noise_lab.cli")


def prepare(w: Workload, seed: int, work: Path) -> list[Op]:
    """Write CONFIGS_PER_RUN configs drawn from the seed; return one op each."""
    rng = random.Random(f"{w.name}:{seed}")
    ops = []
    for i in range(CONFIGS_PER_RUN):
        path = str(work / f"config-{i}.json")
        if w.command == "verify":
            inputs.write_json(path, inputs.verify_config(rng, w.radices, w.backend))
            report = str(work / f"report-{i}.json")
            argv = ["verify", path, "--seed", str(inputs.draw_op_seed(rng)), "--json", report]
            ops.append(Op(argv, report=report))
        else:
            cfg, delta_sq = inputs.chaos_config(rng, w.radices)
            inputs.write_json(path, cfg)
            argv = ["chaos", path, "--subalgebra", "blocks", "--vector", "pairsum"]
            ops.append(Op(argv, delta_sq=delta_sq, dimension=sum(k - 1 for k in w.radices)))
    return ops


def setup(w: Workload, seed: int, work: Path):
    """Import and prepare SETUP_REPEATS times; return the last set-up and the
    normalised and wall times of each."""
    norm, wall = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()  # frees the last import, so repeats do not raise peak_rss_mb
        with SpeedSampler() as s:
            cli = import_cli()
            work.mkdir(parents=True)
            ops = prepare(w, seed, work)
        norm.append(s.norm_s)
        wall.append(s.wall)
    return cli, ops, norm, wall


# -- running and checking ops ---------------------------------------------------


@dataclass
class Outcome:
    timing: SpeedSampler
    stdout: str
    report: str
    problem: str | None  # None when every output check passed


def run_op(cli, op: Op, w: Workload, only: str | None = None, sample: bool = False) -> Outcome:
    argv = op.argv + (["--only", only] if only else [])
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    timer = SpeedSampler(armed=sample)
    try:
        with timer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed op, not a failed run
        rc = repr(exc)
    report = ""
    if op.report and rc == 0:
        with open(op.report, encoding="utf-8") as fh:
            report = fh.read()
    outcome = Outcome(timer, out.getvalue(), report, None)
    if rc != 0:
        outcome.problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
    elif w.command == "verify":
        outcome.problem = check_report(json.loads(report), w, only)
    else:
        outcome.problem = check_chaos(outcome.stdout, op)
    return outcome


def check_report(report: dict, w: Workload, only: str | None) -> str | None:
    failed = [f"{c['group']}.{c['name']}" for c in report["checks"] if c["status"] == "fail"]
    if failed:
        return f"failed checks {failed}"
    skipped = {f"{c['group']}.{c['name']}" for c in report["checks"] if c["status"] == "skip"}
    expected = {s for s in w.expected_skips if only is None or s.startswith(only + ".")}
    if skipped != expected:
        return f"skip set {sorted(skipped)} != {sorted(expected)}"
    return None


def check_chaos(stdout: str, op: Op) -> str | None:
    lines = stdout.splitlines()
    expected = [
        f"first-chaos dimension: {op.dimension}",
        "classification: classical",
        "additivity on subalgebra: yes",
        f"defect delta^2 = {op.delta_sq}; delta = ",
        "defect bound: pass (all cell sets)",
    ]
    if len(lines) != len(expected) or not all(
        line.startswith(e) for line, e in zip(lines, expected)
    ):
        return f"unexpected chaos output {lines!r}"
    return None


def same_output(a: Outcome, b: Outcome) -> bool:
    return a.stdout == b.stdout and a.report == b.report


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(problem)


# -- runs ---------------------------------------------------------------------


def keep_going(start: float, seconds: float, step_times: list[float]) -> bool:
    """Start another op (or cycle) only if it should end within the window."""
    return time.perf_counter() - start + statistics.median(step_times) <= seconds


def rerun_first(cli, ops: list[Op], w: Workload, first: Outcome, sample: bool) -> Outcome:
    """Run the first op again; its output must be byte-identical."""
    again = run_op(cli, ops[0], w, sample=sample)
    if again.problem is None and not same_output(first, again):
        again.problem = "rerun of the first op is not byte-identical"
    return again


def measure(cli, ops: list[Op], w: Workload, seconds: float, tally: Tally) -> dict:
    """Run ops round-robin for the window, then rerun the first op; the rerun
    is a sample like the others."""
    samples: list[Outcome] = []
    start = time.perf_counter()
    while True:
        samples.append(run_op(cli, ops[len(samples) % len(ops)], w, sample=True))
        tally.add(samples[-1].problem)
        if not keep_going(start, seconds, [s.timing.wall for s in samples]):
            break
    samples.append(rerun_first(cli, ops, w, samples[0], sample=True))
    tally.add(samples[-1].problem)
    window = time.perf_counter() - start
    timings = [s.timing for s in samples]
    n = len(timings)
    return {
        "op_norm_s.p50": (statistics.median(t.norm_s for t in timings), n),
        "ops_per_s": (n / window, n),
        "op_s.p50": (statistics.median(t.wall for t in timings), n),
        "op_cpu_s.p50": (statistics.median(t.cpu for t in timings), n),
        "ref_pass_ms.mean": (statistics.fmean(t.ref_s for t in timings) * 1e3, n),
    }


def measure_traced(cli, ops: list[Op], w: Workload, seconds: float, tally: Tally, tr):
    """Cycles of: an untraced op, the same op traced, and (for verify) one
    untraced ``--only <group>`` op per group. No sampler runs here, so span
    times hold only the program's own work."""
    overheads: list[float] = []  # traced CPU / untraced CPU of the same op
    groups: dict[str, list[float]] = {g: [] for g in GROUPS}
    reports: list[dict] = []
    cycles: list[float] = []
    start = time.perf_counter()
    first = None
    while True:
        t_cycle = time.perf_counter()
        i = len(cycles)
        op = ops[i % len(ops)]
        plain = run_op(cli, op, w)
        tally.add(plain.problem)
        first = first or plain

        tr.install()
        tr.begin_op(i)
        try:
            shadow = run_op(cli, op, w)
        finally:
            tr.end_op()
            tr.uninstall()
        if shadow.problem is None and not same_output(plain, shadow):
            shadow.problem = "traced op output differs from the untraced op"
        tally.add(shadow.problem)
        overheads.append(shadow.timing.cpu / plain.timing.cpu)
        if shadow.report:
            reports.append(json.loads(shadow.report))

        if w.command == "verify":
            for g in GROUPS:
                part = run_op(cli, op, w, only=g)
                tally.add(part.problem)
                groups[g].append(part.timing.wall)
        cycles.append(time.perf_counter() - t_cycle)
        if not keep_going(start, seconds, cycles):
            break
    tally.add(rerun_first(cli, ops, w, first, sample=False).problem)

    n = len(cycles)
    totals = tr.totals()
    metrics: dict[str, float] = {}
    for name in tracer_mod.SPAN_NAMES:
        metrics[f"{name}.calls"] = totals[name]["calls"] / n
        metrics[f"{name}.self_s"] = totals[name]["self_s"] / n
    for name in tracer_mod.REPEAT_SPANS:
        calls = totals[name]["calls"]
        ratio = tr.counters[name + ".repeats"] / calls if calls else 0.0
        key = "hit_ratio" if name == "model.walsh_vector" else "repeat_ratio"
        metrics[f"{name}.{key}"] = ratio
    for name in tracer_mod.COUNTERS:
        metrics[name] = tr.counters[name] / n
    for g in GROUPS:
        metrics[f"suite.group.{g}.s"] = statistics.median(groups[g]) if groups[g] else 0.0
    status = [c["status"] for r in reports for c in r["checks"]]
    metrics["suite.checks.skipped"] = status.count("skip") / n
    metrics["suite.checks.failed"] = status.count("fail") / n
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    return metrics, n


# -- context and output -----------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def steal_seconds() -> float | None:
    """Host CPU steal so far, summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def layer_shares(metrics: dict) -> dict[str, float]:
    """Self time per module as a share of a traced op's time in ``cli.main``
    (the sum of all self times)."""
    shares: dict[str, float] = {}
    for name in tracer_mod.SPAN_NAMES:
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + metrics[f"{name}.self_s"]
    total = sum(shares.values())
    return {m: s / total for m, s in sorted(shares.items(), key=lambda kv: -kv[1])}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    steal0 = steal_seconds()
    tally = Tally()
    shares = None
    try:
        cli, ops, setup_norm, setup_wall = setup(w, seed, work)
        if trace:
            tr = tracer_mod.Tracer()
            values, n = measure_traced(cli, ops, w, seconds, tally, tr)
            metrics = {k: (v, n) for k, v in values.items()}
            printed = {}
            write_spans(tr, w, seed)
            shares = layer_shares(values)
        else:
            printed = measure(cli, ops, w, seconds, tally)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (statistics.median(setup_norm), SETUP_REPEATS),
                "op_norm_s.p50": printed.pop("op_norm_s.p50"),
                "peak_rss_mb": (rss, 1),
            }
            printed["setup_wall_s"] = (statistics.median(setup_wall), SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1 = steal_seconds()
    printed["failed_ratio"] = (len(tally.problems) / tally.attempted, tally.attempted)
    context = {
        "workload": w.name,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "steal_s": None if steal0 is None or steal1 is None else round(steal1 - steal0, 2),
    }
    return {
        "metrics": metrics,
        "printed": printed,
        "attempted": tally.attempted,
        "problems": tally.problems,
        "context": context,
        "shares": shares,
    }


def write_spans(tr, w: Workload, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tr.spans}, fh)
        fh.write("\n")


UNITS = dict(END_TO_END + PRINTED)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_result(result: dict) -> None:
    ctx = result["context"]
    print(f"== {ctx['workload']} (seed {ctx['seed']})")
    for name, (value, n) in (result["metrics"] | result["printed"]).items():
        print(f"  {name:44} {value:14.6g} {unit_of(name):6} n={n}")
    if result["shares"]:
        print("  self-time share of a traced op by layer:")
        for module, share in result["shares"].items():
            print(f"    {module:12} {share:7.1%}")
    for problem in result["problems"][:10]:
        print(f"  FAILED: {problem}")
    print("context: " + json.dumps(ctx))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noise_lab" / "__init__.py").is_file():
        print(f"noise_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_result(result)

    prefix = len(results) > 1
    metrics = {
        (f"{r['context']['workload']}/{name}" if prefix else name): {
            "value": value,
            "unit": unit_of(name),
        }
        for r in results
        for name, (value, _) in r["metrics"].items()
    }
    failed = sum(len(r["problems"]) for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
