"""In-memory span tracer patched around noise-lab functions from outside.

Each traced call records a span ``[name, start, end, parent, op]``; spans of
one CLI invocation share the op id. A span's self time is its duration minus
the durations of its direct children (calls are nested and single-threaded,
so the children never overlap).

Functions are patched in every ``noise_lab.*`` module that holds the same
function object, because several modules import functions by name
(``chaos`` and ``suite`` use ``project`` and ``walsh_decompose`` directly);
patching ``noise_lab.model`` alone would miss those calls. Methods are patched
on their class. ``uninstall`` restores every original, so untraced ops run the
unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict


def _rref_cells(tr, args, name):
    rows = args[0]
    tr.counters["linalg.rref.cells"] += len(rows) * len(rows[0]) if rows else 0


def _walsh_points(tr, args, name):
    tr.counters["model.walsh.points"] += args[0].n_points


def _repeat_key(key_of):
    """Counter hook recording whether (model, key) was already seen in this op."""

    def hook(tr, args, name):
        seen = tr.seen[name].setdefault(args[0], set())
        key = key_of(args)
        if key in seen:
            tr.counters[name + ".repeats"] += 1
        else:
            seen.add(key)

    return hook


# (span name, module, attribute, counter hook). A dotted attribute names a
# method; span "model.NoiseModel" times construction.
TRACED = (
    ("cli.main", "cli", "main", None),
    ("config.load_model_config", "config", "load_model_config", None),
    ("linalg.rref", "linalg", "rref", _rref_cells),
    ("linalg.nullspace", "linalg", "nullspace", None),
    ("linalg.span_equal", "linalg", "span_equal", None),
    ("linalg.spectral_norm", "linalg", "spectral_norm", None),
    ("model.NoiseModel", "model", "NoiseModel.__init__", None),
    ("model.walsh_vector", "model", "NoiseModel.walsh_vector", _repeat_key(lambda a: a[1])),
    ("model.walsh_decompose", "model", "walsh_decompose", _walsh_points),
    ("model.walsh_reconstruct", "model", "walsh_reconstruct", _walsh_points),
    ("model.project", "model", "project", None),
    ("model.project_oracle", "model", "project_oracle", None),
    ("model.inner_product", "model", "inner_product", None),
    ("model.verify_projection_laws", "model", "verify_projection_laws", None),
    ("chaos.first_chaos_basis", "chaos", "first_chaos_basis", _repeat_key(lambda a: ())),
    ("chaos.split_solution_space", "chaos", "split_solution_space", _repeat_key(lambda a: a[1].mask)),
    ("chaos.split_check", "chaos", "split_check", None),
    ("chaos.product_test", "chaos", "product_test", None),
    (
        "chaos.satisfies_additivity",
        "chaos",
        "satisfies_additivity",
        _repeat_key(lambda a: (a[1].values, tuple(bl.mask for bl in a[2].blocks))),
    ),
    ("chaos.atomless_defect", "chaos", "atomless_defect", None),
    ("chaos.defect_bound_check", "chaos", "defect_bound_check", None),
    ("chaos.additive_vector", "chaos", "additive_vector", None),
    ("chaos.classify", "chaos", "classify", None),
    ("spectrum.build_spectral_space", "spectrum", "build_spectral_space", None),
    ("spectrum.spectral_set", "spectrum", "spectral_set", None),
    ("spectrum.sigma_x", "spectrum", "sigma_x", None),
    ("spectrum.spectral_measure", "spectrum", "spectral_measure", None),
    ("spectrum.subspace_of_event", "spectrum", "subspace_of_event", None),
    ("spectrum.verify_sigma_join", "spectrum", "verify_sigma_join", None),
    ("spectrum.verify_independence", "spectrum", "verify_independence", None),
    ("geometry.build_embedding", "geometry", "build_embedding", None),
    ("geometry.sample_hom", "geometry", "sample_hom", None),
    ("geometry.verify_spectral_set_identity", "geometry", "verify_spectral_set_identity", None),
    ("geometry.spectral_set_map", "geometry", "spectral_set_map", None),
    ("geometry.boundary_dichotomy", "geometry", "boundary_dichotomy", None),
    ("geometry.monotone_limit_check", "geometry", "monotone_limit_check", None),
    ("geometry.verify_shrink_chain", "geometry", "verify_shrink_chain", None),
    ("regopen.verify_reg_laws", "regopen", "verify_reg_laws", None),
    ("regopen.make_regopen", "regopen", "make_regopen", None),
    ("regopen.random_regopen", "regopen", "random_regopen", None),
    ("regopen.finite_space_regopen", "regopen", "finite_space_regopen", None),
    ("boolalg.iter_partitions_of_unity", "boolalg", "iter_partitions_of_unity", None),
    ("boolalg.subsets_of", "boolalg", "subsets_of", None),
)

SPAN_NAMES = tuple(name for name, _, _, _ in TRACED)
REPEAT_SPANS = (
    "model.walsh_vector",
    "chaos.first_chaos_basis",
    "chaos.split_solution_space",
    "chaos.satisfies_additivity",
)
COUNTERS = ("linalg.rref.cells", "model.walsh.points")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.seen: dict[str, weakref.WeakKeyDictionary] = {}

    # -- op boundaries --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        # Repeats are counted within one op: each op builds its own models.
        self.seen = defaultdict(weakref.WeakKeyDictionary)

    def end_op(self) -> None:
        self.op = None
        self.seen = {}

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "noise_lab" or name.startswith("noise_lab."))
        }
        for span, module, attr, hook in TRACED:
            home = modules[f"noise_lab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(span, getattr(cls, meth), hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span, original, hook)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def record(args):
            if hook is not None:
                hook(tracer, args, name)

        if inspect.isgeneratorfunction(fn):
            # Time each next() of a generator, not its lifetime.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                record(args)
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record(args)
            idx = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        return wrapper

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child[i]
        return out
