"""Every function the benchmark's tracer patches still exists in noise_lab.

The traced benchmark run fails when a refactor deletes or renames a traced
function; this test makes that visible in the test suite. It loads
``perfbench/tracer.py`` from its path and only reads its ``TRACED`` table.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _traced_table():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_entry_resolves_to_a_noise_lab_function():
    table = _traced_table()
    assert table
    for span, module_name, attr, _hook in table:
        module = importlib.import_module(f"noise_lab.{module_name}")
        obj = module
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: noise_lab.{module_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert inspect.isfunction(obj), f"{span}: {attr} is not a function"
        assert obj.__module__ == module.__name__, f"{span}: {attr} defined elsewhere"
