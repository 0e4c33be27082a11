"""Every name that the benchmark tracer wraps still resolves in braidorbit.

`perfbench/tracer.py` is read, not changed: its `TRACED` table names
functions as `module.function` or `module.Class.method`, where the method
`mul` means `__mul__` and `build` means `__init__`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
METHODS = {"mul": "__mul__", "build": "__init__"}


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [name for names in tracer.TRACED.values() for name in names]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, *path = name.split(".")
    owner = importlib.import_module(f"braidorbit.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = METHODS.get(path[-1], path[-1]) if len(path) > 1 else path[-1]
    assert callable(getattr(owner, attr, None)), name
