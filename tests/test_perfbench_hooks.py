"""The benchmark's tracer (perfbench/tracer.py) wraps package functions and
methods by name, reading methods from each class's own __dict__. A change
that renames one, or moves it into a base class, must fail here rather than
break traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(modname, attr):
    module = importlib.import_module("tgcn." + modname)
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(module, cls)).get(meth)
    return getattr(module, attr, None)


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = [(m, a) for m, a, _ in tracer.FUNCTIONS]
    targets += [("autodiff", p) for p in tracer.PRIMITIVES]
    t = tracer.Tracer()
    try:
        t.install()
        unwrapped = [(m, a) for m, a in targets
                     if not hasattr(_target(m, a), "__wrapped__")]
    finally:
        t.uninstall()
    assert unwrapped == []
    assert not any(hasattr(_target(m, a), "__wrapped__") for m, a in targets)
