"""The benchmark tracer's boundaries resolve against the package.

``perfbench/tracer.py`` wraps each boundary by name: a module attribute, or
``cls.__dict__[attr]`` for a method, so that a wrapped method is the one
its own class defines.  This test loads the tracer without installing it
and checks every name, so moving a wrapped method into a base class (or
renaming it) fails here and not only in the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    tracer = load_tracer()
    assert tracer.BOUNDARIES
    for name, modname, clsname, attr in tracer.BOUNDARIES:
        module = importlib.import_module(modname)
        if clsname is None:
            assert callable(getattr(module, attr, None)), name
        else:
            cls = getattr(module, clsname)
            assert callable(cls.__dict__.get(attr)), \
                f"{name}: {clsname}.{attr} is not defined on {clsname} itself"
