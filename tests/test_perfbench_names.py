"""The benchmark's traced run wraps library functions by name.

``perfbench/tracing.py`` looks up every name in ``SPAN_TARGETS`` (module
functions with ``getattr``, methods through the class ``__dict__``), so a
renamed or deleted function breaks the traced run.  This test installs
and removes the span wrappers in a fraction of a second and checks that
every name resolves, gets wrapped, and is restored afterwards.
"""

import importlib
import importlib.util
import os
import sys

import complaff
import complaff.cli  # noqa: F401  (every layer module must be loaded)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    """(owner, attribute) for every traced name: a class or a module."""
    for layer, names in tracing.SPAN_TARGETS.items():
        mod = importlib.import_module(f"complaff.{layer}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                yield getattr(mod, cls_name), attr
            else:
                yield mod, name


def test_span_tracer_wraps_every_name_and_restores_it():
    tracing = load_tracing()
    modules = {n: m for n, m in sys.modules.items()
               if n == "complaff" or n.startswith("complaff.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in targets(tracing)]
    classes = {owner for owner, _, _ in originals if isinstance(owner, type)}
    class_dicts = {cls: dict(vars(cls)) for cls in classes}

    tracer = tracing.SpanTracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.uninstall()

    for n, m in modules.items():
        after = vars(m)
        assert after.keys() == before[n].keys()
        assert all(after[k] is v for k, v in before[n].items()), n
    for cls, saved in class_dicts.items():
        assert all(vars(cls)[k] is v for k, v in saved.items()), cls.__name__
