"""The benchmark's layer hooks resolve against the program.

``perfbench/tracer.py`` wraps every function named in its ``TARGETS``.  A
renamed or removed target fails here instead of crashing a traced benchmark
run.
"""

import importlib.util
import sys
from pathlib import Path

import nrf_forge.cli  # noqa: F401  imports every module the targets name

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _current(modname: str, attr: str):
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_every_trace_target_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = [_current(m, a) for m, a, _ in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [_current(m, a) for m, a, _ in tracer.TARGETS]
    finally:
        t.uninstall()
    for (m, a, _), orig, now in zip(tracer.TARGETS, originals, wrapped):
        assert now is not orig, f"{m}.{a} was not wrapped"
        assert now.__wrapped__ is orig
    assert [_current(m, a) for m, a, _ in tracer.TARGETS] == originals
