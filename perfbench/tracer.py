"""Spans around calls into the program's layers, installed from outside.

Each traced function is replaced by a wrapper that records a span: a name,
a start, an end and the index of the enclosing span.  Where a module of the
program imported the function by name, that name is rebound in the importing
module too, so every call path is seen.  Spans stay in memory; the caller
reads them after ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute or Class.method, span name).  A name shared by several
# targets pools them into one layer.  Spans that feed no metric of their own
# (run_algorithm1, the maps builder, prediction models) keep their time out
# of the enclosing span's self time: a maps build inside ``solve`` is not
# search time.
TARGETS = (
    ("nrf_forge.dcf", "design_gains", "dcf.build"),
    ("nrf_forge.dcf", "build_dcf", "dcf.build"),
    ("nrf_forge.sparse_param", "build_parametrization", "sparse_param.build"),
    ("nrf_forge.match_synth", "run_algorithm1", "match_synth.run_algorithm1"),
    ("nrf_forge.match_synth", "solve", "match_synth.search"),
    ("nrf_forge.match_synth", "_pattern_search", "match_synth.search"),
    ("nrf_forge.match_synth", "_SurrogateModel.__init__", "match_synth.surrogate_build"),
    ("nrf_forge.match_synth", "_SurrogateModel.gammas_from", "match_synth.surrogate_eval"),
    ("nrf_forge.match_synth", "constraint_norms", "match_synth.certify"),
    ("nrf_forge.match_synth", "MapsBuilder.__call__", "match_synth.maps_builder"),
    ("nrf_forge.closed_loop", "build_closed_loop_maps", "closed_loop.maps_build"),
    ("nrf_forge.closed_loop", "prediction_model", "closed_loop.prediction_model"),
    ("nrf_forge.nrf", "form_nrf_pair", "nrf.form_pair"),
    ("nrf_forge.lti", "hinf_norm", "lti.hinf_norm"),
    ("nrf_forge.lti", "evaluate", "lti.evaluate"),
    ("nrf_forge.lti", "minimal", "lti.minimal"),
    ("nrf_forge.lti", "frequency_response", "lti.frequency_response"),
    ("nrf_forge.verify", "run_invariant_suite", "verify.suite"),
    ("nrf_forge.cli", "_write_synthesis_report", "io.export"),
) + tuple(("nrf_forge.io", f, "io.export") for f in (
    "dump_document", "export_plant", "export_partition", "export_bundle", "export_bank",
    "export_maps", "export_prediction_models", "export_parametrization",
)) + tuple(("nrf_forge.io", f, "io.load") for f in (
    "load_document", "load_plant", "load_partition", "load_bundle", "load_bank",
    "load_parametrization",
))


class Tracer:
    """Records spans as [name, start, end, parent]; parent -1 is the top."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nrf_forge" or k.startswith("nrf_forge."))]
        for modname, attr, name in targets:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)


def _children_time(spans: list) -> list:
    out = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] += end - start
    return out


def summarize(spans: list) -> dict:
    """Per-name totals: {name: {"calls", "total_s", "self_s", "durations"}}.

    ``total_s`` counts only spans with no ancestor of the same name, so
    nested calls of one layer are not counted twice; ``self_s`` is each
    span's duration minus the time its child spans cover.
    """
    children_time = _children_time(spans)
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - children_time[i]
        rec["durations"].append(end - start)
        if not _has_named_ancestor(spans, parent, name):
            rec["total_s"] += end - start
    return out


def covered_share(spans: list, root: str, names) -> float:
    """Share of the first ``root`` span's duration that is self time of its
    descendant spans named in ``names``.

    Self times of a subtree add up to the root's duration, so the rest is
    the self time of the root and of descendants outside ``names``.
    """
    children_time = _children_time(spans)
    r = next(i for i, s in enumerate(spans) if s[0] == root)
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name in names and _has_ancestor(spans, parent, r):
            covered += (end - start) - children_time[i]
    return covered / (spans[r][2] - spans[r][1])


def _has_ancestor(spans: list, i: int, r: int) -> bool:
    while i > r:
        i = spans[i][3]
    return i == r


def _has_named_ancestor(spans: list, i: int, name: str) -> bool:
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False
