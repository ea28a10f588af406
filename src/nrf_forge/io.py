"""Artifact serialization: plain-text JSON documents, 17-significant-digit reals.

Matrices are row-major nested arrays.  Indices inside documents (area
numbers, column maps) are 1-based; everything in memory stays 0-based.
Exports round-trip bit-exactly, which the CLI relies on for determinism
checks.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .dcf import DcfBundle
from .errors import DimensionMismatchError
from .lti import Realization, make_realization
from .nrf import AreaController
from .partition import AreaPartition, Neighborhoods, build_partition, input_areas, readable
from .plant import Plant
from .sparse_param import QParametrization, SparsityPattern


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_value(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for idx, (k, v) in enumerate(items):
            out.append(f'{pad}  {json.dumps(k)}: ')
            _write_value(v, out, indent + 1)
            out.append(",\n" if idx + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # floats, the bulk of every document, are tested and formatted first
        simple = all(type(v) is float or isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if simple:
            items = [format(v, ".17g") if type(v) is float else _scalar(v) for v in seq]
            out.append("[" + ", ".join(items) + "]")
            return
        out.append("[\n")
        for idx, v in enumerate(seq):
            out.append(pad + "  ")
            _write_value(v, out, indent + 1)
            out.append(",\n" if idx + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(v) -> str:
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    raise TypeError(f"cannot serialize {type(v)}")


def dump_document(obj: dict, path: str) -> None:
    out: list[str] = []
    _write_value(_plainify(obj), out, 0)
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


def _plainify(obj):
    if isinstance(obj, dict):
        return {k: _plainify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [v if type(v) is float else _plainify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def load_document(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        # name the file; the decoder alone reports only line and column
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


def matrix_doc(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.tolist()}


def matrix_from_doc(doc: dict) -> np.ndarray:
    M = np.asarray(doc["data"], dtype=float)
    M = M.reshape(int(doc["rows"]), int(doc["cols"]))
    return M


def realization_doc(R: Realization) -> dict:
    return {
        "order": R.order,
        "outputs": R.noutputs,
        "inputs": R.ninputs,
        "stability_domain": R.stability_domain,
        "A": matrix_doc(R.A) if R.order else {"rows": 0, "cols": 0, "data": []},
        "B": matrix_doc(R.B) if R.order else {"rows": 0, "cols": R.ninputs, "data": []},
        "C": matrix_doc(R.C) if R.order else {"rows": R.noutputs, "cols": 0, "data": []},
        "D": matrix_doc(R.D),
    }


def realization_from_doc(doc: dict) -> Realization:
    n, p, m = int(doc["order"]), int(doc["outputs"]), int(doc["inputs"])
    A = matrix_from_doc(doc["A"]).reshape(n, n)
    B = matrix_from_doc(doc["B"]).reshape(n, m)
    C = matrix_from_doc(doc["C"]).reshape(p, n)
    D = matrix_from_doc(doc["D"]).reshape(p, m)
    return make_realization(A, B, C, D, doc.get("stability_domain", "unit_disc"))


# ---------------------------------------------------------------------------
# composite artifacts
# ---------------------------------------------------------------------------

def export_plant(plant: Plant, path: str) -> None:
    dump_document({"A": matrix_doc(plant.A), "B_u": matrix_doc(plant.B_u),
                   "B_d": matrix_doc(plant.B_d)}, path)


def load_plant(path: str) -> Plant:
    doc = load_document(path)
    return Plant(matrix_from_doc(doc["A"]), matrix_from_doc(doc["B_u"]),
                 matrix_from_doc(doc["B_d"]))


def export_bundle(bundle: DcfBundle, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for name, fac in bundle.factors().items():
        dump_document(realization_doc(fac), os.path.join(dirpath, f"{name}.json"))
    manifest = {
        "F": matrix_doc(bundle.F),
        "L": matrix_doc(bundle.L),
        "bezout_residual": bundle.bezout_residual,
        "grid_size": bundle.grid_size,
        "fir_orders": {k: (int(v) if v is not None else None)
                       for k, v in (bundle.fir_orders or {}).items()},
    }
    dump_document(manifest, os.path.join(dirpath, "manifest.json"))


def load_bundle(dirpath: str, plant: Plant) -> DcfBundle:
    manifest = load_document(os.path.join(dirpath, "manifest.json"))
    facs = {name: realization_from_doc(load_document(os.path.join(dirpath, f"{name}.json")))
            for name in ("N", "M", "X", "Y", "Nt", "Mt", "Xt", "Yt")}
    fir = manifest.get("fir_orders") or None
    if fir is not None:
        fir = {k: (int(v) if v is not None else None) for k, v in fir.items()}
    return DcfBundle(
        facs["N"], facs["M"], facs["X"], facs["Y"],
        facs["Nt"], facs["Mt"], facs["Xt"], facs["Yt"],
        matrix_from_doc(manifest["F"]), matrix_from_doc(manifest["L"]),
        plant, float(manifest["bezout_residual"]), int(manifest["grid_size"]), fir,
    )


def export_bank(bank, partition: AreaPartition, dirpath: str) -> None:
    """One document per area plus a manifest mapping input columns to their
    (signal kind, source area), 1-based, exactly as deployment wires them."""
    os.makedirs(dirpath, exist_ok=True)
    columns = [{"column": col + 1,
                "kind": "command_feedforward" if col < partition.n_u else "state_feedback",
                "source_area": int(src) + 1}
               for col, src in enumerate(input_areas(partition))]
    dump_document({"n_areas": partition.n_areas, "input_columns": columns},
                  os.path.join(dirpath, "manifest.json"))
    for ctrl in bank:
        doc = {
            "area": ctrl.area + 1,
            "row_orders": list(ctrl.row_orders),
            "A": matrix_doc(ctrl.A) if ctrl.order else {"rows": 0, "cols": 0, "data": []},
            "B": matrix_doc(ctrl.B) if ctrl.order else {"rows": 0, "cols": ctrl.B.shape[1], "data": []},
            "C": matrix_doc(ctrl.C),
            "D": matrix_doc(ctrl.D),
            "w0": list(ctrl.w0),
        }
        dump_document(doc, os.path.join(dirpath, f"area_{ctrl.area + 1}.json"))


def load_bank(dirpath: str, partition: AreaPartition):
    bank = []
    for i in range(partition.n_areas):
        doc = load_document(os.path.join(dirpath, f"area_{i + 1}.json"))
        orders = [int(v) for v in doc["row_orders"]]
        n_w = sum(orders)
        width = partition.n_u + partition.n_x
        A = matrix_from_doc(doc["A"]).reshape(n_w, n_w)
        B = matrix_from_doc(doc["B"]).reshape(n_w, width)
        C = matrix_from_doc(doc["C"]).reshape(len(orders), n_w)
        D = matrix_from_doc(doc["D"]).reshape(len(orders), width)
        bank.append(AreaController(i, A, B, C, D, tuple(orders),
                                   np.asarray(doc["w0"], dtype=float)))
    return bank


def export_parametrization(param: QParametrization, x: np.ndarray, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    doc = {
        "fir_degree": param.fir_degree,
        "residual": param.residual,
        "constraint_rank": param.constraint_rank,
        "n_constraints": param.n_constraints,
        "n_free": param.n_free,
        "q0_taps": [matrix_doc(param.q0_taps[t]) for t in range(param.fir_degree)],
        "basis": [[matrix_doc(param.basis[k][t]) for t in range(param.fir_degree)]
                  for k in range(param.n_free)],
        "x": list(np.asarray(x, dtype=float)),
        "pattern": matrix_doc(param.pattern.matrix),
        "support": matrix_doc(param.support),
    }
    dump_document(doc, os.path.join(dirpath, "parametrization.json"))


def load_parametrization(dirpath: str):
    doc = load_document(os.path.join(dirpath, "parametrization.json"))
    q = int(doc["fir_degree"])
    q0 = np.stack([matrix_from_doc(d) for d in doc["q0_taps"]]) if q else np.zeros((0, 0, 0))
    if doc["basis"]:
        basis = np.stack([np.stack([matrix_from_doc(d) for d in taps]) for taps in doc["basis"]])
    else:
        basis = np.zeros((0,) + q0.shape)
    # older run directories also carry a "mode" key, which is ignored
    pattern = matrix_from_doc(doc["pattern"])
    n_u = pattern.shape[0]
    param = QParametrization(q0, basis, q, float(doc["residual"]),
                             int(doc["constraint_rank"]), int(doc["n_constraints"]),
                             SparsityPattern(pattern, n_u, pattern.shape[1] - n_u),
                             matrix_from_doc(doc["support"]) != 0)
    x = np.asarray(doc["x"], dtype=float)
    if x.shape != (param.n_free,):
        raise DimensionMismatchError(
            f"x has shape {x.shape}, the parametrization has {param.n_free} free coefficients")
    return param, x


def export_maps(maps, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    dump_document(realization_doc(maps.forced), os.path.join(dirpath, "forced.json"))
    dump_document(realization_doc(maps.initial), os.path.join(dirpath, "initial.json"))
    dump_document(realization_doc(maps.ic_plant_factor), os.path.join(dirpath, "ic_plant_factor.json"))
    dump_document(realization_doc(maps.ic_controller_factor),
                  os.path.join(dirpath, "ic_controller_factor.json"))
    dump_document(realization_doc(maps.g_d), os.path.join(dirpath, "g_d.json"))


def export_prediction_models(models, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for pm in models:
        doc = {
            "area": pm.area + 1,
            "A_s": matrix_doc(pm.A_s) if pm.order else {"rows": 0, "cols": 0, "data": []},
            "B_s1": matrix_doc(pm.B_s1) if pm.order else {"rows": 0, "cols": pm.B_s1.shape[1], "data": []},
            "B_s2": matrix_doc(pm.B_s2) if pm.order else {"rows": 0, "cols": pm.B_s2.shape[1], "data": []},
            "C_x": matrix_doc(pm.C_x),
            "C_u": matrix_doc(pm.C_u),
            "initial_state": [0.0] * pm.order,
        }
        dump_document(doc, os.path.join(dirpath, f"area_{pm.area + 1}.json"))


def export_trace_csv(trace, path: str) -> None:
    """One row per time step; 1-based column families x_*, uf_*, u_*, w_*."""
    n_x, n_u, n_w = trace.x.shape[1], trace.u_f.shape[1], trace.w.shape[1]
    header = (["k"]
              + [f"x_{i + 1}" for i in range(n_x)]
              + [f"uf_{i + 1}" for i in range(n_u)]
              + [f"u_{i + 1}" for i in range(n_u)]
              + [f"w_{i + 1}" for i in range(n_w)])
    lines = [",".join(header)]
    for k in range(trace.horizon):
        row = [str(trace.start_index + k)]
        for block in (trace.x[k], trace.u_f[k], trace.u[k], trace.w[k]):
            row.extend(_fmt(v) for v in block)
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_partition(partition: AreaPartition, nb: Neighborhoods, path: str) -> None:
    dump_document({
        "sizes": [[partition.size("x", i), partition.size("u", i)]
                  for i in range(partition.n_areas)],
        "w_sizes": (list(partition.w_sizes) if partition.w_sizes is not None else None),
        "neighborhoods": [sorted(j + 1 for j in nb.of(i)) for i in range(nb.n_areas)],
    }, path)


def partition_from_doc(sizes, neighborhoods):
    """(partition, nb) from (n_xi, n_ui) pairs and 1-based neighborhood
    lists; raises unless there is one valid set per area."""
    part = build_partition([tuple(s) for s in sizes])
    nb = Neighborhoods(tuple(frozenset(int(j) - 1 for j in s) for s in neighborhoods))
    readable(part, nb)
    return part, nb


def load_partition(path: str):
    doc = load_document(path)
    part, nb = partition_from_doc(doc["sizes"], doc["neighborhoods"])
    if doc.get("w_sizes") is not None:
        part = part.with_w_sizes(doc["w_sizes"])
    return part, nb
