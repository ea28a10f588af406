"""Command-line entry point.

Subcommands: ``example-grid`` writes a ready-to-run scenario configuration,
``design`` runs the full first-layer synthesis and exports the artifact set,
``verify`` replays the invariant suite on an exported run directory,
``simulate`` produces monolithic and distributed traces, and ``report``
collates everything into one human-readable summary.

Exit codes: 0 success, 2 configuration error, 3 design infeasibility,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import io as artifact_io
from .closed_loop import build_closed_loop_maps, prediction_model
from .dcf import STRATEGY_BLOCK_DEADBEAT, STRATEGY_USER
from .errors import (
    AlgebraicLoopError,
    CommConstraintError,
    DimensionMismatchError,
    NonStabilizingGainsError,
    UncontrollableModeError,
)
from .grid import (
    build_grid_plant,
    coefficients_from_dict,
    grid_neighborhoods,
    grid_partition,
    surrogate_coefficients,
)
from .lti import frequency_response, FrequencyGrid
from .match_synth import AlgorithmConfig, AlgorithmReport, run_algorithm1
from .nrf import form_nrf_pair
from .plant import Plant
from .sim_net import NOISE_KINDS, compose_signals, simulate_distributed, simulate_monolithic
from .sparse_param import MIN_FIR_DEGREE
from .verify import run_invariant_suite

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = artifact_io.load_document(path)
    _setting("schema_version", cfg.get("schema_version"), int, "1", lambda v: v == 1)
    return cfg


def _apply_permutation(M: np.ndarray, rows, cols) -> np.ndarray:
    out = M
    if rows is not None:
        out = out[np.asarray(rows, dtype=int) - 1, :]
    if cols is not None:
        out = out[:, np.asarray(cols, dtype=int) - 1]
    return out


def _plant_from_config(cfg: dict, coeffs_path: str | None) -> Plant:
    if "grid" in cfg:
        doc = dict(cfg["grid"])
        if coeffs_path:
            doc = artifact_io.load_document(coeffs_path)
        coeffs = coefficients_from_dict(doc) if ("h" in doc) else surrogate_coefficients()
        return build_grid_plant(coeffs)
    if "plant" not in cfg:
        raise ConfigError("config needs either a 'plant' or a 'grid' section")
    pl = cfg["plant"]
    try:
        A = np.asarray(pl["A"], dtype=float)
        B_u = np.asarray(pl["B_u"], dtype=float)
        B_d = np.asarray(pl["B_d"], dtype=float)
    except KeyError as exc:
        raise ConfigError(f"plant section is missing {exc}") from exc
    # documented pre-permutation helper: the toolkit needs contiguous
    # ascending area index sets, so interleaved models are reordered here
    sp = pl.get("state_permutation")
    ip = pl.get("input_permutation")
    if sp is not None:
        A = _apply_permutation(_apply_permutation(A, sp, None), None, sp)
        B_u = _apply_permutation(B_u, sp, None)
        B_d = _apply_permutation(B_d, sp, None)
    if ip is not None:
        B_u = _apply_permutation(B_u, None, ip)
    try:
        return Plant(A, B_u, B_d)
    except DimensionMismatchError as exc:
        raise ConfigError(str(exc)) from exc


def _partition_from_config(cfg: dict):
    try:
        return artifact_io.partition_from_doc(cfg["partition"], cfg["neighborhoods"])
    except (KeyError, ValueError, DimensionMismatchError) as exc:
        raise ConfigError(f"invalid partition/neighborhoods: {exc}") from exc


def _setting(name: str, value, kind: type, need: str, ok=lambda v: True):
    """``value`` as a ``kind`` (int or float), if it is exactly one and
    ``ok`` holds for it; otherwise a ConfigError saying it must be ``need``.
    Strings, bools and lossy casts are rejected."""
    try:
        cast = kind(value)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if isinstance(value, bool) or cast is None or cast != value or not ok(cast):
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return cast


#: Synthesis keys that name the parametrization; each is accepted only at
#: the one value the program implements.
FIXED_SYNTHESIS_KEYS = {"param_mode": "factored", "preserve_diagonal": True}


def _object(section: dict, prefix: str, key: str) -> dict:
    """``section[key]``, an empty dict when absent; a ConfigError unless it is an object."""
    value = section.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{prefix}.{key} must be an object, got {value!r}")
    return value


def _algorithm_config(cfg: dict, q_override: int | None) -> AlgorithmConfig:
    syn = dict(cfg.get("synthesis", {}))
    if syn.get("norm", "hinf") != "hinf":
        raise ConfigError("only the 'hinf' norm is supported at v1; "
                          "the quadratic-norm route is out of scope")
    q = _setting("synthesis.q", q_override if q_override is not None else syn.get("q", 2),
                 int, "an int")
    if q < MIN_FIR_DEGREE:
        raise ConfigError(f"FIR degree q = {q} is too small; the parametrization needs q >= {MIN_FIR_DEGREE}")
    for key, only in FIXED_SYNTHESIS_KEYS.items():
        value = syn.get(key, only)
        if (type(value), value) != (type(only), only):
            raise ConfigError(f"synthesis.{key} must be {json.dumps(only)}, got {value!r}; "
                              "the factored, diagonal-preserving parametrization is the only one")
    strategy = str(syn.get("gain_strategy", STRATEGY_BLOCK_DEADBEAT))
    if strategy != STRATEGY_BLOCK_DEADBEAT:
        why = ("needs explicit F and L, which a config cannot supply" if strategy == STRATEGY_USER
               else "is unknown")
        raise ConfigError(f"gain_strategy {strategy!r} {why}; "
                          f"a config may only use {STRATEGY_BLOCK_DEADBEAT!r}")
    bound_slack = _setting("synthesis.bound_slack", syn.get("bound_slack", 0.0),
                           float, "a finite float >= 0", lambda v: 0 <= v < float("inf"))
    # the optimizer's and the Bezout grid's keys name settings the design no longer has
    removed = [f"synthesis.optimizer.{key}" for key in _object(syn, "synthesis", "optimizer")]
    if "bezout_grid" in syn:
        removed.append("synthesis.bezout_grid")
    for name in removed:
        print(f"note: {name} is no longer used; the design method is fixed")
    return AlgorithmConfig(q=q, gain_strategy=strategy, bound_slack=bound_slack)


def _config_hash(cfg: dict) -> str:
    canon = repr(sorted(artifact_io._plainify(cfg).items())).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_example_grid(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    coeffs = surrogate_coefficients()
    if args.coeffs:
        coeffs = coefficients_from_dict(artifact_io.load_document(args.coeffs))
    part = grid_partition()
    nb = grid_neighborhoods()
    cfg = {
        "schema_version": 1,
        "grid": {
            "label": coeffs.label,
            "h": list(coeffs.h),
            "damping": list(coeffs.damping),
            "coupling": coeffs.coupling.tolist(),
            "t_s": coeffs.t_s,
        },
        "partition": [[part.size("x", i), part.size("u", i)] for i in range(part.n_areas)],
        "neighborhoods": [sorted(j + 1 for j in nb.of(i)) for i in range(nb.n_areas)],
        "synthesis": {
            "q": args.q if args.q is not None else 2,
            "norm": "hinf",
            "bound_slack": 0.25,
        },
        "simulation": {
            "horizon": 500,
            "seed": args.seed if args.seed is not None else 7,
            "amplitudes": {"d": 0.5, "zeta": 0.05, "u_s1": 0.2, "u_s2": 0.2, "beta_f": 0.02},
        },
    }
    path = os.path.join(args.out, "config.json")
    artifact_io.dump_document(cfg, path)
    print(f"wrote grid scenario ({coeffs.label} coefficients) to {path}")
    if coeffs.label == "surrogate":
        print("note: surrogate coefficient set; pass --coeffs to use authentic values")
    return 0


def cmd_design(args) -> int:
    cfg = _load_config(args.config)
    plant = _plant_from_config(cfg, args.coeffs)
    partition, nb = _partition_from_config(cfg)
    algo = _algorithm_config(cfg, args.q)
    try:
        result = run_algorithm1(plant, partition, nb, config=algo)
    except (UncontrollableModeError, NonStabilizingGainsError) as exc:
        print(f"design infeasible: {exc}")
        return EXIT_INFEASIBLE
    if isinstance(result, AlgorithmReport):
        print(f"design infeasible: {result.message}")
        if result.detail is not None:
            print(f"  detail: {result.detail}")
        return EXIT_INFEASIBLE

    out = args.out
    os.makedirs(out, exist_ok=True)
    artifact_io.dump_document(cfg, os.path.join(out, "config.json"))
    artifact_io.export_plant(plant, os.path.join(out, "plant.json"))
    bundle = result.maps.pair.bundle
    artifact_io.export_partition(result.maps.partition, nb, os.path.join(out, "partition.json"))
    artifact_io.export_bundle(bundle, os.path.join(out, "bundle"))
    artifact_io.export_bank(result.bank, partition, os.path.join(out, "bank"))
    artifact_io.export_maps(result.maps, os.path.join(out, "maps"))
    models = [prediction_model(result.maps, partition, i) for i in range(partition.n_areas)]
    artifact_io.export_prediction_models(models, os.path.join(out, "prediction_models"))
    artifact_io.export_parametrization(result.param, result.x, os.path.join(out, "param"))
    _write_synthesis_report(result, out)
    print(f"design complete: objective {result.objective:.6g}, artifacts in {out}")
    return 0


def _write_synthesis_report(result, out: str) -> None:
    N = result.spec.n_areas
    lines = ["constraint,achieved,bound"]
    for i in range(N):
        lines.append(f"gamma_d[{i + 1}],{result.gamma_d[i]:.17g},{result.spec.gamma_bar_d[i]:.17g}")
    for i in range(N):
        for j in range(N):
            lines.append(f"gamma_u[{i + 1};{j + 1}],{result.gamma_u[i, j]:.17g},"
                         f"{result.spec.gamma_bar_u[i, j]:.17g}")
    for i in range(N):
        for j in range(N):
            lines.append(f"gamma_c[{i + 1};{j + 1}],{result.gamma_c[i, j]:.17g},"
                         f"{result.spec.gamma_bar_c[i, j]:.17g}")
    with open(os.path.join(out, "gamma_table.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out, "objective_trace.csv"), "w") as fh:
        fh.write("step,surrogate_objective\n")
        for k, v in enumerate(result.objective_log):
            fh.write(f"{k},{v:.17g}\n")
    zeros = int(np.sum(~result.support))
    report = [
        "first-layer synthesis report",
        f"objective (certified): {result.objective:.12g}",
        f"free coefficients: {result.x.size} (nonzero {int(np.sum(result.x != 0))})",
        f"surrogate evaluations: {result.n_evals}",
        "surrogate direction pairs kept: {} of {}".format(*result.surrogate_pairs),
        f"search point certified: {'yes' if result.search_certified else 'no (returned x = 0)'}",
        f"structurally zero blocks: {zeros} of {N + 2 * N * N}",
        f"x: {np.array2string(result.x, precision=6, max_line_width=100)}",
        "constraints at their admissible bounds:",
    ]
    report.extend(f"  - {h}" for h in (result.hints or ["none"]))
    report.append("exported artifacts:")
    report.extend(f"  - {rel}" for rel in (
        "plant.json", "partition.json", "bundle/", "bank/", "maps/",
        "prediction_models/", "param/parametrization.json",
        "gamma_table.csv", "objective_trace.csv"))
    with open(os.path.join(out, "synthesis_report.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")


def _load_run(out: str):
    """(plant, partition, nb, bundle, bank, param, x, exported forced and
    initial maps) of a run directory, or None once it has said why they
    cannot be loaded.  Malformed JSON is left to :func:`main`."""
    try:
        plant = artifact_io.load_plant(os.path.join(out, "plant.json"))
        partition, nb = artifact_io.load_partition(os.path.join(out, "partition.json"))
        bundle = artifact_io.load_bundle(os.path.join(out, "bundle"), plant)
        bank = artifact_io.load_bank(os.path.join(out, "bank"), partition)
        param, x = artifact_io.load_parametrization(os.path.join(out, "param"))
        exported = [artifact_io.realization_from_doc(artifact_io.load_document(
            os.path.join(out, "maps", f"{name}.json"))) for name in ("forced", "initial")]
    except json.JSONDecodeError:
        raise
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load run directory {out}: {exc}")
        return None
    return plant, partition, nb, bundle, bank, param, x, exported


def cmd_verify(args) -> int:
    run = _load_run(args.out)
    if run is None:
        return EXIT_CONFIG
    plant, partition, nb, bundle, bank, param, x, exported = run
    from .sparse_param import q_from_x
    maps = build_closed_loop_maps(form_nrf_pair(bundle, q_from_x(param, x)), bank, partition)

    records = run_invariant_suite(plant, partition, nb, bundle, bank, maps, param)
    records.append(_roundtrip_record(maps, exported))
    lines = [r.line() for r in records]
    report_path = os.path.join(args.out, "verify_report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    failed = [r for r in records if not r.passed]
    print(f"{len(records) - len(failed)}/{len(records)} checks passed; report at {report_path}")
    return EXIT_VERIFY if failed else 0


def _roundtrip_record(maps, exported):
    from .verify import CheckRecord
    zs = FrequencyGrid.uniform(32).points
    worst = max(float(np.max(np.abs(frequency_response(loaded, zs) - frequency_response(built, zs))))
                for loaded, built in zip(exported, (maps.forced, maps.initial)))
    return CheckRecord("artifact_roundtrip_eval", worst, 1e-12, worst <= 1e-12)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config) if args.config else _load_config(
        os.path.join(args.out, "config.json"))
    run = _load_run(args.out)
    if run is None:
        return EXIT_CONFIG
    plant, partition, nb, bundle, bank, param, x, _ = run
    sim = dict(cfg.get("simulation", {}))
    horizon = _setting("simulation.horizon", sim.get("horizon", 500), int, "a positive int",
                       lambda v: v > 0)
    seed = _setting("simulation.seed", args.seed if args.seed is not None else sim.get("seed", 0),
                    int, "a non-negative int", lambda v: v >= 0)
    amplitudes = {k: _setting(f"simulation.amplitudes.{k}", v, float, "a finite float", np.isfinite)
                  for k, v in _object(sim, "simulation", "amplitudes").items()}
    kinds = _object(sim, "simulation", "kinds")
    for k, v in kinds.items():
        if v not in NOISE_KINDS:
            raise ConfigError(f"simulation.kinds.{k} must be one of {list(NOISE_KINDS)}, got {v!r}")
    try:
        signals = compose_signals(horizon, plant.n_x, plant.n_u, plant.n_d, seed=seed,
                                  amplitudes=amplitudes, kinds=kinds)
    except ValueError as exc:  # the values are checked above, so only a channel name is left
        raise ConfigError(f"simulation.{exc}") from exc
    n_w = sum(c.order for c in bank)
    rng = np.random.default_rng(seed + 1)
    x_c = rng.uniform(-1.0, 1.0, plant.n_x)
    w_c = np.zeros(n_w)
    try:
        mono = simulate_monolithic(plant, list(bank), signals, x_c, w_c)
        dist = simulate_distributed(plant, list(bank), partition, nb, signals, x_c, w_c)
    except (AlgebraicLoopError, CommConstraintError) as exc:
        print(f"cannot simulate the bank in {args.out}: {exc}")
        return EXIT_CONFIG
    tdir = os.path.join(args.out, "traces")
    os.makedirs(tdir, exist_ok=True)
    artifact_io.export_trace_csv(mono, os.path.join(tdir, "monolithic.csv"))
    artifact_io.export_trace_csv(dist, os.path.join(tdir, "distributed.csv"))
    gap = max(float(np.max(np.abs(mono.x - dist.x))), float(np.max(np.abs(mono.u_f - dist.u_f))))
    artifact_io.dump_document({
        "seed": seed,
        "horizon": horizon,
        "config_hash": _config_hash(cfg),
        "monolithic_vs_distributed_max_abs": gap,
        "x_c": list(x_c),
    }, os.path.join(tdir, "metadata.json"))
    print(f"traces written to {tdir}; monolithic-vs-distributed gap {gap:.3e}")
    return 0


def cmd_report(args) -> int:
    out = args.out
    pieces = []
    for name in ("synthesis_report.txt", "verify_report.txt"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path) as fh:
                pieces.append(f"== {name} ==\n{fh.read().rstrip()}")
    gpath = os.path.join(out, "gamma_table.csv")
    if os.path.exists(gpath):
        with open(gpath) as fh:
            rows = fh.read().strip().splitlines()
        pieces.append("== achieved constraint values ==\n" + "\n".join(rows[:40])
                      + ("\n..." if len(rows) > 40 else ""))
    mpath = os.path.join(out, "traces", "metadata.json")
    if os.path.exists(mpath):
        meta = artifact_io.load_document(mpath)
        pieces.append("== simulation ==\n" + "\n".join(f"{k}: {v}" for k, v in meta.items()))
    if not pieces:
        print(f"nothing to report in {out}")
        return EXIT_CONFIG
    summary = "\n\n".join(pieces) + "\n"
    spath = os.path.join(out, "summary.txt")
    with open(spath, "w") as fh:
        fh.write(summary)
    print(summary)
    print(f"summary written to {spath}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrf-forge",
        description="distributed controller synthesis, verification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(type=str, help="scenario config document"),
        "out": dict(type=str, help="run directory"),
        "seed": dict(type=int, help="scenario seed"),
        "q": dict(type=int, help="FIR degree of the free parameter"),
        "coeffs": dict(type=str, help="coefficient document overriding the shipped surrogate"),
    }

    def command(name, fn, *own, required=("out",)):
        p = sub.add_parser(name)
        for flag in own:
            p.add_argument(f"--{flag}", required=flag in required, **flags[flag])
        p.set_defaults(func=fn)

    command("example-grid", cmd_example_grid, "out", "coeffs", "q", "seed")
    command("design", cmd_design, "config", "out", "coeffs", "q", required=("config", "out"))
    command("simulate", cmd_simulate, "config", "out", "seed")
    command("verify", cmd_verify, "out")
    command("report", cmd_report, "out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}")
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"configuration error: malformed JSON in {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
