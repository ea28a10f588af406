"""End-to-end benchmark of nrf-forge: design, verify and deployment.

    python3 perfbench/run.py --workload mesh5-search --seed 1 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` a run measures the
end-to-end metrics; with ``--trace 1`` it wraps the program's layer
functions (see ``tracer.py``) and reports per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
environment and every check.  See README.md for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread: extra threads burn CPU without lowering the design's
# wall time on this problem size, and make it far less repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

WORKLOADS = ("mesh5-search", "ring8-boxed")
SETUP_SAMPLES = 5
SIM_HORIZON = 2000
SIM_MIN_REPS = 7
CALIBRATION_REPS = 25

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import nrf_forge.cli
import scenarios
scenarios.write_config(sys.argv[1], sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_times(workload: str, work: Path) -> list:
    """Import nrf_forge and write the scenario config, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for k in range(SETUP_SAMPLES):
        out = work / f"setup{k}"
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, workload, str(out)],
                              env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        shutil.rmtree(out, ignore_errors=True)
    return times


def calibration_ms() -> float:
    """Median time of a fixed batched complex solve; an environment figure
    that tells machine drift apart from a change of the program."""
    rng = np.random.default_rng(0)
    M = rng.standard_normal((256, 32, 32)) + 1j * rng.standard_normal((256, 32, 32))
    B = rng.standard_normal((256, 32, 16)) + 0j
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        np.linalg.solve(M, B)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_cli(cli, argv, log) -> tuple:
    """(exit code, or None on an exception; wall seconds) of one CLI call."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a raw traceback is a failed operation, not a crash of the run
        rc = None
        buf.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    log.write(f"$ nrf-forge {' '.join(argv)}\n{buf.getvalue()}exit {rc}\n")
    return rc, dt


def timed_reps(fn, budget: float) -> list:
    """Wall times of calls to ``fn``, repeated until ``budget`` seconds have
    passed and at least SIM_MIN_REPS calls are done."""
    times = []
    deadline = time.perf_counter() + budget
    while len(times) < SIM_MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def environment(args, calib_ms: float) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seeds": {"workload": args.seed, **scenarios.scenario_seeds(args.workload)},
        "calibration_ms": calib_ms,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nrf_forge" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nrf_forge
    from nrf_forge import cli
    from nrf_forge import io as nio
    from nrf_forge.sim_net import compose_signals, simulate_distributed, simulate_monolithic

    if Path(nrf_forge.__file__).resolve().parent != SRC / "nrf_forge":
        print(f"nrf_forge was imported from {nrf_forge.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calib = calibration_ms()
    checklist = []
    metrics = {}
    ops = []  # one bool per operation attempted: a fixed list per mode

    setups = []
    if not args.trace:
        try:
            setups = setup_times(args.workload, work)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
        ops += [bool(setups)] * SETUP_SAMPLES

    scenarios.write_config(args.workload, str(work))
    cfg_path = work / "config.json"
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    x_sizes = [s[0] for s in cfg["partition"]]
    u_sizes = [s[1] for s in cfg["partition"]]

    run_dir = work / "run"
    design_argv = ["design", "--config", str(cfg_path), "--out", str(run_dir)]
    verify_argv = ["verify", "--out", str(run_dir)]
    with open(work / "cli.log", "w") as log:
        if args.trace:
            plain_dir = work / "plain"
            rc_plain, design_plain = run_cli(
                cli, ["design", "--config", str(cfg_path), "--out", str(plain_dir)], log)
            ops.append(rc_plain == 0)
            tr = tracer.Tracer()
            tr.install()
            try:
                (rc_design, design_s), (rc_verify, verify_s) = tr.span("bench", lambda: (
                    tr.span("cli.design", run_cli, cli, design_argv, log),
                    tr.span("cli.verify", run_cli, cli, verify_argv, log)))
            finally:
                tr.uninstall()
        else:
            rc_design, design_s = run_cli(cli, design_argv, log)
            rc_verify, verify_s = run_cli(cli, verify_argv, log) if rc_design == 0 else (None, 0.0)
    ops += [rc_design == 0, rc_verify == 0]

    sim = None
    if rc_design == 0:
        plant = nio.load_plant(str(run_dir / "plant.json"))
        partition, nb = nio.load_partition(str(run_dir / "partition.json"))
        bank = list(nio.load_bank(str(run_dir / "bank"), partition))
        signals = compose_signals(SIM_HORIZON, plant.n_x, plant.n_u, plant.n_d, seed=args.seed,
                                  amplitudes=cfg["simulation"]["amplitudes"])
        rng = np.random.default_rng(args.seed + 1)
        x_c = rng.uniform(-1, 1, plant.n_x)
        w_c = rng.uniform(-1, 1, sum(c.order for c in bank))
        traces = {}

        def dist():
            traces["dist"] = simulate_distributed(plant, bank, partition, nb, signals, x_c, w_c)

        def mono():
            traces["mono"] = simulate_monolithic(plant, bank, signals, x_c, w_c)

        # the monolithic step time is a traced-run figure; untraced runs need one trace
        sim = (timed_reps(dist, args.seconds), timed_reps(mono, args.seconds / 4 if args.trace else 0.0))
        checklist += checks.check_traces(str(run_dir), len(x_sizes), traces["mono"], traces["dist"],
                                         signals, x_c, w_c)
    ops.append(sim is not None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if rc_design == 0:
        checklist += checks.check_design(str(run_dir), x_sizes, u_sizes, cfg["neighborhoods"],
                                         float(cfg["synthesis"]["bound_slack"]))
    if rc_verify is not None and (run_dir / "verify_report.txt").exists():
        checklist.append(checks.check_verify_report(str(run_dir), rc_verify))
    else:
        checklist.append(("verify_passes_every_record", False, f"verify exit {rc_verify}"))

    if args.trace:
        if rc_design == 0 and rc_plain == 0:
            same = all((plain_dir / f).read_bytes() == (run_dir / f).read_bytes()
                       for f in ("gamma_table.csv", "synthesis_report.txt"))
            checklist.append(("tracing_leaves_outputs_unchanged", same, "gamma table and report bytes"))
        if sim is not None:
            metrics.update(layer_metrics(tr.spans, design_s, design_plain, sim,
                                         run_dir, checklist))
    else:
        if setups:
            metrics["setup_s"] = (statistics.median(setups), "s")
        if rc_design == 0:
            metrics["design_s"] = (design_s, "s")
            metrics["design_objective"] = (checks.read_report_number(str(run_dir), "objective (certified)"), "1")
        if rc_verify == 0:
            metrics["verify_s"] = (verify_s, "s")
        if sim is not None:
            metrics["sim_steps_per_s"] = (SIM_HORIZON / statistics.median(sim[0]), "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    correct = all(ok for _, ok, _ in checklist)
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(work / "plain", ignore_errors=True)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args, calib),
        "checks": {name: {"passed": ok, "detail": text} for name, ok, text in checklist},
        "samples": {"setup_s": setups, "sim_reps": len(sim[0]) if sim else 0},
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": ops.count(False),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(work / "result.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct and all(ops) else 1


def layer_metrics(spans, design_s: float, design_plain: float, sim,
                  run_dir: Path, checklist: list) -> dict:
    """Per-layer figures over the traced design and verify.

    ``*_s`` figures are the wall time spent inside a layer's functions
    (nested calls of one layer counted once), except ``search_s``, which is
    the search's self time.  ``trace.*_covered`` is the share of a CLI call's
    wall time that is self time of the spans these figures are made from;
    the self time of the CLI glue, of ``run_algorithm1``, of the maps
    builder and of ``prediction_model`` is left out.
    """
    summary = tracer.summarize(spans)
    none = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [0.0]}
    fed = set()

    def get(name):
        fed.add(name)
        return summary.get(name, none)

    evals = get("match_synth.surrogate_eval")
    reported = int(checks.read_report_number(str(run_dir), "surrogate evaluations"))
    checklist.append(("trace_counts_every_surrogate_eval", evals["calls"] == reported,
                      f"spans {evals['calls']}, report {reported}"))
    with open(run_dir / "param" / "parametrization.json") as fh:
        n_free = json.load(fh)["n_free"]
    with open(run_dir / "verify_report.txt") as fh:
        n_checks = sum(1 for ln in fh if ln.strip())
    dist_times, mono_times = sim
    out = {
        "match_synth.surrogate_evals": (evals["calls"], "count"),
        "match_synth.surrogate_eval_ms": (1e3 * statistics.median(evals["durations"]), "ms"),
        "match_synth.surrogate_build_s": (get("match_synth.surrogate_build")["total_s"], "s"),
        "match_synth.search_s": (get("match_synth.search")["self_s"], "s"),
        "match_synth.certify_calls": (get("match_synth.certify")["calls"], "count"),
        "match_synth.certify_s": (get("match_synth.certify")["total_s"], "s"),
        "lti.hinf_norm_calls": (get("lti.hinf_norm")["calls"], "count"),
        "lti.hinf_norm_s": (get("lti.hinf_norm")["total_s"], "s"),
        "lti.evaluate_calls": (get("lti.evaluate")["calls"], "count"),
        "lti.minimal_calls": (get("lti.minimal")["calls"], "count"),
        "lti.minimal_s": (get("lti.minimal")["total_s"], "s"),
        "lti.frequency_response_calls": (get("lti.frequency_response")["calls"], "count"),
        "lti.frequency_response_s": (get("lti.frequency_response")["total_s"], "s"),
        "closed_loop.maps_builds": (get("closed_loop.maps_build")["calls"], "count"),
        "closed_loop.maps_build_s": (get("closed_loop.maps_build")["total_s"], "s"),
        "nrf.form_pair_calls": (get("nrf.form_pair")["calls"], "count"),
        "nrf.form_pair_s": (get("nrf.form_pair")["total_s"], "s"),
        "dcf.build_s": (get("dcf.build")["total_s"], "s"),
        "sparse_param.build_s": (get("sparse_param.build")["total_s"], "s"),
        "sparse_param.n_free": (n_free, "count"),
        "sim_net.dist_step_us": (1e6 * statistics.median(dist_times) / SIM_HORIZON, "us"),
        "sim_net.mono_step_us": (1e6 * statistics.median(mono_times) / SIM_HORIZON, "us"),
        "verify.suite_s": (get("verify.suite")["total_s"], "s"),
        "verify.checks": (n_checks, "count"),
        "io.export_s": (get("io.export")["total_s"], "s"),
        "io.load_s": (get("io.load")["total_s"], "s"),
        "trace.overhead_s": (design_s - design_plain, "s"),
    }
    out["trace.design_covered"] = (tracer.covered_share(spans, "cli.design", fed), "1")
    out["trace.verify_covered"] = (tracer.covered_share(spans, "cli.verify", fed), "1")
    return out


if __name__ == "__main__":
    sys.exit(main())
