"""First-layer synthesis: norm-based model matching over the free parameter.

Every closed-loop block is affine in the Youla parameter, and the parameter
is affine in the free coefficient vector x, so each matching norm

    gamma_di(x)  = || area i response to [beta_f; d]      - T_di  ||
    gamma_uij(x) = || area i response to area j commands  - T_uij ||
    gamma_cij(x) = || area i response to area j's ICs     - T_cij ||

is a convex function of x.  The solver is a multi-start coordinate pattern
search with golden-section line searches on a frequency-sampled surrogate;
candidates violating the admissible upper bounds are rejected outright
(feasible-point method; the bootstrap at x = 0 supplies a feasible start by
construction).  Reported constraint values are never taken from the search:
they are recomputed post-hoc through the certified norm path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .closed_loop import ClosedLoopMaps, area_block, build_closed_loop_maps, q_linear_responses
from .dcf import DcfBundle
from .errors import DimensionMismatchError
from .lti import (
    Realization,
    delay,
    frequency_response,
    hinf_norm,
    is_cb_bounded,
    minimal,
    negate,
    parallel,
)
from .nrf import bank_from_pair, form_nrf_pair
from .partition import AreaPartition, Neighborhoods, validate_neighborhoods
from .sparse_param import MODE_FACTORED, QParametrization, q_from_x

MODE_DECOUPLE_ONLY = "decouple_only"
MODE_DECOUPLE_AND_TRACK = "decouple_and_track"

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerSettings:
    """Deterministic knobs of the pattern search and the certified norms."""

    search_grid: int = 256
    max_free_dims: int = 12
    max_sweeps: int = 3
    sweep_tol: float = 1e-6
    initial_step: float = 0.25
    n_starts: int = 2
    start_scale: float = 0.05
    seed: int = 12345
    norm_grid: int = 2048
    refine_passes: int = 3


@dataclass
class SynthesisSpec:
    """Targets, weights and admissible bounds of the matching problem.

    Target maps stored as None are identically zero.  Cross-area command
    targets and out-of-neighborhood initial-condition targets are zero by
    structure and cannot be overridden.
    """

    n_areas: int
    t_d: tuple            # per-area Realization | None
    t_u_diag: tuple       # per-area Realization | None (the (i, i) targets)
    t_c: dict             # {(i, j): Realization}; missing = zero target
    tau_d: np.ndarray
    tau_u: np.ndarray
    tau_c: np.ndarray
    gamma_bar_d: np.ndarray | None = None
    gamma_bar_u: np.ndarray | None = None
    gamma_bar_c: np.ndarray | None = None
    bound_slack: float = 0.0
    norm: str = "hinf"
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self):
        if self.norm != "hinf":
            raise ValueError(
                f"norm {self.norm!r} is not supported at v1; only 'hinf' is implemented"
            )
        N = self.n_areas
        self.tau_d = np.asarray(self.tau_d, dtype=float)
        self.tau_u = np.asarray(self.tau_u, dtype=float)
        self.tau_c = np.asarray(self.tau_c, dtype=float)
        if self.tau_d.shape != (N,) or self.tau_u.shape != (N, N) or self.tau_c.shape != (N, N):
            raise DimensionMismatchError("weight arrays must be (N,), (N,N), (N,N)")
        if np.any(self.tau_d < 0) or np.any(self.tau_u < 0) or np.any(self.tau_c < 0):
            raise ValueError("weights must be nonnegative")
        for t in list(self.t_d) + list(self.t_u_diag) + list(self.t_c.values()):
            if t is not None and not is_cb_bounded(t):
                raise ValueError("target maps must be bounded outside the unit disc")

    def target_u(self, i: int, j: int):
        return self.t_u_diag[i] if i == j else None

    def target_c(self, i: int, j: int):
        return self.t_c.get((i, j))

    def bounds_set(self) -> bool:
        return self.gamma_bar_d is not None

    def with_bounds(self, gd, gu, gc) -> "SynthesisSpec":
        s = 1.0 + self.bound_slack
        new = replace(self)
        if np.isfinite(s):
            new.gamma_bar_d = np.asarray(gd, dtype=float) * s
            new.gamma_bar_u = np.asarray(gu, dtype=float) * s
            new.gamma_bar_c = np.asarray(gc, dtype=float) * s
        else:
            # an infinite slack drops the admissible boxes entirely
            new.gamma_bar_d = np.full(np.shape(gd), np.inf)
            new.gamma_bar_u = np.full(np.shape(gu), np.inf)
            new.gamma_bar_c = np.full(np.shape(gc), np.inf)
        return new


def default_targets(partition: AreaPartition, n_d: int,
                    mode: str = MODE_DECOUPLE_ONLY, t_d=None,
                    optimizer: OptimizerSettings | None = None) -> SynthesisSpec:
    """Decoupling-first defaults: unit-delay own-command response, zero rest.

    decouple_only zeroes the disturbance targets; decouple_and_track accepts
    user disturbance targets instead (rejected unless bounded).  Admissible
    bounds are left unset; the feasibility bootstrap fills them with the
    values achieved at x = 0.
    """
    N = partition.n_areas
    if mode not in (MODE_DECOUPLE_ONLY, MODE_DECOUPLE_AND_TRACK):
        raise ValueError(f"unknown synthesis mode {mode!r}")
    if mode == MODE_DECOUPLE_ONLY:
        t_d_list = [None] * N
    else:
        if t_d is None:
            raise ValueError("decouple_and_track needs disturbance targets")
        t_d_list = list(t_d)
        for i, t in enumerate(t_d_list):
            if t is not None:
                expected = (partition.size("x", i) + partition.size("u", i), partition.n_u + n_d)
                if t.shape != expected:
                    raise DimensionMismatchError(
                        f"disturbance target {i} has shape {t.shape}, expected {expected}"
                    )
    t_u_diag = [delay(partition.size("x", i) + partition.size("u", i)) for i in range(N)]
    return SynthesisSpec(
        n_areas=N,
        t_d=tuple(t_d_list),
        t_u_diag=tuple(t_u_diag),
        t_c={},
        tau_d=np.ones(N),
        tau_u=np.ones((N, N)),
        tau_c=np.zeros((N, N)),
        optimizer=optimizer if optimizer is not None else OptimizerSettings(),
    )


@dataclass(frozen=True)
class MapsBuilder:
    """Builds the closed-loop maps for a given Youla parameter."""

    bundle: DcfBundle
    partition: AreaPartition

    def __call__(self, q: Realization) -> ClosedLoopMaps:
        pair = form_nrf_pair(self.bundle, q)
        _, bank = bank_from_pair(pair, self.partition)
        return build_closed_loop_maps(pair, bank, self.partition)


def constraint_norms(param: QParametrization, x, spec: SynthesisSpec,
                     builder: MapsBuilder):
    """Certified matching norms at one x, via minimal difference realizations."""
    maps = builder(q_from_x(param, x))
    return _norms_from_maps(maps, spec, builder.partition), maps


def _norms_from_maps(maps: ClosedLoopMaps, spec: SynthesisSpec,
                     partition: AreaPartition):
    opts = spec.optimizer
    N = spec.n_areas

    def gap_norm(block: Realization, target):
        diff = block if target is None else parallel(block, negate(target))
        return hinf_norm(minimal(diff), grid_points=opts.norm_grid,
                         refine_passes=opts.refine_passes, check_bounded=False)

    gamma_d = np.array([
        gap_norm(area_block(maps, partition, "disturbance", i), spec.t_d[i])
        for i in range(N)
    ])
    gamma_u = np.array([
        [gap_norm(area_block(maps, partition, "coupling", i, j), spec.target_u(i, j))
         for j in range(N)] for i in range(N)
    ])
    gamma_c = np.array([
        [gap_norm(area_block(maps, partition, "init", i, j), spec.target_c(i, j))
         for j in range(N)] for i in range(N)
    ])
    return gamma_d, gamma_u, gamma_c


# ---------------------------------------------------------------------------
# frequency-sampled surrogate, affine in the free coefficients
# ---------------------------------------------------------------------------

def _lambda_max_hermitian(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of stacked hermitian matrices, closed form for
    sizes up to three (trigonometric solution of the characteristic cubic),
    LAPACK fallback above."""
    r = H.shape[-1]
    if r == 0:
        return np.zeros(H.shape[:-2])
    if r == 1:
        return H[..., 0, 0].real
    if r == 2:
        m = 0.5 * (H[..., 0, 0] + H[..., 1, 1]).real
        det = (H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]).real
        return m + np.sqrt(np.maximum(m * m - det, 0.0))
    if r == 3:
        h00, h11, h22 = (H[..., i, i].real for i in range(3))
        p1 = (np.abs(H[..., 0, 1]) ** 2 + np.abs(H[..., 0, 2]) ** 2
              + np.abs(H[..., 1, 2]) ** 2)
        q = (h00 + h11 + h22) / 3.0
        p2 = (h00 - q) ** 2 + (h11 - q) ** 2 + (h22 - q) ** 2 + 2.0 * p1
        p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
        safe = np.where(p > 0, p, 1.0)
        B = (H - q[..., None, None] * np.eye(3)) / safe[..., None, None]
        detB = (B[..., 0, 0] * (B[..., 1, 1] * B[..., 2, 2] - B[..., 1, 2] * B[..., 2, 1])
                - B[..., 0, 1] * (B[..., 1, 0] * B[..., 2, 2] - B[..., 1, 2] * B[..., 2, 0])
                + B[..., 0, 2] * (B[..., 1, 0] * B[..., 2, 1] - B[..., 1, 1] * B[..., 2, 0])).real
        phi = np.arccos(np.clip(detB / 2.0, -1.0, 1.0)) / 3.0
        lam = q + 2.0 * p * np.cos(phi)
        return np.where(p2 > 0, lam, q)
    return np.linalg.eigvalsh(H)[..., -1]


def _sigma_max_grid(blk: np.ndarray) -> float:
    """Peak largest singular value of stacked (G, r, c) responses."""
    if blk.size == 0:
        return 0.0
    r, c = blk.shape[-2:]
    if c < r:
        gram = np.conj(blk.swapaxes(-1, -2)) @ blk
    else:
        gram = blk @ np.conj(blk.swapaxes(-1, -2))
    lam = _lambda_max_hermitian(gram)
    return float(np.sqrt(max(np.max(lam), 0.0)))


class _SurrogateModel:
    """Grid responses of the matching blocks as affine functions of x.

    Sampling uses only the upper half circle: every map here is
    real-rational, so singular values repeat at conjugate points.  The base
    responses come from the realized maps at x = 0; each free direction's
    response is the Q-linear part of the closed-loop formulas, evaluated
    pointwise.  ``n_evals`` counts calls of :meth:`objective`.
    """

    def __init__(self, bundle: DcfBundle, param: QParametrization,
                 partition: AreaPartition, spec: SynthesisSpec,
                 maps0: ClosedLoopMaps, active: np.ndarray):
        opts = spec.optimizer
        zs = np.exp(1j * np.pi * (np.arange(opts.search_grid) + 0.5) / opts.search_grid)
        self.zs = zs
        self.partition = partition
        self.spec = spec
        self.active = active
        self.n_evals = 0
        n_x, n_u, n_d = maps0.n_x, maps0.n_u, maps0.n_d
        self.n_x, self.n_u = n_x, n_u

        self.forced_base = frequency_response(maps0.forced, zs)
        self.init_base = frequency_response(maps0.initial, zs)
        self.n_w = maps0.n_w

        self.forced_dirs, ic_dirs = q_linear_responses(bundle, param.basis[active], zs)
        # only the plant-IC columns move with x; controller-IC columns are
        # pinned by the diagonal-preserving parametrization
        self.init_dirs = np.zeros(ic_dirs.shape[:-1] + self.init_base.shape[-1:], dtype=complex)
        self.init_dirs[..., :n_x] = ic_dirs

        # precompute index sets and target responses per block
        part_w = maps0.partition
        self.blocks = []
        for i in range(spec.n_areas):
            rows = np.concatenate([partition.indices("x", i), n_x + partition.indices("u", i)])
            cols = np.arange(n_x + n_u, n_x + 2 * n_u + n_d)
            self.blocks.append(("d", i, 0, rows, cols, self._target_resp(spec.t_d[i], rows, cols)))
            for j in range(spec.n_areas):
                cols_u = np.concatenate([partition.indices("x", j), n_x + partition.indices("u", j)])
                self.blocks.append(("u", i, j, rows, cols_u,
                                    self._target_resp(spec.target_u(i, j), rows, cols_u)))
                cols_c = np.concatenate([part_w.indices("x", j), n_x + part_w.indices("w", j)])
                self.blocks.append(("c", i, j, rows, cols_c,
                                    self._target_resp(spec.target_c(i, j), rows, cols_c)))

    def _target_resp(self, target, rows, cols):
        if target is None:
            return None
        if target.shape != (rows.size, cols.size):
            raise DimensionMismatchError(
                f"target has shape {target.shape}, block is {(rows.size, cols.size)}"
            )
        return frequency_response(target, self.zs)

    def respond(self, x_active: np.ndarray):
        """(forced, init) grid responses at the active coefficients."""
        return (self.forced_base + np.tensordot(x_active, self.forced_dirs, axes=(0, 0)),
                self.init_base + np.tensordot(x_active, self.init_dirs, axes=(0, 0)))

    def gammas_from(self, forced: np.ndarray, init: np.ndarray):
        N = self.spec.n_areas
        gd = np.zeros(N)
        gu = np.zeros((N, N))
        gc = np.zeros((N, N))
        for kind, i, j, rows, cols, tgt in self.blocks:
            src = init if kind == "c" else forced
            blk = src[:, rows[:, None], cols[None, :]]
            if tgt is not None:
                blk = blk - tgt
            val = _sigma_max_grid(blk)
            if kind == "d":
                gd[i] = val
            elif kind == "u":
                gu[i, j] = val
            else:
                gc[i, j] = val
        return gd, gu, gc

    def objective(self, forced: np.ndarray, init: np.ndarray) -> float:
        """Weighted surrogate objective of grid responses; +inf outside the
        admissible bounds."""
        self.n_evals += 1
        gd, gu, gc = self.gammas_from(forced, init)
        if not _within_bounds(self.spec, gd, gu, gc):
            return np.inf
        return _objective_value(self.spec, gd, gu, gc)

    def objective_at(self, x_active) -> float:
        """:meth:`objective` at the active coefficients."""
        return self.objective(*self.respond(np.asarray(x_active, dtype=float).ravel()))


def make_surrogate_objective(spec: SynthesisSpec, param: QParametrization,
                             bundle: DcfBundle, partition: AreaPartition,
                             n_active: int | None = None):
    """Standalone surrogate objective over the leading free coefficients.

    Exactly the function the pattern search minimises (+inf outside the
    admissible bounds); exposed so tests and experiment scripts can
    brute-force it independently of the solver.
    """
    builder = MapsBuilder(bundle, partition)
    maps0 = builder(q_from_x(param, np.zeros(param.n_free)))
    k = param.n_free if n_active is None else min(n_active, param.n_free)
    return _SurrogateModel(bundle, param, partition, spec, maps0, np.arange(k)).objective_at


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    """Outcome of one matching run, with certified post-hoc constraint values."""

    x: np.ndarray
    gamma_d: np.ndarray
    gamma_u: np.ndarray
    gamma_c: np.ndarray
    objective: float
    objective_log: list
    q: Realization
    maps: ClosedLoopMaps
    spec: SynthesisSpec
    param: QParametrization
    n_evals: int
    feasible: bool
    hints: list

    @property
    def bank(self):
        return self.maps.bank

    @property
    def pair(self):
        return self.maps.pair


def _objective_value(spec: SynthesisSpec, gd, gu, gc) -> float:
    return float(np.sum(spec.tau_d * gd) + np.sum(spec.tau_u * gu) + np.sum(spec.tau_c * gc))


def _within_bounds(spec: SynthesisSpec, gd, gu, gc, tol: float = 1e-9) -> bool:
    def ok(g, bar):
        return bool(np.all(g <= bar + tol * (1.0 + bar)))
    return (ok(gd, spec.gamma_bar_d) and ok(gu, spec.gamma_bar_u)
            and ok(gc, spec.gamma_bar_c))


def solve(spec: SynthesisSpec, param: QParametrization, bundle: DcfBundle,
          partition: AreaPartition) -> SynthesisResult:
    """Minimise the weighted matching objective over the free coefficients.

    Requires admissible bounds to be set (run the bootstrap first, e.g.
    through :func:`run_algorithm1`) and a diagonal-preserving factored
    parametrization, so that the initial-condition columns stay fixed along
    the search.  The returned constraint values are recomputed through the
    certified norm path; if the surrogate optimum drifts outside a bound,
    the point is shrunk toward the (exactly feasible) origin.
    """
    if not spec.bounds_set():
        raise ValueError("admissible bounds unset; compute the bootstrap first")
    if param.mode != MODE_FACTORED and param.n_free:
        raise ValueError(
            "the v1 search requires the factored, diagonal-preserving "
            "parametrization (initial-condition columns must not move with x)"
        )
    opts = spec.optimizer
    builder = MapsBuilder(bundle, partition)
    n_free = param.n_free
    active = np.arange(min(n_free, opts.max_free_dims))

    zero = np.zeros(n_free)
    log: list[float] = []

    if n_free == 0 or float(np.sum(spec.tau_d) + np.sum(spec.tau_u) + np.sum(spec.tau_c)) == 0.0:
        (gd, gu, gc), maps = constraint_norms(param, zero, spec, builder)
        obj = _objective_value(spec, gd, gu, gc)
        return SynthesisResult(zero, gd, gu, gc, obj, [obj], q_from_x(param, zero),
                               maps, spec, param, 1, True, _bound_hints(spec, gd, gu, gc))

    maps0 = builder(q_from_x(param, zero))
    model = _SurrogateModel(bundle, param, partition, spec, maps0, active)

    rng = np.random.default_rng(opts.seed)
    starts = [np.zeros(active.size)]
    for _ in range(max(0, opts.n_starts - 1)):
        cand = opts.start_scale * rng.standard_normal(active.size)
        for _ in range(40):
            if np.isfinite(model.objective_at(cand)):
                break
            cand *= 0.5
        else:
            cand = np.zeros(active.size)
        starts.append(cand)

    best_x, best_f = None, np.inf
    for start in starts:
        x, fx = _pattern_search(model, start, opts, log_best=log,
                                best_so_far=lambda: best_f)
        if fx < best_f:
            best_x, best_f = x, fx
    x_act = best_x if best_x is not None else np.zeros(active.size)

    # certify, shrinking toward the exactly feasible origin if needed
    x_full = zero.copy()
    x_full[active] = x_act
    if best_f >= model.objective_at(np.zeros(active.size)) - opts.sweep_tol:
        x_full = zero  # no real progress; skip straight to the feasible origin
    for _ in range(12):
        (gd, gu, gc), maps = constraint_norms(param, x_full, spec, builder)
        if _within_bounds(spec, gd, gu, gc) or not np.any(x_full):
            break
        x_full *= 0.5
    else:
        x_full = zero
        (gd, gu, gc), maps = constraint_norms(param, x_full, spec, builder)
    obj = _objective_value(spec, gd, gu, gc)
    if not log:
        log.append(obj)
    return SynthesisResult(x_full, gd, gu, gc, obj, log, q_from_x(param, x_full),
                           maps, spec, param, model.n_evals, True, _bound_hints(spec, gd, gu, gc))


def _pattern_search(model, x0: np.ndarray, opts: OptimizerSettings,
                    log_best: list, best_so_far) -> tuple[np.ndarray, float]:
    """Coordinate descent with golden-section line searches; logs improvements."""
    f = model.objective_at
    x = x0.copy()
    fx = f(x)
    if not np.isfinite(fx):
        x = np.zeros_like(x0)
        fx = f(x)

    def note(val):
        cands = [val]
        bsf = best_so_far()
        if np.isfinite(bsf):
            cands.append(bsf)
        if log_best:
            cands.append(log_best[-1])
        log_best.append(min(cands))

    note(fx)
    for _ in range(opts.max_sweeps):
        f_before = fx
        for k in range(x.size):
            x, fx = _line_search_coord(model, x, k, fx, opts)
            note(fx)
        if f_before - fx < opts.sweep_tol:
            break
    return x, fx


def _line_search_coord(model, x: np.ndarray, k: int, fx: float,
                       opts: OptimizerSettings) -> tuple[np.ndarray, float]:
    """Golden-section minimisation along coordinate k (infeasible = +inf).

    The grid responses are affine in x, so moving one coordinate is a single
    scaled add of that direction's precomputed response.
    """
    f0, i0 = model.respond(x)
    dF, dI = model.forced_dirs[k], model.init_dirs[k]

    def phi(t: float) -> float:
        return model.objective(f0 + t * dF, i0 + t * dI)

    step = opts.initial_step * max(1.0, abs(x[k]))
    f_plus, f_minus = phi(step), phi(-step)
    if fx <= f_plus and fx <= f_minus:
        # try a smaller probe before giving up on this coordinate
        step *= 0.1
        f_plus, f_minus = phi(step), phi(-step)
        if fx <= f_plus and fx <= f_minus:
            return x, fx
    sign = 1.0 if f_plus < f_minus else -1.0
    t_cur = sign * step
    f_cur = f_plus if sign > 0 else f_minus
    t_prev = 0.0
    # expand while descending
    for _ in range(14):
        t_next = t_cur * 2.0
        f_next = phi(t_next)
        if f_next >= f_cur:
            break
        t_prev = t_cur
        t_cur, f_cur = t_next, f_next
    else:
        t_next = t_cur * 2.0
    lo, hi = (t_prev, t_next) if sign > 0 else (t_next, t_prev)
    # golden-section shrink on [lo, hi]
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(40):
        if abs(b - a) < 1e-5 * max(1.0, abs(a), abs(b)):
            break
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = phi(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = phi(x1)
    candidates = [(fx, 0.0), (f1, x1), (f2, x2), (f_cur, t_cur)]
    f_best, t_best = min(candidates, key=lambda p: p[0])
    if f_best < fx:
        y = x.copy()
        y[k] += t_best
        return y, f_best
    return x, fx


def _bound_hints(spec: SynthesisSpec, gd, gu, gc) -> list:
    """Name the constraints sitting at their admissible bounds (1-based)."""
    hints = []
    if not spec.bounds_set():
        return hints
    tol = 1e-6
    for i in range(spec.n_areas):
        if gd[i] >= spec.gamma_bar_d[i] * (1 - tol) - 1e-12:
            hints.append(f"gamma_d[{i + 1}] at bound {spec.gamma_bar_d[i]:.6g}")
        for j in range(spec.n_areas):
            if gu[i, j] >= spec.gamma_bar_u[i, j] * (1 - tol) - 1e-12:
                hints.append(f"gamma_u[{i + 1},{j + 1}] at bound {spec.gamma_bar_u[i, j]:.6g}")
            if gc[i, j] >= spec.gamma_bar_c[i, j] * (1 - tol) - 1e-12:
                hints.append(f"gamma_c[{i + 1},{j + 1}] at bound {spec.gamma_bar_c[i, j]:.6g}")
    return hints


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgorithmConfig:
    """End-to-end design knobs."""

    q: int = 2
    param_mode: str = MODE_FACTORED
    preserve_diagonal: bool = True
    gain_strategy: str = "block_diagonalizing_F_deadbeat_L"
    F: np.ndarray | None = None
    L: np.ndarray | None = None
    bezout_grid: int = 512
    bound_slack: float = 0.0


@dataclass(frozen=True)
class AlgorithmReport:
    """Structured failure report (never an exception): feeds the regroup branch."""

    status: str
    message: str
    detail: object = None


def run_algorithm1(plant, partition: AreaPartition, nb: Neighborhoods,
                   spec: SynthesisSpec | None = None,
                   config: AlgorithmConfig | None = None):
    """Full first-layer design: constraints, bootstrap, search, certificates.

    Returns a :class:`SynthesisResult`, or an :class:`AlgorithmReport` when
    the sparsity pattern is infeasible at the configured FIR degree (the
    caller should then choose a more compact area distribution by grouping
    independent areas, and start over).
    """
    from .dcf import build_dcf, design_gains
    from .sparse_param import build_parametrization, pattern_from_neighborhoods

    config = config if config is not None else AlgorithmConfig()
    validate_neighborhoods(nb, partition.n_areas)
    pattern = pattern_from_neighborhoods(partition, nb)
    if spec is None:
        spec = default_targets(partition, plant.n_d)
    if spec.bound_slack != config.bound_slack:
        spec = replace(spec, bound_slack=config.bound_slack)

    F, L = design_gains(plant, partition, config.gain_strategy, config.F, config.L)
    bundle = build_dcf(plant, F, L, config.bezout_grid)
    param = build_parametrization(bundle, pattern, config.q, config.param_mode,
                                  config.preserve_diagonal)
    from .sparse_param import InfeasibilityReport
    if isinstance(param, InfeasibilityReport):
        return AlgorithmReport(
            status="sparsity_infeasible",
            message=("the communication pattern admits no Youla parameter at "
                     f"FIR degree {config.q}; choose a more compact area "
                     "distribution by grouping independent areas"),
            detail=param,
        )

    builder = MapsBuilder(bundle, partition)
    if not spec.bounds_set():
        (gd0, gu0, gc0), _ = constraint_norms(param, np.zeros(param.n_free), spec, builder)
        spec = spec.with_bounds(gd0, gu0, gc0)
    return solve(spec, param, bundle, partition)
