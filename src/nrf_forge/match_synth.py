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
    _GOLDEN,
    Realization,
    _gram,
    _lambda_max,
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
    """(gamma_d, gamma_u, gamma_c) at the realized maps: the H-infinity norm
    of each matching block minus its target, through a minimal realization.
    Each value is :func:`hinf_norm`'s largest sample seen, a lower bound on
    the true norm."""
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

@dataclass(frozen=True)
class _Block:
    """Where one matching block sits in the closed-loop maps.

    ``slot`` is its place in the flat [gamma_d; gamma_u; gamma_c] vector and
    ``source`` 0 for the forced map, 1 for the initial-condition map.  The
    stacks hold the ``cols`` of ``rows`` (transposed when the block has fewer
    columns than rows, so the Gram side comes first); ``fixed_cols`` never
    move with x and enter only through a constant Gram term.
    """

    slot: int
    source: int
    rows: np.ndarray
    cols: np.ndarray
    fixed_cols: np.ndarray
    transposed: bool


@dataclass
class _BlockGroup:
    """Blocks of one stacked shape (s, t), the grid axis last and block-major."""

    blocks: list
    slots: np.ndarray
    base: np.ndarray            # (s, t, blocks * G): responses at x = 0 minus targets
    dirs: np.ndarray            # (K, s, t, blocks * G): one stack per free direction
    fixed: np.ndarray | None    # (s, s, blocks * G): Gram of the fixed columns


class _SurrogateModel:
    """Grid responses of the matching blocks as affine functions of x.

    Sampling uses only the upper half circle: every map here is
    real-rational, so singular values repeat at conjugate points.  The base
    responses come from the realized maps at x = 0; each free direction's
    response is the Q-linear part of the closed-loop formulas, evaluated
    pointwise.  Both are stored per block, grouped by shape, so an evaluation
    is one Gram stack and one batched lambda_max per group.  Only the
    plant-IC columns of the initial map move with x (the diagonal-preserving
    parametrization pins the controller-IC columns), so where the Gram side
    is the rows the controller-IC columns enter as a constant Gram term.
    ``n_evals`` counts calls of :meth:`objective`.
    """

    def __init__(self, bundle: DcfBundle, param: QParametrization,
                 partition: AreaPartition, spec: SynthesisSpec,
                 maps0: ClosedLoopMaps, active: np.ndarray):
        opts = spec.optimizer
        self.zs = np.exp(1j * np.pi * (np.arange(opts.search_grid) + 0.5) / opts.search_grid)
        self.spec = spec
        self.n_evals = 0
        self._at = None   # (x, stacks, G0 per group) of the last line
        self.groups = self._base_groups(partition, maps0, active.size)
        # fill direction by direction; the controller-IC columns of a
        # direction are zero
        G = self.zs.size
        ic_pad = np.zeros((G, maps0.n_x + maps0.n_u, maps0.n_w), dtype=complex)
        directions = q_linear_responses(bundle, param.basis[active], self.zs)
        for k, (forced_k, ic_k) in enumerate(directions):
            resp = (forced_k, np.concatenate([ic_k, ic_pad], axis=-1))
            for g in self.groups:
                for m, b in enumerate(g.blocks):
                    blk = resp[b.source][:, b.rows[:, None], b.cols]
                    g.dirs[k, :, :, m * G:(m + 1) * G] = (
                        blk.transpose(2, 1, 0) if b.transposed else blk.transpose(1, 2, 0))

    def _base_groups(self, partition: AreaPartition, maps0: ClosedLoopMaps, K: int) -> list:
        """Lay out every matching block, stack its response at x = 0 minus
        its target, and group the blocks by stacked shape; the direction
        stacks are allocated, not filled."""
        spec, zs = self.spec, self.zs
        N, G = spec.n_areas, zs.size
        n_x, n_u, n_d = maps0.n_x, maps0.n_u, maps0.n_d
        part_w = maps0.partition
        base_resp = (frequency_response(maps0.forced, zs), frequency_response(maps0.initial, zs))

        layout = []   # (slot, source, rows, cols, target)
        cols_d = np.arange(n_x + n_u, n_x + 2 * n_u + n_d)
        for i in range(N):
            rows = np.concatenate([partition.indices("x", i), n_x + partition.indices("u", i)])
            layout.append((i, 0, rows, cols_d, spec.t_d[i]))
            for j in range(N):
                cols_u = np.concatenate([partition.indices("x", j), n_x + partition.indices("u", j)])
                layout.append((N + i * N + j, 0, rows, cols_u, spec.target_u(i, j)))
                cols_c = np.concatenate([part_w.indices("x", j), n_x + part_w.indices("w", j)])
                layout.append((N + N * N + i * N + j, 1, rows, cols_c, spec.target_c(i, j)))

        grouped: dict = {}
        for slot, src, rows, cols, target in layout:
            blk = base_resp[src][:, rows[:, None], cols]
            if target is not None:
                blk = blk - self._target_resp(target, rows, cols)
            transposed = cols.size < rows.size
            if transposed:
                moving = np.ones(cols.size, dtype=bool)
                stack, fixed = blk.transpose(2, 1, 0), None
            else:
                moving = cols < n_x if src == 1 else np.ones(cols.size, dtype=bool)
                stack = blk[:, :, moving].transpose(1, 2, 0)
                fixed_part = blk[:, :, ~moving].transpose(1, 2, 0)
                fixed = _gram(fixed_part, fixed_part) if fixed_part.size else None
            block = _Block(slot, src, rows, cols[moving], cols[~moving], transposed)
            grouped.setdefault(stack.shape[:2], []).append((block, stack, fixed))

        groups = []
        for (s, t), members in grouped.items():
            fixed = None
            if any(f is not None for _, _, f in members):
                fixed = np.concatenate([f if f is not None else np.zeros((s, s, G), dtype=complex)
                                        for _, _, f in members], axis=-1)
            groups.append(_BlockGroup(
                blocks=[b for b, _, _ in members],
                slots=np.array([b.slot for b, _, _ in members]),
                base=np.concatenate([stk for _, stk, _ in members], axis=-1),
                dirs=np.empty((K, s, t, len(members) * G), dtype=complex),
                fixed=fixed))
        return groups

    def _target_resp(self, target, rows, cols):
        if target.shape != (rows.size, cols.size):
            raise DimensionMismatchError(
                f"target has shape {target.shape}, block is {(rows.size, cols.size)}"
            )
        return frequency_response(target, self.zs)

    def stacks_at(self, x_active: np.ndarray) -> list:
        """Per-group block responses, targets subtracted, at the active coefficients."""
        return [g.base + np.tensordot(x_active, g.dirs, axes=1) for g in self.groups]

    def _gram0(self, g: _BlockGroup, B: np.ndarray) -> np.ndarray:
        """Gram stack of a group at stacks B, with its constant term."""
        return _gram(B, B) if g.fixed is None else _gram(B, B) + g.fixed

    def gammas_from(self, grams: list):
        """(gamma_d, gamma_u, gamma_c) from the groups' Gram stacks: the peak
        over the grid of each block's largest eigenvalue, square-rooted."""
        N = self.spec.n_areas
        vals = np.empty(N + 2 * N * N)
        for g, H in zip(self.groups, grams):
            lam = _lambda_max(H).reshape(len(g.blocks), -1).max(axis=1)
            vals[g.slots] = np.sqrt(np.maximum(lam, 0.0))
        return vals[:N], vals[N:N + N * N].reshape(N, N), vals[N + N * N:].reshape(N, N)

    def objective(self, grams: list) -> float:
        """Weighted surrogate objective of the groups' Gram stacks; +inf
        outside the admissible bounds."""
        self.n_evals += 1
        gd, gu, gc = self.gammas_from(grams)
        if not _within_bounds(self.spec, gd, gu, gc):
            return np.inf
        return _objective_value(self.spec, gd, gu, gc)

    def objective_at(self, x_active) -> float:
        """:meth:`objective` at the active coefficients."""
        stacks = self.stacks_at(np.asarray(x_active, dtype=float).ravel())
        return self.objective([self._gram0(g, B) for g, B in zip(self.groups, stacks)])

    def line(self, x_active: np.ndarray, k: int):
        """phi(t) = :meth:`objective` at x + t e_k.

        Along the line each block is B + t d, so its Gram is
        G0 + t G1 + t^2 G2 with G0 = B B^H, G1 = B d^H + d B^H and
        G2 = d d^H; these are formed once here, and a probe only sums them.
        The stacks B and G0 are kept for the next line, which reuses them
        while x has not moved.
        """
        if self._at is None or not np.array_equal(self._at[0], x_active):
            stacks = self.stacks_at(x_active)
            self._at = (np.array(x_active, dtype=float), stacks,
                        [self._gram0(g, B) for g, B in zip(self.groups, stacks)])
        _, stacks, grams0 = self._at
        quads = []
        for g, B, g0 in zip(self.groups, stacks, grams0):
            d = g.dirs[k]
            cross = _gram(B, d)
            quads.append((g0, cross + cross.conj().swapaxes(0, 1), _gram(d, d)))

        def phi(t: float) -> float:
            grams = []
            for g0, g1, g2 in quads:
                H = g2 * t
                H += g1
                H *= t
                H += g0
                grams.append(H)
            return self.objective(grams)

        return phi


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
          partition: AreaPartition, bootstrap=None) -> SynthesisResult:
    """Minimise the weighted matching objective over the free coefficients.

    Requires admissible bounds to be set (run the bootstrap first, e.g.
    through :func:`run_algorithm1`) and a diagonal-preserving factored
    parametrization, so that the initial-condition columns stay fixed along
    the search.  The returned constraint values are recomputed through the
    certified norm path; if the surrogate optimum drifts outside a bound,
    the point is shrunk toward the (exactly feasible) origin.
    ``bootstrap`` is the ``constraint_norms`` result at x = 0 under this
    spec's targets, when the caller already has it: its maps seed the
    surrogate, and a certificate at x = 0 reuses its norms.
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

    def certify(x):
        if bootstrap is not None and not np.any(x):
            return bootstrap
        return constraint_norms(param, x, spec, builder)

    if n_free == 0 or float(np.sum(spec.tau_d) + np.sum(spec.tau_u) + np.sum(spec.tau_c)) == 0.0:
        (gd, gu, gc), maps = certify(zero)
        obj = _objective_value(spec, gd, gu, gc)
        return SynthesisResult(zero, gd, gu, gc, obj, [obj], q_from_x(param, zero),
                               maps, spec, param, 1, True, _bound_hints(spec, gd, gu, gc))

    maps0 = bootstrap[1] if bootstrap is not None else builder(q_from_x(param, zero))
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
        (gd, gu, gc), maps = certify(x_full)
        if _within_bounds(spec, gd, gu, gc) or not np.any(x_full):
            break
        x_full *= 0.5
    else:
        x_full = zero
        (gd, gu, gc), maps = certify(x_full)
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

    Each probe evaluates the model's ``phi(t)``, whose Gram stacks are
    quadratic in the step t.
    """
    phi = model.line(x, k)

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

    bootstrap = None
    if not spec.bounds_set():
        bootstrap = constraint_norms(param, np.zeros(param.n_free), spec,
                                     MapsBuilder(bundle, partition))
        spec = spec.with_bounds(*bootstrap[0])
    return solve(spec, param, bundle, partition, bootstrap)
