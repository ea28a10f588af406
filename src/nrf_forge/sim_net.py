"""Deterministic closed-loop simulation, monolithic and distributed.

The monolithic form steps the plant against the stacked controller bank in
one process.  The distributed form runs one subcontroller per area and
exchanges exactly the messages the communication sets allow: each area j
broadcasts its measured state bundle (x_j + zeta_j + u_s1j + beta_s1j) and
its command bundle (u_fj + beta_fj), and every receiver sees the same
values.  For banks that pass the communication-constraint check the two
simulations agree to floating-point reordering.

Message semantics are synchronous lock-step: all areas exchange, then all
step.  A delayed-message mode exists purely as an off-spec negative control
for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlgebraicLoopError, CommConstraintError, DimensionMismatchError
from .lti import SignalTrace
from .nrf import AreaController, stacked_bank
from .partition import AreaPartition, Neighborhoods
from .plant import Plant


@dataclass(frozen=True)
class ScenarioSignals:
    """Exogenous traces of one scenario; absent channels default to zero.

    Compound channels are always recomputed from the parts:
    beta_x = zeta + u_s1 + beta_s1 and beta_u = u_s2 + beta_s2.
    """

    horizon: int
    n_x: int
    n_u: int
    n_d: int
    start_index: int = 0
    seed: int | None = None
    d: np.ndarray | None = None
    zeta: np.ndarray | None = None
    u_s1: np.ndarray | None = None
    u_s2: np.ndarray | None = None
    beta_s1: np.ndarray | None = None
    beta_s2: np.ndarray | None = None
    beta_f: np.ndarray | None = None
    beta_w: np.ndarray | None = None

    _dims = {"d": "n_d", "zeta": "n_x", "u_s1": "n_x", "u_s2": "n_u",
             "beta_s1": "n_x", "beta_s2": "n_u", "beta_f": "n_u", "beta_w": None}

    def __post_init__(self):
        for name, dim_attr in self._dims.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != self.horizon:
                raise DimensionMismatchError(
                    f"signal {name!r} must be (horizon, dim), got {arr.shape}"
                )
            if dim_attr is not None and arr.shape[1] != getattr(self, dim_attr):
                raise DimensionMismatchError(
                    f"signal {name!r} has dim {arr.shape[1]}, expected {getattr(self, dim_attr)}"
                )
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _get(self, name: str, dim: int) -> np.ndarray:
        arr = getattr(self, name)
        return arr if arr is not None else np.zeros((self.horizon, dim))

    @property
    def beta_x(self) -> np.ndarray:
        return (self._get("zeta", self.n_x) + self._get("u_s1", self.n_x)
                + self._get("beta_s1", self.n_x))

    @property
    def beta_u(self) -> np.ndarray:
        return self._get("u_s2", self.n_u) + self._get("beta_s2", self.n_u)

    @property
    def beta_f_full(self) -> np.ndarray:
        return self._get("beta_f", self.n_u)

    @property
    def d_full(self) -> np.ndarray:
        return self._get("d", self.n_d)

    def stacked_disturbance(self) -> SignalTrace:
        """d_s = [beta_x; beta_u; beta_f; d] as one trace."""
        return SignalTrace(
            np.hstack([self.beta_x, self.beta_u, self.beta_f_full, self.d_full]),
            self.start_index,
        )

    def exogenous_only(self) -> "ScenarioSignals":
        """Copy with the second-layer commands removed (noise channels kept)."""
        return ScenarioSignals(
            self.horizon, self.n_x, self.n_u, self.n_d, self.start_index, self.seed,
            d=self.d, zeta=self.zeta, u_s1=None, u_s2=None,
            beta_s1=self.beta_s1, beta_s2=self.beta_s2,
            beta_f=self.beta_f, beta_w=self.beta_w,
        )


def compose_signals(horizon: int, n_x: int, n_u: int, n_d: int,
                    seed: int = 0, amplitudes: dict | None = None,
                    kinds: dict | None = None, start_index: int = 0,
                    traces: dict | None = None) -> ScenarioSignals:
    """Generate (or load) one scenario's exogenous traces, reproducibly.

    Generated channels use a single PCG64 generator seeded per scenario;
    identical (seed, horizon, amplitudes) always yield identical traces.
    ``traces`` entries override generation for the named channels.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    amplitudes = dict(amplitudes or {})
    kinds = dict(kinds or {})
    traces = dict(traces or {})
    rng = np.random.default_rng(seed)
    dims = {"d": n_d, "zeta": n_x, "u_s1": n_x, "u_s2": n_u,
            "beta_s1": n_x, "beta_s2": n_u, "beta_f": n_u}
    channels = {}
    if "beta_w" in traces:
        # the controller-state dimension is design-dependent, so this channel
        # is only ever file-provided
        bw = np.asarray(traces.pop("beta_w"), dtype=float)
        if bw.shape[0] != horizon:
            raise DimensionMismatchError(
                f"provided trace 'beta_w' has horizon {bw.shape[0]}, expected {horizon}"
            )
        channels["beta_w"] = bw
    for name, dim in dims.items():
        if name in traces:
            arr = np.asarray(traces[name], dtype=float)
            if arr.shape != (horizon, dim):
                raise DimensionMismatchError(
                    f"provided trace {name!r} has shape {arr.shape}, expected {(horizon, dim)}"
                )
            channels[name] = arr
            continue
        amp = float(amplitudes.get(name, 0.0))
        kind = kinds.get(name, "uniform")
        if amp == 0.0:
            # absent channels draw nothing; the stream layout is part of the
            # scenario config, so identical configs replay identically
            continue
        if kind == "uniform":
            channels[name] = amp * rng.uniform(-1.0, 1.0, size=(horizon, dim))
        elif kind == "gauss":
            channels[name] = amp * rng.standard_normal(size=(horizon, dim))
        else:
            raise ValueError(f"unknown noise kind {kind!r} for channel {name!r}")
    return ScenarioSignals(horizon, n_x, n_u, n_d, start_index, seed, **channels)


@dataclass(frozen=True)
class LoopTrace:
    """Closed-loop time series plus the metadata needed to replay them."""

    x: np.ndarray
    u_f: np.ndarray
    u: np.ndarray
    w: np.ndarray
    start_index: int = 0
    seed: int | None = None
    mode: str = "monolithic"

    def __post_init__(self):
        for name in ("x", "u_f", "u", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.x.shape[0]

    def states(self) -> SignalTrace:
        return SignalTrace(self.x, self.start_index)

    def outputs(self) -> SignalTrace:
        """[x; u_f] stacked, the quantity the closed-loop maps predict."""
        return SignalTrace(np.hstack([self.x, self.u_f]), self.start_index)


def _reported_state_noise(signals: ScenarioSignals, horizon: int, n_w: int) -> np.ndarray:
    if signals.beta_w is None:
        return np.zeros((horizon, n_w))
    if signals.beta_w.shape[1] != n_w:
        raise DimensionMismatchError(
            f"beta_w has dim {signals.beta_w.shape[1]}, controller order is {n_w}"
        )
    return signals.beta_w[:horizon]


def _check_no_algebraic_loop(D: np.ndarray, n_u: int) -> None:
    if D.size and np.any(D[:, :n_u] != 0.0):
        raise AlgebraicLoopError(
            "controller feedthrough on the command-feedforward columns is "
            "nonzero; the loop has no causal execution order"
        )


def simulate_monolithic(plant: Plant, controller, signals: ScenarioSignals,
                        x_c, w_c, horizon: int | None = None) -> LoopTrace:
    """Step the plant against the stacked bank realization, exactly.

    ``controller`` is either the stacked bank realization (inputs ordered
    [u_f + beta_f; x + beta_x]) or a list of :class:`AreaController`.
    """
    if isinstance(controller, (list, tuple)):
        controller = stacked_bank(controller)
    T = horizon if horizon is not None else signals.horizon
    if T > signals.horizon:
        raise DimensionMismatchError("horizon exceeds the provided signal traces")
    n_x, n_u = plant.n_x, plant.n_u
    if controller.ninputs != n_u + n_x or controller.noutputs != n_u:
        raise DimensionMismatchError(
            f"controller is {controller.shape}, expected {(n_u, n_u + n_x)}"
        )
    _check_no_algebraic_loop(controller.D, n_u)
    D_x = controller.D[:, n_u:]
    x = np.asarray(x_c, dtype=float).ravel().copy()
    w = np.asarray(w_c, dtype=float).ravel().copy()
    if x.size != n_x or w.size != controller.order:
        raise DimensionMismatchError("initial condition sizes do not match")
    beta_x, beta_u = signals.beta_x, signals.beta_u
    beta_f, d = signals.beta_f_full, signals.d_full
    beta_w = _reported_state_noise(signals, T, controller.order)
    X = np.empty((T, n_x))
    UF = np.empty((T, n_u))
    U = np.empty((T, n_u))
    W = np.empty((T, controller.order))
    A, B_u, B_d = plant.A, plant.B_u, plant.B_d
    A_w, B_w, C_w = controller.A, controller.B, controller.C
    for k in range(T):
        X[k] = x
        # the controller-state disturbance rides only on the reported copy
        # of w; it never enters the loop itself
        W[k] = w + beta_w[k]
        meas = x + beta_x[k]
        u_f = C_w @ w + D_x @ meas
        UF[k] = u_f
        u = u_f + beta_u[k]
        U[k] = u
        ctrl_in = np.concatenate([u_f + beta_f[k], meas])
        w = A_w @ w + B_w @ ctrl_in
        x = A @ x + B_u @ u + B_d @ d[k]
    return LoopTrace(X, UF, U, W, signals.start_index, signals.seed, "monolithic")


def simulate_distributed(plant: Plant, bank, partition: AreaPartition,
                         nb: Neighborhoods, signals: ScenarioSignals,
                         x_c, w_c, horizon: int | None = None,
                         delay_messages: bool = False) -> LoopTrace:
    """Run one subcontroller per area with explicit message passing.

    Each area reads only the state and command bundles of its communication
    set; structurally required inputs from outside that set raise (the bank
    is expected to have passed the communication-constraint check first).
    ``delay_messages=True`` switches to one-step-old neighbour messages, an
    off-spec demo mode that breaks equivalence with the monolithic loop.
    """
    T = horizon if horizon is not None else signals.horizon
    if T > signals.horizon:
        raise DimensionMismatchError("horizon exceeds the provided signal traces")
    n_x, n_u = plant.n_x, plant.n_u
    N = partition.n_areas
    x = np.asarray(x_c, dtype=float).ravel().copy()
    w_parts = []
    off = 0
    w_c = np.asarray(w_c, dtype=float).ravel()
    for ctrl in bank:
        w_parts.append(w_c[off:off + ctrl.order].copy())
        off += ctrl.order
    if off != w_c.size:
        raise DimensionMismatchError("w_c length does not match the bank")

    # per-area column views into the controller input [u_f-bundle; x-bundle],
    # with the feedthrough and input-matrix slices that read them
    local = []
    for i, ctrl in enumerate(bank):
        D = ctrl.D
        _check_no_algebraic_loop(D, n_u)
        cols_u, cols_x = [], []
        for j in range(N):
            if j in nb.of(i):
                cols_u.extend(partition.indices("u", j))
                cols_x.extend(partition.indices("x", j))
            else:
                hot_u = partition.indices("u", j)
                hot_x = n_u + partition.indices("x", j)
                uses = (ctrl.order and (np.any(ctrl.B[:, hot_u]) or np.any(ctrl.B[:, hot_x]))) \
                    or np.any(D[:, hot_u]) or np.any(D[:, hot_x])
                if uses:
                    raise CommConstraintError([(i, j)])
        cols_u, cols_x = np.asarray(cols_u, dtype=int), np.asarray(cols_x, dtype=int)
        local.append((cols_u, cols_x, D[:, n_u + cols_x], ctrl.B[:, cols_u], ctrl.B[:, n_u + cols_x]))

    beta_x, beta_u = signals.beta_x, signals.beta_u
    beta_f, d = signals.beta_f_full, signals.d_full
    n_w_total = sum(c.order for c in bank)
    beta_w = _reported_state_noise(signals, T, n_w_total)
    X = np.empty((T, n_x))
    UF = np.empty((T, n_u))
    U = np.empty((T, n_u))
    W = np.empty((T, n_w_total))
    A, B_u, B_d = plant.A, plant.B_u, plant.B_d
    u_idx = [partition.indices("u", i) for i in range(N)]
    x_idx = [partition.indices("x", i) for i in range(N)]
    prev_state_msg = np.zeros(n_x)
    prev_cmd_msg = np.zeros(n_u)
    for k in range(T):
        X[k] = x
        W[k] = (np.concatenate(w_parts) if w_parts else np.zeros(0)) + beta_w[k]
        # broadcast phase: every area publishes its measured-state bundle
        state_msg = x + beta_x[k]
        state_src = prev_state_msg if (delay_messages and k > 0) else state_msg
        # local command computation (state messages only; no u_f feedthrough)
        u_f = np.empty(n_u)
        for i, ctrl in enumerate(bank):
            _, cols_x, D_state, _, _ = local[i]
            contrib = D_state @ state_src[cols_x]
            u_f[u_idx[i]] = (ctrl.C @ w_parts[i] if ctrl.order else 0.0) + contrib
        UF[k] = u_f
        cmd_msg = u_f + beta_f[k]
        cmd_src = prev_cmd_msg if (delay_messages and k > 0) else cmd_msg
        # state update phase: each area consumes only its allowed messages
        for i, ctrl in enumerate(bank):
            if not ctrl.order:
                continue
            cols_u, cols_x, _, B_cmd, B_state = local[i]
            w_parts[i] = (ctrl.A @ w_parts[i]
                          + B_cmd @ cmd_src[cols_u]
                          + B_state @ state_src[cols_x])
        u = u_f + beta_u[k]
        U[k] = u
        x = A @ x + B_u @ u + B_d @ d[k]
        prev_state_msg, prev_cmd_msg = state_msg, cmd_msg
    return LoopTrace(X, UF, U, W, signals.start_index, signals.seed, "distributed")
