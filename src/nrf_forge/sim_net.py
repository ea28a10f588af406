"""Deterministic closed-loop simulation, monolithic and distributed.

The monolithic form precomposes the plant and the stacked controller bank
into one loop matrix and steps s = [x; w] with one product per step; inputs
and outputs are products over the trace.  The distributed form runs one
subcontroller per area and exchanges exactly the messages the communication
map (:func:`partition.readable`) allows: each area j broadcasts its measured
state bundle (x_j + zeta_j + u_s1j + beta_s1j) and its command bundle
(u_fj + beta_fj), and every receiver sees the same values.  It first runs
the bank's exact communication check (:func:`nrf.check_comm_constraints`),
which raises CommConstraintError with every violating (area, source) pair;
for banks that pass it the two simulations agree to floating-point
reordering.

Message semantics are synchronous lock-step in two phases over z = [w |
x | u_f | exogenous | state messages | command messages | 0], one row per
step of a chunk buffer reused for every chunk.  Each area reads z through
one gather row: its own controller state and the message slots of its
communication set, padded with the zero slot.  Phase 1, one batched
product of every area's [C_i | D_i,x], writes all commands into their
slots, which are then published; phase 2, one of every [A_i | B_i,u |
B_i,x], writes the next controller states, and [A | B_u] [x; u_f] the
next plant state, into the next row.

Independent scenarios can be stepped together: signal channels may carry a
trailing scenario axis, (horizon, dim, S), and the initial states are then
(dim, S) with traces of shape (horizon, dim, S).  Every step is one matrix
product over all S columns; a single scenario stays one-dimensional.
:func:`stack_scenarios` builds such a batch from equally sized scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlgebraicLoopError, DimensionMismatchError
from .lti import RECURSION_CHUNK, SignalTrace, _apply, _recursion
from .nrf import check_comm_constraints, stacked_bank
from .partition import AreaPartition, Neighborhoods, readable
from .plant import Plant


@dataclass(frozen=True)
class ScenarioSignals:
    """Exogenous traces of one scenario; absent channels default to zero.

    Compound channels are always recomputed from the parts:
    beta_x = zeta + u_s1 + beta_s1 and beta_u = u_s2 + beta_s2.  Channels
    are (horizon, dim), or (horizon, dim, S) for a batch of S scenarios, in
    which case every present channel carries the same S.
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
        batches = set()
        for name, dim_attr in self._dims.items():
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.ndim not in (2, 3) or arr.shape[0] != self.horizon:
                raise DimensionMismatchError(
                    f"signal {name!r} must be (horizon, dim) or (horizon, dim, S), got {arr.shape}"
                )
            if dim_attr is not None and arr.shape[1] != getattr(self, dim_attr):
                raise DimensionMismatchError(
                    f"signal {name!r} has dim {arr.shape[1]}, expected {getattr(self, dim_attr)}"
                )
            batches.add(arr.shape[2:])
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(batches) > 1:
            raise DimensionMismatchError(f"signal channels disagree on the scenario axis: {batches}")

    @property
    def batch(self) -> tuple:
        """() for one scenario, (S,) for a batch of S."""
        for name in self._dims:
            arr = getattr(self, name)
            if arr is not None:
                return arr.shape[2:]
        return ()

    def _get(self, dim: int, *names: str) -> np.ndarray:
        """Sum of the named channels that are present (zeros if none is)."""
        parts = [getattr(self, n) for n in names if getattr(self, n) is not None]
        return sum(parts[1:], parts[0]) if parts else np.zeros((self.horizon, dim) + self.batch)

    @property
    def beta_x(self) -> np.ndarray:
        return self._get(self.n_x, "zeta", "u_s1", "beta_s1")

    @property
    def beta_u(self) -> np.ndarray:
        return self._get(self.n_u, "u_s2", "beta_s2")

    @property
    def beta_f_full(self) -> np.ndarray:
        return self._get(self.n_u, "beta_f")

    @property
    def d_full(self) -> np.ndarray:
        return self._get(self.n_d, "d")

    def stacked_disturbance(self) -> SignalTrace:
        """d_s = [beta_x; beta_u; beta_f; d] as one trace."""
        return SignalTrace(
            np.hstack([self.beta_x, self.beta_u, self.beta_f_full, self.d_full]),
            self.start_index,
        )

    def exogenous_only(self) -> "ScenarioSignals":
        """Copy with the second-layer commands removed (noise channels kept)."""
        return replace(self, u_s1=None, u_s2=None)


#: Noise kinds :func:`compose_signals` can draw.
NOISE_KINDS = ("uniform", "gauss")


def compose_signals(horizon: int, n_x: int, n_u: int, n_d: int,
                    seed: int = 0, amplitudes: dict | None = None,
                    kinds: dict | None = None, start_index: int = 0,
                    traces: dict | None = None) -> ScenarioSignals:
    """Generate (or load) one scenario's exogenous traces, reproducibly.

    Generated channels use a single PCG64 generator seeded per scenario;
    identical (seed, horizon, amplitudes) always yield identical traces.
    ``traces`` entries override generation for the named channels.  An
    ``amplitudes`` or ``kinds`` key that names no channel raises ValueError.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    amplitudes = dict(amplitudes or {})
    kinds = dict(kinds or {})
    traces = dict(traces or {})
    rng = np.random.default_rng(seed)
    dims = {"d": n_d, "zeta": n_x, "u_s1": n_x, "u_s2": n_u,
            "beta_s1": n_x, "beta_s2": n_u, "beta_f": n_u}
    for what, given in (("amplitudes", amplitudes), ("kinds", kinds)):
        for name in given:
            if name not in dims:
                raise ValueError(f"{what}.{name} is not a channel; the channels are {list(dims)}")
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


def stack_scenarios(scenarios) -> ScenarioSignals:
    """Stack equally sized single scenarios along a trailing scenario axis.

    A channel present in some scenarios is zero in the others; the batch
    keeps no seed.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("no scenarios to stack")
    first = scenarios[0]
    layout = (first.horizon, first.n_x, first.n_u, first.n_d, first.start_index)
    for s in scenarios:
        if s.batch or (s.horizon, s.n_x, s.n_u, s.n_d, s.start_index) != layout:
            raise DimensionMismatchError("only equally sized single scenarios can be stacked")
    channels = {}
    for name, dim_attr in ScenarioSignals._dims.items():
        present = [getattr(s, name) for s in scenarios if getattr(s, name) is not None]
        if present:
            dim = getattr(first, dim_attr) if dim_attr else present[0].shape[1]
            channels[name] = np.stack([s._get(dim, name) for s in scenarios], axis=-1)
    if not channels:
        # an all-zero batch still needs one channel to carry its size
        channels["d"] = np.zeros((first.horizon, first.n_d, len(scenarios)))
    return ScenarioSignals(*layout, **channels)


@dataclass(frozen=True)
class LoopTrace:
    """Closed-loop time series plus the metadata needed to replay them.

    Each series, and each :class:`SignalTrace` view, is (horizon, dim), or
    (horizon, dim, S) for a batch of S scenarios.
    """

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

    def outputs(self) -> SignalTrace:
        """[x; u_f] stacked, the quantity the closed-loop maps predict."""
        return SignalTrace(np.hstack([self.x, self.u_f]), self.start_index)


def _reported_w(signals: ScenarioSignals, w: np.ndarray) -> np.ndarray:
    """w, (T, n_w, S), plus beta_w, which rides only on the reported copy."""
    if signals.beta_w is None:
        return w
    if signals.beta_w.shape[1] != w.shape[1]:
        raise DimensionMismatchError(
            f"beta_w has dim {signals.beta_w.shape[1]}, controller order is {w.shape[1]}"
        )
    return w + signals.beta_w[:w.shape[0]].reshape(w.shape)


def _initial_state(v, dim: int, batch: tuple, name: str) -> np.ndarray:
    """Copy of ``v`` shaped (dim,) + batch; a single scenario stays 1-d."""
    v = np.array(v, dtype=float)
    shape = (dim,) + batch
    if v.shape != shape and (batch or v.size != dim):
        raise DimensionMismatchError(f"{name} has shape {v.shape}, expected {shape}")
    return v.reshape(shape)


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
    ``x_c`` and ``w_c`` are (dim,) for one scenario and (dim, S) for signals
    batched over S scenarios.

    The loop is precomposed: s = [x; w] steps as s_{k+1} = A_cl s_k + B_cl
    d_s[k] over d_s = [beta_x; beta_u; beta_f; d], one product per step
    (:func:`lti._recursion`), and u_f = [D_x, C_w] s + D_x beta_x.  The
    drive B_cl d_s is taken from B_cl's nonzero blocks, sharing D_x beta_x
    with u_f.
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
    B_wu, B_wx = controller.B[:, :n_u], controller.B[:, n_u:]
    n_w, batch = controller.order, signals.batch
    S = int(np.prod(batch, dtype=int))
    s0 = np.concatenate([_initial_state(x_c, n_x, batch, "x_c").reshape(n_x, S),
                         _initial_state(w_c, n_w, batch, "w_c").reshape(n_w, S)])
    beta_x, beta_u, beta_f, d = (a[:T].reshape(T, a.shape[1], S) for a in (
        signals.beta_x, signals.beta_u, signals.beta_f_full, signals.d_full))
    # s_{k+1} = A_cl s_k + drive_k over s = [x; w]; u_f enters s through B_s
    C_uf = np.hstack([D_x, controller.C])
    B_s = np.vstack([plant.B_u, B_wu])
    A_cl = np.block([[plant.A, np.zeros((n_x, n_w))], [B_wx, controller.A]]) + B_s @ C_uf
    # v = D_x beta_x; x: [B_u | B_d] [v + beta_u; d], w: [B_wu | B_wx] [v + beta_f; beta_x]
    u_f = _apply(D_x, beta_x)
    states = _recursion(A_cl, (np.hstack([plant.B_u, plant.B_d]), np.hstack([B_wu, B_wx])),
                        np.concatenate([u_f + beta_u, d, u_f + beta_f, beta_x], axis=1), s0)
    u_f += _apply(C_uf, states)
    u = u_f + beta_u
    w = _reported_w(signals, states[:, n_x:])
    return LoopTrace(*(a.reshape(a.shape[:2] + batch) for a in (states[:, :n_x], u_f, u, w)),
                     signals.start_index, signals.seed, "monolithic")


def _layout(heights, base: int):
    """Stack position p of each area (tallest first) and its z slots: row j
    lands on base + j N + p, so each row level's padding trails its rows."""
    pos = np.argsort(np.argsort(-np.asarray(heights), kind="stable"))
    return pos, [base + len(heights) * np.arange(h) + pos[i] for i, h in enumerate(heights)]


def _stack(rows, pos, pad: int):
    """Per-area (gather row, matrix) pairs, area i at stack position
    ``pos[i]``, as one (N, width) gather array padded with slot ``pad`` and
    one zero-padded (N, height, width) matrix stack."""
    width = max(len(g) for g, _ in rows)
    G = np.full((len(rows), width), pad)
    P = np.zeros((len(rows), max(m.shape[0] for _, m in rows), width))
    for p, (g, m) in zip(pos, rows):
        G[p, :len(g)] = g
        P[p, :m.shape[0], :m.shape[1]] = m
    return G, P


def simulate_distributed(plant: Plant, bank, partition: AreaPartition,
                         nb: Neighborhoods, signals: ScenarioSignals,
                         x_c, w_c, horizon: int | None = None) -> LoopTrace:
    """Run one subcontroller per area with explicit message passing.

    Each step is one gathered product per phase over all areas and
    scenarios, written in place (see the module notes); area i's product
    reads only its own state and the message slots of its row of the
    communication map.  A bank that reads outside its sets fails
    :func:`nrf.check_comm_constraints` before any step.  Batched signals
    step all their scenarios at once.
    """
    T = horizon if horizon is not None else signals.horizon
    if T > signals.horizon:
        raise DimensionMismatchError("horizon exceeds the provided signal traces")
    n_x, n_u, N = plant.n_x, plant.n_u, partition.n_areas
    batch = signals.batch
    S = int(np.prod(batch, dtype=int))
    h_u, h_w = max(c.D.shape[0] for c in bank), max(c.order for c in bank)
    # z = [w | x | u_f | beta_x | beta_f | e | msg_x | msg_u | 0], e = B_u beta_u + B_d d;
    # w and the u_f-sized parts are in the row-level layout of _layout
    xo, uo, bxo, bfo, eo, mxo, muo, zero = np.cumsum(
        [N * h_w, n_x, N * h_u, n_x, N * h_u, n_x, n_x, N * h_u]).tolist()
    pos_w, w_rows = _layout([c.order for c in bank], 0)
    pos_u, u_rows = _layout([c.D.shape[0] for c in bank], uo)
    w_slots, uf_slots = np.concatenate(w_rows), np.concatenate(u_rows)
    # z slot carrying each controller input [u_f-bundle; x-bundle]
    in_slot = np.r_[uf_slots - uo + muo, mxo + np.arange(n_x)]
    check_comm_constraints(bank, partition, nb)
    may = readable(partition, nb)
    phase1, phase2 = [], []
    for i, ctrl in enumerate(bank):
        _check_no_algebraic_loop(ctrl.D, n_u)
        cols = np.flatnonzero(may[partition.offset("u", i)])
        cols_x = cols[cols >= n_u]
        phase1.append((np.r_[w_rows[i], in_slot[cols_x]], np.hstack([ctrl.C, ctrl.D[:, cols_x]])))
        phase2.append((np.r_[w_rows[i], in_slot[cols]], np.hstack([ctrl.A, ctrl.B[:, cols]])))
    (G1, P1), (G2, P2) = _stack(phase1, pos_u, zero), _stack(phase2, pos_w, zero)
    # the plant product [A | B_u] reads x and the u_f slots up to the last real one
    AB = np.zeros((n_x, int(uf_slots.max()) + 1 - xo))
    AB[:, :n_x], AB[:, uf_slots - xo] = plant.A, plant.B_u
    beta_x, beta_u, beta_f, d = (a[:T].reshape(T, a.shape[1], S) for a in (
        signals.beta_x, signals.beta_u, signals.beta_f_full, signals.d_full))
    out_slots = np.r_[xo:uo, uf_slots, w_slots]
    out = np.empty((T, len(out_slots), S))
    # one row per step of a chunk; the last row carries the state into the next chunk
    rows = min(T, RECURSION_CHUNK)
    z = np.zeros((rows + 1, zero + 1, S))
    z[rows, w_slots] = _initial_state(w_c, len(w_slots), batch, "w_c").reshape(-1, S)
    z[rows, xo:uo] = _initial_state(x_c, n_x, batch, "x_c").reshape(n_x, S)
    # each row's views, made once: the (N, h, S) row-level views are the products' outputs
    uf_lv, w_lv = (z[:, lo:hi].reshape(rows + 1, (hi - lo) // N, N, S).transpose(0, 2, 1, 3)
                   for lo, hi in ((uo, bxo), (0, xo)))
    steps = list(zip(z, z[:, xo:uo], z[:, bxo:bfo], z[:, mxo:muo], uf_lv, z[:, uo:bxo],
                     z[:, bfo:eo], z[:, muo:zero], w_lv[1:], z[:, xo:xo + AB.shape[1]],
                     z[1:, xo:uo], z[:, eo:mxo]))
    for lo in range(0, T, RECURSION_CHUNK):
        n = min(rows, T - lo)
        z[0, :uo] = z[rows, :uo]
        z[:n, bxo:bfo], z[:n, uf_slots - uo + bfo] = beta_x[lo:lo + n], beta_f[lo:lo + n]
        np.matmul(plant.B_u, beta_u[lo:lo + n], out=z[:n, eo:mxo])
        z[:n, eo:mxo] += np.matmul(plant.B_d, d[lo:lo + n])
        for zr, x, bx, mx, uf_out, uf, bf, mu, w_next, xu, x_next, e in steps[:n]:
            np.add(x, bx, out=mx)
            np.matmul(P1, zr[G1], out=uf_out)
            np.add(uf, bf, out=mu)
            np.matmul(P2, zr[G2], out=w_next)
            np.dot(AB, xu, out=x_next)
            x_next += e
        np.take(z[:n], out_slots, axis=1, out=out[lo:lo + n], mode="clip")
    X, UF, W = np.split(out, [n_x, n_x + n_u], axis=1)
    W = _reported_w(signals, W)
    return LoopTrace(*(a.reshape(a.shape[:2] + batch) for a in (X, UF, UF + beta_u, W)),
                     signals.start_index, signals.seed, "distributed")
