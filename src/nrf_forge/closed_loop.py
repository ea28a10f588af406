"""Closed-loop maps of the controlled network, assembled symbolically.

The loop of plant and controller bank admits the explicit response

    [x; u_f] = F star d_s  +  I[k] [x_c; w_c]

where d_s stacks the compound disturbances [beta_x; beta_u; beta_f; d].  The
forced map F and the initial-condition map I are assembled here from the
coprime factors and the Youla parameter by realization composition, never by
simulating the loop; the time-domain simulator is the independent
cross-check of this algebra.

    F = [ N Xq | N Yq     | N (Yqd - Yq) | (N Xq + I) G_d ]
        [ M Xq | M Yq - I | M (Yqd - Yq) | M Xq G_d       ]

    I = [ Y J1 + N Q J1 | N J2 ]     J1 = Mt (zI - A)^{-1} z
        [ X J1 + M Q J1 | M J2 ]     J2 = Yqd C_w (zI - A_w)^{-1} z

Properness of J1/J2 uses (zI - A)^{-1} z = I + (zI - A)^{-1} A.

The same formulas give each area block's support, which holds at every
value of the Youla parameter (:func:`block_support`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcf import DcfBundle
from .errors import DimensionMismatchError, NonzeroFeedthroughError, UnboundedTfmError
from .lti import (
    Realization,
    SignalTrace,
    frequency_response,
    from_gain,
    make_realization,
    minimal,
    negate,
    parallel,
    select_cols,
    select_rows,
    series,
    spectral_radius_raw,
    stack_cols_many,
    stack_rows,
    star,
)
from .nrf import NrfPair, stacked_bank
from .partition import AreaPartition, Neighborhoods
from .sparse_param import QParametrization


@dataclass(frozen=True)
class ClosedLoopMaps:
    """Forced and initial-condition maps plus their building blocks."""

    forced: Realization        # (n_x + n_u) x (n_x + 2 n_u + n_d)
    initial: Realization       # (n_x + n_u) x (n_x + n_w)
    ic_plant_factor: Realization      # J1
    ic_controller_factor: Realization  # J2
    g_d: Realization
    pair: NrfPair
    bank: tuple
    partition: AreaPartition

    @property
    def n_x(self) -> int:
        return self.pair.bundle.n_x

    @property
    def n_u(self) -> int:
        return self.pair.n_u

    @property
    def n_d(self) -> int:
        return self.pair.bundle.plant.n_d

    @property
    def n_w(self) -> int:
        return self.initial.ninputs - self.n_x

    def column_block(self, name: str) -> np.ndarray:
        """Column indices of one input block of the forced map."""
        n_x, n_u, n_d = self.n_x, self.n_u, self.n_d
        offsets = {"beta_x": (0, n_x), "beta_u": (n_x, n_u),
                   "beta_f": (n_x + n_u, n_u), "d": (n_x + 2 * n_u, n_d)}
        if name not in offsets:
            raise KeyError(f"unknown block {name!r}")
        lo, width = offsets[name]
        return np.arange(lo, lo + width)


def _resolvent_times_z(A: np.ndarray, C: np.ndarray) -> Realization:
    """Realize C (zI - A)^{-1} z = C + C (zI - A)^{-1} A, which is proper."""
    return make_realization(A, A.copy(), C, C.copy())


def _assert_stable(R: Realization, label: str) -> Realization:
    rho = spectral_radius_raw(R)
    if rho >= 1.0 - 1e-9:
        raise UnboundedTfmError(
            f"{label} has spectral radius {rho:.6g} after minimalization; "
            "the factorization or the Youla parameter is broken"
        )
    return R


def _stabilized_ic_rows(bundle: DcfBundle, q: Realization) -> Realization:
    """Realize [Y + N Q; X + M Q], the left factor shared by the
    disturbance column and the plant-IC columns."""
    top = parallel(bundle.Y, minimal(series(bundle.N, q)))
    bot = parallel(bundle.X, minimal(series(bundle.M, q)))
    return minimal(stack_rows(top, bot))


def build_fq(pair: NrfPair) -> Realization:
    """Assemble and minimalize the forced closed-loop map.

    The disturbance column is built through the Bezout identity
    (N Xq + I) G_d = (Y + N Q) Mt G_d with Mt G_d = (zI - A - L)^{-1} B_d,
    so no unstable plant mode ever has to cancel numerically.
    """
    bundle = pair.bundle
    n_x, n_u, n_d = bundle.n_x, bundle.n_u, bundle.plant.n_d
    nm = stack_rows(bundle.N, bundle.M)
    diag_gap = minimal(parallel(pair.yq_diag, negate(pair.yq)))
    cols123 = series(nm, stack_cols_many([pair.xq, pair.yq, diag_gap]))
    a_l = bundle.observer_pencil()
    gd_obs = make_realization(a_l, bundle.plant.B_d, np.eye(n_x), np.zeros((n_x, n_d)))
    col4 = series(_stabilized_ic_rows(bundle, pair.q), gd_obs)
    corr = np.zeros((n_x + n_u, n_x + 2 * n_u + n_d))
    corr[n_x:, n_x:n_x + n_u] = -np.eye(n_u)
    fq = minimal(parallel(stack_cols_many([cols123, col4]), from_gain(corr)))
    return _assert_stable(fq, "forced closed-loop map")


def build_iq(pair: NrfPair, bank) -> tuple[Realization, Realization, Realization]:
    """Assemble the initial-condition map; returns (I, J1, J2).

    J1 = Mt (zI - A)^{-1} z collapses to I + (zI - A - L)^{-1} (A + L) for
    this factorization, which is stable by construction.
    """
    bundle = pair.bundle
    a_l = bundle.observer_pencil()
    j1 = minimal(_resolvent_times_z(a_l, np.eye(bundle.n_x)))
    ctrl = stacked_bank(bank)
    j2 = minimal(series(pair.yq_diag, _resolvent_times_z(ctrl.A, ctrl.C)))
    nm = stack_rows(bundle.N, bundle.M)
    left_cols = minimal(series(_stabilized_ic_rows(bundle, pair.q), j1))
    right_cols = minimal(series(nm, j2))
    iq = minimal(stack_cols_many([left_cols, right_cols]))
    _assert_stable(iq, "initial-condition map")
    _assert_stable(j1, "plant resolvent factor")
    _assert_stable(j2, "controller resolvent factor")
    return iq, j1, j2


def build_closed_loop_maps(pair: NrfPair, bank, partition: AreaPartition) -> ClosedLoopMaps:
    """One-stop construction of every closed-loop map for a designed bank."""
    fq = build_fq(pair)
    iq, j1, j2 = build_iq(pair, bank)
    part_w = partition.with_w_sizes([c.order for c in bank])
    return ClosedLoopMaps(fq, iq, j1, j2, pair.bundle.plant.g_d(), pair, tuple(bank), part_w)


def _q_responses(bundle: DcfBundle, taps_seq, zs: np.ndarray):
    """Q, Q Mt and Q Nt on the flat complex grid ``zs`` for each tap tensor
    (q, n_u, n_x) in ``taps_seq``, with Q(z) = sum_t taps[t] z^{-t-1}.  The
    factors Mt and Nt are evaluated once."""
    mt, nt = frequency_response(bundle.Mt, zs), frequency_response(bundle.Nt, zs)
    for taps in taps_seq:
        powers = zs[:, None] ** -np.arange(1.0, taps.shape[0] + 1)
        q_resp = np.einsum("gt,tij->gij", powers, taps)
        yield q_resp, q_resp @ mt, q_resp @ nt


def q_linear_responses(bundle: DcfBundle, taps: np.ndarray, zs):
    """The parts of F and I that are linear in Q, evaluated pointwise on ``zs``.

    ``taps`` stacks K FIR tap tensors of shape (q, n_u, n_x), each the
    parameter Q(z) = sum_t taps[t] z^{-t-1}.  From the docstring formulas with
    Xq = Xt + Q Mt, Yq = Yt + Q Nt, Mt G_d = (zI - A_L)^{-1} B_d and
    J1 = z (zI - A_L)^{-1}, each Q contributes

        forced:  [N; M] [ Q Mt | Q Nt | diag(Q Nt) - Q Nt | Q (zI - A_L)^{-1} B_d ]
        initial: [N; M] Q J1   (the plant-IC columns; the controller-IC
                                columns [N; M] J2 depend on Q only through
                                diag(Yq) and the bank)

    Yields one pair per tap tensor, of shapes (G, n_x + n_u, n_x + 2 n_u + n_d)
    and (G, n_x + n_u, n_x); the factor responses are evaluated once.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    nm = np.concatenate([frequency_response(bundle.N, zs), frequency_response(bundle.M, zs)], axis=1)
    res_l = np.linalg.inv(zs[:, None, None] * np.eye(bundle.n_x) - bundle.observer_pencil())
    gd_l = res_l @ bundle.plant.B_d
    j1 = zs[:, None, None] * res_l
    diag = np.arange(bundle.n_u)
    for q_resp, q_mt, q_nt in _q_responses(bundle, taps, zs):
        gap = -q_nt
        gap[:, diag, diag] = 0.0
        right = np.concatenate([q_mt, q_nt, gap, q_resp @ gd_l], axis=-1)
        yield nm @ right, nm @ (q_resp @ j1)


def kd_responses(bundle: DcfBundle, taps_seq, zs):
    """kd(z) = [I - Yqd^-1 Yq, Yqd^-1 Xq] on ``zs`` for each Q in ``taps_seq``.

    Each element of ``taps_seq`` is an FIR tap tensor as in
    :func:`q_linear_responses`; Yq = Yt + Q Nt, Xq = Xt + Q Mt and Yqd is the
    diagonal of Yq.  The factor responses are evaluated once; yields one
    (G, n_u, n_u + n_x) stack per tap tensor.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    yt, xt = frequency_response(bundle.Yt, zs), frequency_response(bundle.Xt, zs)
    eye = np.eye(bundle.n_u)
    for _, q_mt, q_nt in _q_responses(bundle, taps_seq, zs):
        yq = yt + q_nt
        inv_diag = 1.0 / np.diagonal(yq, axis1=1, axis2=2)[:, :, None]
        yield np.concatenate([eye - inv_diag * yq, inv_diag * (xt + q_mt)], axis=-1)


def _area_support(M: np.ndarray, row_sizes, col_sizes) -> np.ndarray:
    """Which area blocks of M hold an exact nonzero, for contiguous index
    sets of the given sizes: (len(row_sizes), len(col_sizes)) booleans."""
    out = np.zeros((len(row_sizes), len(col_sizes)), dtype=bool)
    rows, cols = np.nonzero(M)
    out[np.repeat(np.arange(len(row_sizes)), row_sizes)[rows],
        np.repeat(np.arange(len(col_sizes)), col_sizes)[cols]] = True
    return out


def _product_support(*factors: np.ndarray) -> np.ndarray:
    """Support of a product from its factors' supports: (X Y)_ij is zero
    unless some X_ik and Y_kj are both nonzero."""
    out = factors[0]
    for f in factors[1:]:
        out = (out.astype(np.int64) @ f.astype(np.int64)) > 0
    return out


def _realization_support(R: Realization, row_sizes, state_sizes, col_sizes) -> np.ndarray:
    """Area support of C (zI - A)^{-1} B + D: the resolvent's is the
    reflexive transitive closure of A's (its Neumann series)."""
    reach = _area_support(R.A, state_sizes, state_sizes) | np.eye(len(state_sizes), dtype=bool)
    while True:
        wider = _product_support(reach, reach)
        if np.array_equal(wider, reach):
            break
        reach = wider
    return (_product_support(_area_support(R.C, row_sizes, state_sizes), reach,
                             _area_support(R.B, state_sizes, col_sizes))
            | _area_support(R.D, row_sizes, col_sizes))


def block_support(bundle: DcfBundle, param: QParametrization,
                  partition: AreaPartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which area-level matching blocks can be nonzero for any x:
    (disturbance (N,), coupling (N, N), init (N, N)) booleans, laid out
    like (gamma_d, gamma_u, gamma_c).

    Each factor's support comes from the exact zeros of its realization's
    area blocks (so from A + B_u F and A + L for the resolvents, and for
    J1 = z (zI - A_L)^{-1}), Q's is the family's recorded support, Yq and
    Xq keep to the family's communication pattern, and J2 is block-diagonal
    by area, as the stacked bank is.  The module docstring's formulas
    combine them with support(X Y) within support(X) support(Y), and an
    area's rows are its x and its u rows.  No tolerance enters, so where
    some exact zero is missing (say with ``user_supplied`` gains) the
    support only grows, up to every block.
    """
    N, xs, us = partition.n_areas, partition.x_sizes, partition.u_sizes
    eye = np.eye(N, dtype=bool)
    # every factor's state is the plant's
    n, m, x, y = (_realization_support(f, rows, xs, cols) for f, rows, cols in (
        (bundle.N, xs, us), (bundle.M, us, us), (bundle.X, us, xs), (bundle.Y, xs, xs)))
    nt, mt, xt, yt = (_realization_support(f, rows, xs, cols) for f, rows, cols in (
        (bundle.Nt, xs, us), (bundle.Mt, xs, xs), (bundle.Xt, us, xs), (bundle.Yt, us, us)))
    q = _area_support(param.support, us, xs)
    yq, xq = yt | _product_support(q, nt), xt | _product_support(q, mt)
    yq &= _area_support(param.pattern.matrix[:, :param.n_u], us, us) | eye
    xq &= _area_support(param.pattern.matrix[:, param.n_u:], us, xs)
    plant = bundle.plant
    j1 = _realization_support(_resolvent_times_z(bundle.observer_pencil(), np.eye(plant.n_x)), xs, xs, xs)
    gd = _product_support(j1, _area_support(plant.B_d, xs, [plant.n_d]))   # Mt G_d
    nm = np.concatenate([n, m])
    left = np.concatenate([y | _product_support(n, q), x | _product_support(m, q)])
    by_yq = _product_support(nm, yq)   # the beta_u and beta_f columns; (Yqd - Yq) is within Yq
    coupling = _product_support(nm, xq) | by_yq | np.concatenate([np.zeros_like(eye), eye])
    init = _product_support(left, j1) | nm   # plant ICs through J1, controller ICs through J2
    disturbance = by_yq.any(axis=1) | _product_support(left, gd).any(axis=1)
    return tuple(s[:N] | s[N:] for s in (disturbance, coupling, init))


def ic_response(iq: Realization, v, horizon: int, start_index: int = 0) -> SignalTrace:
    """Trace of I[k] v for k = 0..horizon-1: the response to an input that
    is v at k = 0 and zero after.  ``v`` is (ninputs,), or (ninputs, S)."""
    v = np.asarray(v, dtype=float)
    if len(v) != iq.ninputs:
        raise DimensionMismatchError(f"vector length {len(v)}, map expects {iq.ninputs}")
    u = np.zeros((horizon,) + v.shape)
    u[:1] = v
    return star(iq, SignalTrace(u, start_index))


def reconstructed_response(maps: ClosedLoopMaps, d_s: SignalTrace, x_c, w_c) -> SignalTrace:
    """[x; u_f] rebuilt from the closed-loop maps (no loop simulation).

    For a trace of S scenarios, ``x_c`` and ``w_c`` are (dim, S) and one
    forced and one initial-condition recursion rebuild all of them.
    """
    v = np.concatenate([np.asarray(x_c, dtype=float), np.asarray(w_c, dtype=float)])
    if v.shape[1:] != d_s.samples.shape[2:]:
        raise DimensionMismatchError(f"initial states {v.shape} do not match the trace")
    forced = star(maps.forced, d_s)
    free = ic_response(maps.initial, v, d_s.horizon, d_s.start_index)
    return SignalTrace(forced.samples + free.samples, d_s.start_index)


def _z_rows(partition: AreaPartition, i: int, n_x: int) -> np.ndarray:
    return np.concatenate([partition.indices("x", i), n_x + partition.indices("u", i)])


def block_indices(maps: ClosedLoopMaps, partition: AreaPartition, kind: str,
                  i: int, j: int | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """(source, rows, cols) of one area-level block of the closed-loop maps;
    source 0 is the forced map, 1 the initial-condition map.

    kind 'disturbance': response of area i to [beta_f; d].
    kind 'coupling':    response of area i to area j's injected commands.
    kind 'init':        response of area i to area j's initial conditions.
    """
    rows = _z_rows(partition, i, maps.n_x)
    if kind == "disturbance":
        return 0, rows, np.concatenate([maps.column_block("beta_f"), maps.column_block("d")])
    if kind not in ("coupling", "init"):
        raise ValueError(f"unknown block kind {kind!r}")
    if j is None:
        raise ValueError(f"{kind} block needs a source area j")
    if kind == "coupling":
        return 0, rows, _z_rows(partition, j, maps.n_x)
    part = maps.partition
    return 1, rows, np.concatenate([part.indices("x", j), maps.n_x + part.indices("w", j)])


def area_block(maps: ClosedLoopMaps, partition: AreaPartition, kind: str,
               i: int, j: int | None = None) -> Realization:
    """Minimal realization of one area-level block (see :func:`block_indices`)."""
    src, rows, cols = block_indices(maps, partition, kind, i, j)
    return minimal(select_cols(select_rows((maps.forced, maps.initial)[src], rows), cols))


@dataclass(frozen=True)
class PredictionModel:
    """Zero-initial-state model of an area's response to its own commands."""

    area: int
    A_s: np.ndarray
    B_s1: np.ndarray
    B_s2: np.ndarray
    C_x: np.ndarray
    C_u: np.ndarray

    @property
    def order(self) -> int:
        return self.A_s.shape[0]

    def initial_state(self) -> np.ndarray:
        # the defining response is a pure convolution, so the state always
        # starts at zero
        return np.zeros(self.order)

    def realization(self) -> Realization:
        B = np.hstack([self.B_s1, self.B_s2])
        C = np.vstack([self.C_x, self.C_u])
        return make_realization(self.A_s, B, C, np.zeros((C.shape[0], B.shape[1])))

    def simulate(self, u_s1: SignalTrace, u_s2: SignalTrace) -> SignalTrace:
        both = SignalTrace(np.hstack([u_s1.samples, u_s2.samples]), u_s1.start_index)
        return star(self.realization(), both)


def prediction_model(maps: ClosedLoopMaps, partition: AreaPartition, i: int) -> PredictionModel:
    """Extract area i's prediction model from the forced map.

    The block is strictly proper whenever the factorization is normalised at
    infinity and the Youla parameter is strictly proper; a nonzero
    feedthrough therefore signals an upstream bug and raises.
    """
    block = area_block(maps, partition, "coupling", i, i)
    dmax = float(np.max(np.abs(block.D), initial=0.0))
    if dmax > 1e-9:
        raise NonzeroFeedthroughError(
            f"prediction model of area {i + 1} has feedthrough {dmax:.3e}; "
            "expected a strictly proper block"
        )
    n_xi = partition.size("x", i)
    n_ui = partition.size("u", i)
    return PredictionModel(
        area=i,
        A_s=block.A,
        B_s1=block.B[:, :n_xi].copy(),
        B_s2=block.B[:, n_xi:].copy(),
        C_x=block.C[:n_xi, :].copy(),
        C_u=block.C[n_xi:, :].copy(),
    )


@dataclass(frozen=True)
class DecomposedResponse:
    """Exogenous / neighbour-IC / residual components of one area's response."""

    psi: SignalTrace
    theta: SignalTrace
    delta: SignalTrace


def decompose_response(maps: ClosedLoopMaps, partition: AreaPartition,
                       nb: Neighborhoods, i: int, d_s: SignalTrace,
                       x_c, w_c, us_others: dict) -> DecomposedResponse:
    """Split area i's response into the three second-layer channels.

    ``d_s`` carries only the exogenous content (measurement noise, encoding
    errors, feedforward noise and plant disturbance); injected second-layer
    commands of the *other* areas arrive through ``us_others`` as
    ``{j: (u_s1j, u_s2j)}`` traces.  Together with the area's own prediction
    model state, psi + theta + delta reconstructs the simulated response.
    """
    n_x = maps.n_x
    part = maps.partition
    rows = _z_rows(partition, i, n_x)
    x_c = np.asarray(x_c, dtype=float).ravel()
    w_c = np.asarray(w_c, dtype=float).ravel()
    if x_c.size != n_x or w_c.size != maps.n_w:
        raise DimensionMismatchError("initial condition dimensions do not match the maps")

    def masked_ic(area_set):
        v = np.zeros(n_x + maps.n_w)
        for j in area_set:
            v[part.indices("x", j)] = x_c[part.indices("x", j)]
            v[n_x + part.indices("w", j)] = w_c[part.indices("w", j)]
        return v

    # residual: cross-coupling from other areas' commands + far-away ICs
    cross = np.zeros((d_s.horizon, maps.forced.ninputs))
    for j, (u1, u2) in us_others.items():
        if j != i:
            cross[:, partition.indices("x", j)] += u1.samples
            cross[:, n_x + partition.indices("u", j)] += u2.samples
    outside = [j for j in range(partition.n_areas) if j not in nb.of(i)]
    # [psi, forced part of delta] and [theta, free part of delta] as batches of two
    forced = star(select_rows(maps.forced, rows),
                  SignalTrace(np.stack([d_s.samples, cross], axis=-1))).samples
    free = ic_response(select_rows(maps.initial, rows), np.stack(
        [masked_ic(sorted(nb.of(i))), masked_ic(outside)], axis=-1), d_s.horizon).samples
    psi, theta, delta = (SignalTrace(a, d_s.start_index) for a in (
        forced[..., 0], free[..., 0], forced[..., 1] + free[..., 1]))
    return DecomposedResponse(psi, theta, delta)
