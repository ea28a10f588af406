"""Closed-loop maps of the controlled network: the loop's own realization,
and the paper's expressions for it, evaluated pointwise.

The loop of plant and controller bank admits the explicit response

    [x; u_f] = F star d_s  +  I[k] [x_c; w_c]

where d_s stacks the compound disturbances [beta_x; beta_u; beta_f; d].  The
loop itself is one realization over s = [x; w] from [d_s; s_0], with the
state matrix A_cl of :func:`nrf.loop_matrix` that the monolithic simulation
steps and no reduction (:func:`build_closed_loop_maps`): its column panels are
F = C_cl (zI - A_cl)^{-1} B_cl + D_cl and I = C_cl z (zI - A_cl)^{-1}, whose
response to s_0 delta_0 is the loop's free response from s_0 = [x_c; w_c].
Every matching block is (rows, cols) of it (:func:`block_indices`).  In the
coprime factors
R = [N Y; M X], Lt = [-Xt Yt; Mt -Nt] and the Youla parameter Q they are

    F = [ N Xq | N Yq     | N (Yqd - Yq) | (N Xq + I) G_d ]
        [ M Xq | M Yq - I | M (Yqd - Yq) | M Xq G_d       ]

    I = [ Y J1 + N Q J1 | N J2 ]     J1 = Mt (zI - A)^{-1} z
        [ X J1 + M Q J1 | M J2 ]     J2 = Yqd C_w (zI - A_w)^{-1} z

with [-Xq, Yq] = [I, -Q] Lt (:mod:`nrf`), Yqd the diagonal of Yq and
(A_w, C_w) the stacked bank; by the Bezout identity (N Xq + I) G_d =
(Y + N Q) (zI - A_L)^{-1} B_d and J1 = z (zI - A_L)^{-1}.  These
expressions are evaluated once, pointwise (:func:`explicit_maps`, whose
Q-linear part :func:`q_linear_response` the search surrogate reads), and
verify's ``explicit_closed_loop_maps`` holds the loop realization to them.

The same formulas give each area block's support, which holds at every
value of the Youla parameter (:func:`block_support`).  With Q = P (I - A_L z^{-1})
(:mod:`sparse_param`), the Q-linear part of F and I is [N; M] times the FIR maps
Q Mt = P (I - A z^{-1}), Q Nt = P B_u z^{-1}, Q (zI - A_L)^{-1} B_d = P B_d z^{-1}
and Q J1 = P, so which blocks move with x follows from exact zeros too
(:func:`moving_blocks`).
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
    make_realization,
    minimal,
    select_cols,
    select_rows,
    spectral_radius_raw,
    star,
)
from .nrf import NrfPair, loop_matrix, stacked_bank
from .partition import AreaPartition, Neighborhoods
from .sparse_param import QParametrization


@dataclass(frozen=True)
class ClosedLoopMaps:
    """The loop over s = [x; w] (order n_x + n_w) as one realization from
    [d_s; s_0] to [x; u_f], whose column panels are F and I, with the pair
    and the bank it closes."""

    loop: Realization          # (n_x + n_u) x (n_f + n_x + n_w)
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
        return self.loop.order - self.n_x

    @property
    def n_f(self) -> int:   # the width of d_s
        return self.n_x + 2 * self.n_u + self.n_d

    @property
    def forced(self) -> Realization:   # F, the loop's d_s columns
        return select_cols(self.loop, np.arange(self.n_f))

    @property
    def initial(self) -> Realization:   # I, the loop's s_0 columns
        return select_cols(self.loop, self.n_f + np.arange(self.loop.order))

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


def _nm(bundle: DcfBundle) -> Realization:
    """[N; M], the first n_u columns of R."""
    return select_cols(bundle.right, np.arange(bundle.n_u))


def build_closed_loop_maps(pair: NrfPair, bank, partition: AreaPartition) -> ClosedLoopMaps:
    """The plant closed by ``bank`` as one realization over s = [x; w],
    (A_cl, [B_cl | A_cl], C_cl, [D_cl | C_cl]) from [d_s; s_0]: A_cl and
    u_f = C_uf s + D_x beta_x from :func:`nrf.loop_matrix` (which refuses
    command feedthrough), outputs C_cl = [I 0; C_uf], and

        B_cl = [ B_u D_x           B_u   0     B_d ]     D_cl = [ 0    0 0 0 ]
               [ B_wx + B_wu D_x   0     B_wu  0   ]            [ D_x  0 0 0 ]

    The s_0 columns realize C_cl z (zI - A_cl)^{-1} = C_cl + C_cl (zI - A_cl)^{-1} A_cl.
    A loop of spectral radius 1 - 1e-9 or more raises UnboundedTfmError.
    """
    plant, ctrl = pair.bundle.plant, stacked_bank(bank)
    n_x, n_u, n_w, n_d = plant.n_x, plant.n_u, ctrl.order, plant.n_d
    A_cl, C_uf = loop_matrix(plant, ctrl)
    D_x, B_wu = ctrl.D[:, n_u:], ctrl.B[:, :n_u]
    B_cl = np.zeros((n_x + n_w, n_x + 2 * n_u + n_d))
    B_cl[:, :n_x] = np.vstack([plant.B_u, B_wu]) @ D_x
    B_cl[n_x:, :n_x] += ctrl.B[:, n_u:]
    B_cl[:n_x, n_x:n_x + n_u], B_cl[n_x:, n_x + n_u:n_x + 2 * n_u] = plant.B_u, B_wu
    B_cl[:n_x, n_x + 2 * n_u:] = plant.B_d
    C_cl = np.vstack([np.eye(n_x, n_x + n_w), C_uf])
    D_cl = np.zeros((n_x + n_u, B_cl.shape[1]))
    D_cl[n_x:, :n_x] = D_x
    loop = make_realization(A_cl, np.hstack([B_cl, A_cl]), C_cl, np.hstack([D_cl, C_cl]))
    rho = spectral_radius_raw(loop)
    if rho >= 1.0 - 1e-9:
        raise UnboundedTfmError(
            f"the closed loop has spectral radius {rho:.6g}; "
            "the factorization, the Youla parameter or the bank is broken"
        )
    part_w = partition.with_w_sizes([c.order for c in bank])
    return ClosedLoopMaps(loop, pair, tuple(bank), part_w)


def _left_responses(bundle: DcfBundle, zs: np.ndarray):
    """Xt, Yt, Mt and Nt on the flat complex grid ``zs``, sliced from one
    response of Lt = [-Xt Yt; Mt -Nt]."""
    m, n = bundle.n_u, bundle.n_x
    lt = frequency_response(bundle.left, zs)
    return -lt[:, :m, :n], lt[:, :m, n:], lt[:, m:, :n], -lt[:, m:, n:]


def _q_response(mt: np.ndarray, nt: np.ndarray, taps: np.ndarray, zs: np.ndarray):
    """Q, Q Mt and Q Nt on the flat complex grid ``zs`` for the tap tensor
    ``taps`` (q, n_u, n_x), with Q(z) = sum_t taps[t] z^{-t-1}, from the
    responses ``mt`` and ``nt`` on ``zs``."""
    powers = zs[:, None] ** -np.arange(1.0, taps.shape[0] + 1)
    q_resp = np.einsum("gt,tij->gij", powers, taps)
    return q_resp, q_resp @ mt, q_resp @ nt


def q_factor_responses(bundle: DcfBundle, zs) -> tuple:
    """The factors of :func:`q_linear_response`, which no Q enters, on the flat
    complex grid ``zs``: (zs, [N; M], Mt, Nt, (zI - A_L)^{-1} B_d, J1)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    return _q_factors(bundle, zs, *_left_responses(bundle, zs)[2:])


def _q_factors(bundle: DcfBundle, zs: np.ndarray, mt: np.ndarray, nt: np.ndarray) -> tuple:
    """:func:`q_factor_responses` from the responses ``mt`` and ``nt`` on ``zs``."""
    res_l = np.linalg.inv(zs[:, None, None] * np.eye(bundle.n_x) - bundle.observer_pencil())
    return (zs, frequency_response(_nm(bundle), zs), np.ascontiguousarray(mt), nt,
            res_l @ bundle.plant.B_d, zs[:, None, None] * res_l)


def q_linear_response(factors: tuple, taps: np.ndarray):
    """The parts of F and I that are linear in Q, evaluated pointwise.

    ``taps`` is one FIR tap tensor of shape (q, n_u, n_x), the parameter
    Q(z) = sum_t taps[t] z^{-t-1}.  From the docstring formulas with
    Xq = Xt + Q Mt, Yq = Yt + Q Nt, Mt G_d = (zI - A_L)^{-1} B_d and
    J1 = z (zI - A_L)^{-1}, Q contributes

        forced:  [N; M] [ Q Mt | Q Nt | diag(Q Nt) - Q Nt | Q (zI - A_L)^{-1} B_d ]
        initial: [N; M] Q J1   (the x_c columns; the w_c columns [N; M] J2
                                depend on Q only through diag(Yq) and the bank)

    on the grid of ``factors`` (:func:`q_factor_responses`).  Returns the
    loop's first n_f + n_x columns (:attr:`ClosedLoopMaps.loop`), one array
    of shape (G, n_x + n_u, n_f + n_x).
    """
    zs, nm, mt, nt, gd_l, j1 = factors
    q_resp, q_mt, q_nt = _q_response(mt, nt, taps, zs)
    diag = np.arange(q_nt.shape[1])
    gap = -q_nt
    gap[:, diag, diag] = 0.0
    right = np.concatenate([q_mt, q_nt, gap, q_resp @ gd_l], axis=-1)
    n_f = right.shape[-1]
    out = np.empty(nm.shape[:2] + (n_f + j1.shape[-1],), dtype=complex)
    np.matmul(nm, right, out=out[..., :n_f])
    np.matmul(nm, q_resp @ j1, out=out[..., n_f:])
    return out


def explicit_maps(bundle: DcfBundle, taps: np.ndarray, bank, zs) -> np.ndarray:
    """The loop map [F | I] of the module docstring's expressions on the
    flat complex grid ``zs``, for the tap tensor ``taps`` of Q (as in
    :func:`q_linear_response`) and the bank deployed at that Q, in the shape
    of :attr:`ClosedLoopMaps.loop`.  The sum of the part no Q enters,

        forced:  [N; M] [ Xt | Yt | diag(Yt) - Yt | 0 ] + [ 0 | [0; -I] | 0 | [Y; X] (zI - A_L)^{-1} B_d ]
        initial: [Y; X] J1   (the x_c columns),

    :func:`q_linear_response`, and the w_c columns [N; M] Yqd C_w (zI - A_w)^{-1} z
    with Yqd = diag(Yt + Q Nt).  Lt is evaluated once.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    xt, yt, mt, nt = _left_responses(bundle, zs)
    factors = _q_factors(bundle, zs, mt, nt)
    _, nm, mt, nt, gd_l, j1 = factors
    n_x, n_u = bundle.n_x, bundle.n_u
    yx = frequency_response(select_cols(bundle.right, n_u + np.arange(n_x)), zs)   # [Y; X]
    out = q_linear_response(factors, taps)
    diag = np.arange(n_u)
    gap = -yt
    gap[:, diag, diag] = 0.0
    out[:, :, :n_x + 2 * n_u] += nm @ np.concatenate([xt, yt, gap], axis=-1)
    out[:, n_x:, n_x:n_x + n_u] -= np.eye(n_u)
    out[:, :, n_x + 2 * n_u:-n_x] += yx @ gd_l
    out[:, :, -n_x:] += yx @ j1
    yqd = np.diagonal(yt + _q_response(mt, nt, taps, zs)[2], axis1=1, axis2=2)
    ctrl = stacked_bank(bank)
    j2 = yqd[:, :, None] * frequency_response(_resolvent_times_z(ctrl.A, ctrl.C), zs)
    return np.concatenate([out, nm @ j2], axis=-1)


def kd_responses(bundle: DcfBundle, taps_seq, zs):
    """kd(z) = [I - Yqd^-1 Yq, Yqd^-1 Xq] on ``zs`` for each Q in ``taps_seq``.

    Each element of ``taps_seq`` is an FIR tap tensor as in
    :func:`q_linear_response`; Yq = Yt + Q Nt, Xq = Xt + Q Mt and Yqd is the
    diagonal of Yq.  Lt is evaluated once; yields one
    (G, n_u, n_u + n_x) stack per tap tensor.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    xt, yt, mt, nt = _left_responses(bundle, zs)
    eye = np.eye(bundle.n_u)
    for taps in taps_seq:
        _, q_mt, q_nt = _q_response(mt, nt, taps, zs)
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
    for _ in range(len(state_sizes).bit_length()):   # k squarings reach every path below 2^k steps
        reach = _product_support(reach, reach)
    return (_product_support(_area_support(R.C, row_sizes, state_sizes), reach,
                             _area_support(R.B, state_sizes, col_sizes))
            | _area_support(R.D, row_sizes, col_sizes))


def _slot_support(n_areas: int, disturbance, coupling, init) -> np.ndarray:
    """One flag per slot of :func:`matching_slots` from area supports whose
    rows are every area's x and then its u rows, which an area's block joins."""
    kinds = {kind: s[:n_areas] | s[n_areas:] for kind, s in
             (("disturbance", disturbance), ("coupling", coupling), ("init", init))}
    return np.array([kinds[kind][i] if j is None else kinds[kind][i, j]
                     for kind, i, j in matching_slots(n_areas)])


def block_support(bundle: DcfBundle, param: QParametrization,
                  partition: AreaPartition) -> np.ndarray:
    """Which area-level matching blocks can be nonzero for any x: one
    boolean per slot of :func:`matching_slots`, False for a structural zero.

    The supports of R, Lt and J1 = z (zI - A_L)^{-1} come from the exact
    zeros of their realizations' area blocks (so from A + B_u F and A + L
    for the resolvents), Q's is the family's recorded support, Yq and
    Xq keep to the family's communication pattern, and J2 is block-diagonal
    by area, as the stacked bank is.  The module docstring's formulas
    combine them with support(X Y) within support(X) support(Y), and an
    area's rows are its x and its u rows.  No tolerance enters, so where
    some exact zero is missing (say with ``user_supplied`` gains) the
    support only grows, up to every block.  Read through Q Mt = P (I - A z^{-1}),
    Q Nt = P B_u z^{-1}, Q (zI - A_L)^{-1} B_d = P B_d z^{-1} and Q J1 = P, the
    same formulas give the blocks that move with x (:func:`moving_blocks`).
    """
    N, xs, us = partition.n_areas, partition.x_sizes, partition.u_sizes
    eye = np.eye(N, dtype=bool)
    r = _realization_support(bundle.right, xs + us, xs, us + xs)   # R = [N Y; M X]
    lt = _realization_support(bundle.left, us + xs, xs, xs + us)   # Lt = [-Xt Yt; Mt -Nt]
    nm = r[:, :N]
    xt, yt, mt, nt = lt[:N, :N], lt[:N, N:], lt[N:, :N], lt[N:, N:]
    q = _area_support(param.support, us, xs)
    yq, xq = yt | _product_support(q, nt), xt | _product_support(q, mt)
    yq &= _area_support(param.pattern.matrix[:, :param.n_u], us, us) | eye
    xq &= _area_support(param.pattern.matrix[:, param.n_u:], us, xs)
    plant = bundle.plant
    j1 = _realization_support(_resolvent_times_z(bundle.observer_pencil(), np.eye(plant.n_x)), xs, xs, xs)
    gd = _product_support(j1, _area_support(plant.B_d, xs, [plant.n_d]))   # Mt G_d
    ic_rows = _product_support(nm, q) | r[:, N:]   # R [Q; I]
    by_yq = _product_support(nm, yq)   # the beta_u and beta_f columns; (Yqd - Yq) is within Yq
    coupling = _product_support(nm, xq) | by_yq | np.concatenate([np.zeros_like(eye), eye])
    init = _product_support(ic_rows, j1) | nm   # plant ICs through J1, controller ICs through J2
    disturbance = by_yq.any(axis=1) | _product_support(ic_rows, gd).any(axis=1)
    return _slot_support(N, disturbance, coupling, init)


def moving_blocks(bundle: DcfBundle, param: QParametrization,
                  partition: AreaPartition) -> np.ndarray:
    """Which blocks of :func:`block_support` the Q-linear part of F and I
    (:func:`q_linear_response`, so not the controller-IC columns) moves from
    some free direction, per slot: the FIR maps of the module docstring, on
    the exact zeros of A, B_u, B_d and ``param.free_p``, lifted by [N; M]."""
    xs, us, plant, eye = partition.x_sizes, partition.u_sizes, bundle.plant, np.eye(bundle.n_x, dtype=bool)
    nm = _realization_support(_nm(bundle), xs + us, xs, us)

    def lifted(factor, cols):   # [N; M] P factor, from entry supports to areas
        return _product_support(nm, _area_support(_product_support(param.free_p, factor), us, cols))

    by_nt = lifted(plant.B_u != 0, us)               # Q Nt = P B_u z^{-1}
    by_bd = lifted(plant.B_d != 0, [plant.n_d])      # Q (zI - A_L)^{-1} B_d = P B_d z^{-1}
    by_mt = lifted(eye | (plant.A != 0), xs)         # Q Mt = P (I - A z^{-1})
    return block_support(bundle, param, partition) & _slot_support(
        partition.n_areas, by_nt.any(axis=1) | by_bd.any(axis=1), by_mt | by_nt, lifted(eye, xs))   # Q J1 = P


def reconstructed_response(maps: ClosedLoopMaps, d_s: SignalTrace, x_c, w_c) -> SignalTrace:
    """[x; u_f] rebuilt from the closed-loop maps (no loop simulation): the
    forced map's response to ``d_s`` from the loop state [x_c; w_c].

    For a trace of S scenarios, ``x_c`` and ``w_c`` are (dim, S) and one
    recursion rebuilds all of them.
    """
    v = np.concatenate([np.asarray(x_c, dtype=float), np.asarray(w_c, dtype=float)])
    if v.shape[1:] != d_s.samples.shape[2:]:
        raise DimensionMismatchError(f"initial states {v.shape} do not match the trace")
    return star(maps.forced, d_s, v)


def _z_rows(partition: AreaPartition, i: int, n_x: int, tail: str = "u") -> np.ndarray:
    return np.concatenate([partition.indices("x", i), n_x + partition.indices(tail, i)])


def matching_slots(n_areas: int) -> list:
    """The matching blocks as (kind, i, j), in the one order every gamma,
    bound, weight, target and support flag of the design is stored in (the
    rows of ``gamma_table.csv``): each area's disturbance block (j None),
    then coupling (i, j) and then init (i, j), row by row.  ``kind`` and
    (i, j) are as in :func:`block_indices`."""
    pairs = [(i, j) for i in range(n_areas) for j in range(n_areas)]
    return ([("disturbance", i, None) for i in range(n_areas)]
            + [("coupling", i, j) for i, j in pairs] + [("init", i, j) for i, j in pairs])


def slot_name(slot: tuple, sep: str = ",") -> str:
    """A slot's 1-based name: gamma_d[i], gamma_u[i<sep>j] or gamma_c[i<sep>j]."""
    kind, i, j = slot
    name = {"disturbance": "gamma_d", "coupling": "gamma_u", "init": "gamma_c"}[kind]
    return f"{name}[{i + 1}]" if j is None else f"{name}[{i + 1}{sep}{j + 1}]"


def block_indices(maps: ClosedLoopMaps, partition: AreaPartition, kind: str,
                  i: int, j: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of one area-level block of the loop map ``maps.loop``.

    kind 'disturbance': response of area i to [beta_f; d].
    kind 'coupling':    response of area i to area j's injected commands.
    kind 'init':        response of area i to area j's x_c and w_c.
    """
    rows = _z_rows(partition, i, maps.n_x)
    if kind == "disturbance":
        return rows, np.concatenate([maps.column_block("beta_f"), maps.column_block("d")])
    if kind not in ("coupling", "init"):
        raise ValueError(f"unknown block kind {kind!r}")
    if j is None:
        raise ValueError(f"{kind} block needs a source area j")
    if kind == "coupling":
        return rows, _z_rows(partition, j, maps.n_x)
    return rows, maps.n_f + _z_rows(maps.partition, j, maps.n_x, "w")   # x_c[j] and w_c[j]


def area_block(maps: ClosedLoopMaps, partition: AreaPartition, kind: str,
               i: int, j: int | None = None) -> Realization:
    """Minimal realization of one area-level block (see :func:`block_indices`)."""
    rows, cols = block_indices(maps, partition, kind, i, j)
    return minimal(select_cols(select_rows(maps.loop, rows), cols))


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
    n_x, part = maps.n_x, maps.partition
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
    cross = np.zeros((d_s.horizon, maps.n_f))
    for j, (u1, u2) in us_others.items():
        if j != i:
            cross[:, partition.indices("x", j)] += u1.samples
            cross[:, n_x + partition.indices("u", j)] += u2.samples
    outside = [j for j in range(partition.n_areas) if j not in nb.of(i)]
    # psi, theta and delta as one batch of three forced responses from loop
    # states: (d_s, 0), (0, the neighbourhood's ICs) and (cross, the far ICs)
    u = np.stack([d_s.samples, np.zeros_like(cross), cross], axis=-1)
    s0 = np.stack([masked_ic(()), masked_ic(sorted(nb.of(i))), masked_ic(outside)], axis=-1)
    out = star(select_rows(maps.forced, rows), SignalTrace(u), s0).samples
    return DecomposedResponse(*(SignalTrace(out[..., k], d_s.start_index) for k in range(3)))
