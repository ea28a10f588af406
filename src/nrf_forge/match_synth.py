"""First-layer synthesis: norm-based model matching over the free parameter.

Every closed-loop block is affine in the Youla parameter, and the parameter
is affine in the free coefficient vector x, so each matching norm

    gamma_di(x)  = || area i response to [beta_f; d]      - T_di  ||
    gamma_uij(x) = || area i response to area j commands  - T_uij ||
    gamma_cij(x) = || area i response to area j's ICs     - T_cij ||

is a convex function of x.  The solver is a coordinate pattern search from
x = 0 with golden-section line searches on a frequency-sampled surrogate;
candidates violating the admissible upper bounds are rejected outright
(feasible-point method; the bootstrap at x = 0 supplies a feasible start by
construction).  Reported constraint values are never taken from the search:
they are recomputed post-hoc through the certified norm path, and a search
point whose certificate fails a bound is replaced by the certified origin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .closed_loop import (
    ClosedLoopMaps,
    block_indices,
    block_support,
    build_closed_loop_maps,
    q_linear_responses,
)
from .dcf import DcfBundle
from .errors import DimensionMismatchError
from .lti import (
    _GOLDEN,
    Realization,
    _block_peaks,
    _bracket,
    _gram,
    _lambda_max,
    delay,
    frequency_response,
    is_cb_bounded,
    minimal,  # noqa: F401  (unused here; perfbench's tracer test rebinds match_synth.minimal)
    transpose,
)
from .nrf import bank_from_pair, form_nrf_pair
from .partition import AreaPartition, Neighborhoods
from .sparse_param import QParametrization, q_from_x

MODE_DECOUPLE_ONLY = "decouple_only"
MODE_DECOUPLE_AND_TRACK = "decouple_and_track"

# The one design method: the search is deterministic, so equal inputs give
# equal designs.
#: Upper-half-circle points of the search surrogate.
SEARCH_GRID = 256
#: Leading free coefficients the search moves (uncapped: mesh5 4.6x evaluations, -0.35 %; ring8 fails its certificate).
MAX_FREE_DIMS = 12
#: Coordinate sweeps of the pattern search, and the gain a sweep must make.
MAX_SWEEPS = 3
SWEEP_TOL = 1e-6
#: First probe of a line search, relative to max(1, |x_k|).
INITIAL_STEP = 0.25
#: Sweep points and refinement passes of the certified norms.
NORM_GRID = 2048
REFINE_PASSES = 3


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

    def __post_init__(self):
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

    def with_bounds(self, gd, gu, gc, slack: float) -> "SynthesisSpec":
        """The bounds (gd, gu, gc) widened by the factor 1 + slack."""
        s = 1.0 + slack
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
                    mode: str = MODE_DECOUPLE_ONLY, t_d=None) -> SynthesisSpec:
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
    """Certified matching norms at one x, read from the whole closed-loop maps;
    the blocks outside :func:`closed_loop.block_support` are exact zeros."""
    maps = builder(q_from_x(param, x))
    support = block_support(builder.bundle, param, builder.partition)
    return _norms_from_maps(maps, spec, builder.partition, support), maps


def _flat(support) -> np.ndarray:
    """The (disturbance, coupling, init) support as one flag per slot of
    [gamma_d; gamma_u; gamma_c]."""
    return np.concatenate([np.ravel(part) for part in support])


def _block_layout(spec: SynthesisSpec, partition: AreaPartition, maps: ClosedLoopMaps) -> list:
    """Every matching block as (slot, source, rows, cols, target), ``slot``
    its place in the flat [gamma_d; gamma_u; gamma_c] vector and (source,
    rows, cols) as in :func:`closed_loop.block_indices`.  The blocks tile
    both maps."""
    N = spec.n_areas
    layout = []
    for i in range(N):
        layout.append((i, *block_indices(maps, partition, "disturbance", i), spec.t_d[i]))
        for j in range(N):
            layout.append((N + i * N + j, *block_indices(maps, partition, "coupling", i, j),
                           spec.target_u(i, j)))
            layout.append((N + N * N + i * N + j, *block_indices(maps, partition, "init", i, j),
                           spec.target_c(i, j)))
    for _, _, rows, cols, target in layout:
        if target is not None and target.shape != (rows.size, cols.size):
            raise DimensionMismatchError(
                f"target has shape {target.shape}, block is {(rows.size, cols.size)}")
    return layout


def _norms_from_maps(maps: ClosedLoopMaps, spec: SynthesisSpec,
                     partition: AreaPartition, support=None):
    """(gamma_d, gamma_u, gamma_c) at the realized maps: the H-infinity norm
    of each matching block minus its target.  A block outside ``support``
    (:func:`closed_loop.block_support`; None keeps every block) is zero at
    every x, and is certified as exactly 0 with no sweep, ranking or
    refinement.  No block realization is formed: every other block is read
    from one Schur form of the whole forced map or of the whole
    initial-condition map (:func:`lti._block_peaks`), which have the
    blocks' transfer functions.  Each of their values is the largest SVD
    sample seen, a lower bound on the true norm."""
    N = spec.n_areas
    layout = _block_layout(spec, partition, maps)
    keep = np.ones(len(layout), dtype=bool) if support is None else _flat(support)
    vals = np.zeros(N + 2 * N * N)
    for src, R in enumerate((maps.forced, maps.initial)):
        mine = [blk for blk in layout if blk[1] == src and keep[blk[0]]]
        if mine:
            vals[[blk[0] for blk in mine]] = _block_peaks(
                R, [blk[2:] for blk in mine], NORM_GRID, REFINE_PASSES)
    return vals[:N], vals[N:N + N * N].reshape(N, N), vals[N + N * N:].reshape(N, N)


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


#: A direction keeps a block only when the block's largest |entry| along it exceeds
#: this fraction of the largest |entry| of all the direction's responses.  A dropped
#: stack d of shape (s, t) moves the block's surrogate sigma at coefficient x_k by at
#: most |x_k| sqrt(s t) max|d| (Weyl, as ||x_k d||_2 <= |x_k| ||d||_F).
DROP_REL = 1e-12


@dataclass
class _BlockGroup:
    """Blocks of one stacked shape (s, t), on a block axis before the grid axis."""

    blocks: list
    slots: np.ndarray
    base: np.ndarray            # (s, t, blocks, G): responses at x = 0 minus targets
    fixed: np.ndarray | None    # (s, s, blocks, G): Gram of the fixed columns
    gather: np.ndarray          # (s, t, blocks): rows of a direction's flat responses


def _take(a: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """The blocks ``idx`` (sorted) of a group's stack; ``a`` itself for all or None."""
    return a if idx is None or idx.size == a.shape[2] else a[:, :, idx]


def _gather(forced: np.ndarray, ic: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows ``at`` of the flat responses [forced; ic; 0] (rows, G), without forming them."""
    out = np.zeros(at.shape + forced.shape[1:], dtype=complex)
    for part, lo in ((forced, 0), (ic, forced.shape[0])):
        sel = (at >= lo) & (at < lo + part.shape[0])
        out[sel] = part[at[sel] - lo]
    return out


def _horner(terms: list, t: float):
    """terms[0] + t terms[1] + t^2 terms[2] + ..., in Horner order."""
    if len(terms) == 1:
        return terms[0]
    out = terms[-1] * t
    out += terms[-2]
    for term in terms[-3::-1]:
        out *= t
        out += term
    return out


def _gram_sum(members: list):
    """peaks(t, count): per block, the grid peak of sqrt(lambda_max(H(t))) of
    Gram stacks H(t) = _horner(terms, t) laid end to end, one tuple of terms
    per member, each a pair (stack (r, r, n, G), the member's blocks in it).
    Bracketed (:func:`lti._bracket`), H(t) and lambda_max are formed only
    where a peak can be; ``count`` gains (points formed, points bracketed)."""
    ends = np.cumsum([0] + [m[0][1].size for m in members])
    diags = [np.concatenate([np.einsum("ii...->i...", T).real[:, idx] for T, idx in terms], axis=1)
             for terms in zip(*members)]
    sizes, G = [np.abs(d).sum(axis=0).max(axis=1) for d in diags], diags[0].shape[2]

    def peaks(t: float = 0.0, count: np.ndarray | None = None) -> np.ndarray:
        def lam_at(flat):
            if count is not None:
                count[:] += flat.size, diags[0][0].size
            b, p = flat // G, flat % G
            cuts = np.searchsorted(b, ends)
            return _lambda_max(np.concatenate([
                _horner([T[:, :, idx[b[lo:hi] - first], p[lo:hi]] for T, idx in m], t)
                for m, lo, hi, first in zip(members, cuts, cuts[1:], ends)], axis=2))

        return np.sqrt(np.maximum(_bracket(_horner(diags, t), lam_at, scale=_horner(sizes, abs(t))), 0.0))

    return peaks


def _map_responses(maps: ClosedLoopMaps, zs: np.ndarray) -> tuple:
    """Values of the forced and the initial map on ``zs``, each solved on
    its smaller side (the forced map is wide)."""
    return tuple(frequency_response(transpose(R), zs).transpose(0, 2, 1) if R.ninputs > R.noutputs
                 else frequency_response(R, zs) for R in (maps.forced, maps.initial))


class _SurrogateModel:
    """Grid responses of the matching blocks as affine functions of x.

    Sampling uses only the upper half circle: every map here is
    real-rational, so singular values repeat at conjugate points.  The base
    responses come from the realized maps at x = 0; each free direction's
    response is the Q-linear part of the closed-loop formulas, evaluated
    pointwise.  Blocks are grouped by stacked shape; each direction keeps
    per group only the blocks it moves (:data:`DROP_REL`), in one stack.
    Blocks outside :func:`closed_loop.block_support` (kept flat per slot as
    ``self.support``) are zero at every x and are left out of the groups.
    Only the plant-IC columns of the initial map move with x here: the
    controller-IC columns [N; M] J2 are held at x = 0, so where the Gram
    side is the rows they enter as a constant Gram term.  That is exact only
    while every controller row keeps its x = 0 order and characteristic
    polynomial: the parametrization fixes diag(Yq) = diag(Yt), and the rows'
    companion forms then fix J2.  A row whose order grows with x adds
    controller-IC columns the surrogate leaves out (the two-area toy of the
    tests has 0 controller states at x = 0 and 3 at a random x).
    ``n_evals`` counts calls of :meth:`objective`; ``n_pairs`` is (kept,
    blocks x directions), the structural zeros counted among the blocks;
    ``lambda_points`` is (points whose lambda_max the evaluations took,
    points they bracketed).
    """

    def __init__(self, bundle: DcfBundle, param: QParametrization,
                 partition: AreaPartition, spec: SynthesisSpec,
                 maps0: ClosedLoopMaps, active: np.ndarray):
        self.zs = np.exp(1j * np.pi * (np.arange(SEARCH_GRID) + 0.5) / SEARCH_GRID)
        self.spec = spec
        self.n_evals = 0
        self.lambda_points = np.zeros(2, dtype=np.int64)
        self._x = None   # the held x of line(), with its stacks B, Grams G0 and flat peaks
        self.support = _flat(block_support(bundle, param, partition))
        self.groups = self._base_groups(partition, maps0)
        G = self.zs.size
        self.dirs = []   # per direction: (group, kept blocks, their stack) triples
        for forced_k, ic_k in q_linear_responses(bundle, param.basis[active], self.zs):
            forced_k, ic_k = forced_k.reshape(G, -1).T, ic_k.reshape(G, -1).T
            row_max = np.concatenate([np.abs(forced_k).max(axis=1), np.abs(ic_k).max(axis=1), [0.0]])
            moved = [np.flatnonzero(row_max[g.gather].max(axis=(0, 1)) > DROP_REL * row_max.max())
                     for g in self.groups]
            self.dirs.append([(gi, idx, _gather(forced_k, ic_k, g.gather[:, :, idx]))
                              for gi, (g, idx) in enumerate(zip(self.groups, moved)) if idx.size])
        N = spec.n_areas
        self.n_pairs = (sum(idx.size for kept in self.dirs for _, idx, _ in kept),
                        len(self.dirs) * (N + 2 * N * N))

    def _base_groups(self, partition: AreaPartition, maps0: ClosedLoopMaps) -> list:
        """Lay out every matching block in ``self.support``, stack its
        response at x = 0 minus its target, and group the blocks by stacked
        shape.  A direction's flat responses are forced, plant-IC, then a
        zero row for controller ICs."""
        zs, G, n_x, (n_r, n_f) = self.zs, self.zs.size, maps0.n_x, maps0.forced.shape
        base_resp = _map_responses(maps0, zs)
        grouped: dict = {}
        for slot, src, rows, cols, target in _block_layout(self.spec, partition, maps0):
            if not self.support[slot]:
                continue
            blk = base_resp[src][:, rows[:, None], cols]
            if target is not None:
                blk = blk - frequency_response(target, zs)
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
            r, c = np.ix_(rows, block.cols)
            at = r * n_f + c if src == 0 else np.where(c < n_x, n_r * n_f + r * n_x + c, n_r * (n_f + n_x))
            grouped.setdefault(stack.shape[:2], []).append((block, stack, fixed, at.T if transposed else at))

        groups = []
        for (s, _), members in grouped.items():
            fixed = None
            if any(f is not None for _, _, f, _ in members):
                fixed = np.stack([f if f is not None else np.zeros((s, s, G), dtype=complex)
                                  for _, _, f, _ in members], axis=2)
            groups.append(_BlockGroup(
                blocks=[b for b, _, _, _ in members],
                slots=np.array([b.slot for b, _, _, _ in members]),
                base=np.stack([stk for _, stk, _, _ in members], axis=2),
                fixed=fixed,
                gather=np.stack([at for _, _, _, at in members], axis=2)))
        return groups

    def stacks_at(self, x_active: np.ndarray) -> list:
        """Per-group block responses, targets subtracted, at the active coefficients."""
        stacks = [g.base.copy() for g in self.groups]
        for k in np.flatnonzero(x_active):
            for gi, idx, d in self.dirs[k]:
                stacks[gi][:, :, idx] += x_active[k] * d
        return stacks

    def _gram0(self, g: _BlockGroup, B: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """Gram stack, constant term included, of a group's blocks ``idx`` (all when None)."""
        return _gram(B, B) if g.fixed is None else _gram(B, B) + _take(g.fixed, idx)

    def gammas_from(self, peaks: list, slots: list, at: np.ndarray | None = None, t: float = 0.0):
        """(gamma_d, gamma_u, gamma_c): the blocks ``slots[i]`` from
        ``peaks[i]`` (of :func:`_gram_sum`) at t, every other block from the
        flat vector ``at`` (structural zeros, in no group, are 0)."""
        N = self.spec.n_areas
        vals = np.zeros(N + 2 * N * N) if at is None else at.copy()
        for block_peaks, s in zip(peaks, slots):
            vals[s] = block_peaks(t, self.lambda_points)
        return vals[:N], vals[N:N + N * N].reshape(N, N), vals[N + N * N:].reshape(N, N)

    def objective(self, gammas) -> float:
        """Weighted surrogate objective of (gamma_d, gamma_u, gamma_c); +inf
        outside the admissible bounds."""
        self.n_evals += 1
        if not _within_bounds(self.spec, *gammas):
            return np.inf
        return _objective_value(self.spec, *gammas)

    def objective_at(self, x_active) -> float:
        """:meth:`objective` at the active coefficients, which become the held x of :meth:`line`."""
        self._x = np.array(x_active, dtype=float).ravel()
        self._stacks = self.stacks_at(self._x)
        self._grams = [self._gram0(g, B) for g, B in zip(self.groups, self._stacks)]
        gammas = self.gammas_from([_gram_sum([((H, np.arange(H.shape[2])),)]) for H in self._grams],
                                  [g.slots for g in self.groups])
        self._vals = np.concatenate([g.ravel() for g in gammas])
        return self.objective(gammas)

    def line(self, x_active: np.ndarray, k: int):
        """phi(t) = :meth:`objective` at x + t e_k, valid until the next line.

        The held B, G0 and peaks (of the last line or objective_at) first
        move to x, for the blocks of the directions x moved along.  Along the
        line each block k moves is B + t d, with Gram G0 + t G1 + t^2 G2 for
        G0 = B B^H, G1 = B d^H + d B^H and G2 = d d^H, formed once here and
        laid end to end per Gram side r; a probe brackets each side's peaks
        in one pass (:func:`_gram_sum`).  Other blocks keep their peak at x.
        """
        if self._x is None:
            self.objective_at(np.zeros(len(self.dirs)))
        step = np.asarray(x_active, dtype=float) - self._x
        for j in np.flatnonzero(step):
            for gi, idx, d in self.dirs[j]:
                self._stacks[gi][:, :, idx] += step[j] * d
                self._grams[gi][:, :, idx] = h = self._gram0(self.groups[gi], _take(self._stacks[gi], idx), idx)
                self._vals[self.groups[gi].slots[idx]] = _gram_sum([((h, np.arange(idx.size)),)])()
        self._x = np.array(x_active, dtype=float)
        sides: dict = {}
        for gi, idx, d in self.dirs[k]:
            cross, own = _gram(_take(self._stacks[gi], idx), d), np.arange(idx.size)
            g1 = cross.conj().swapaxes(0, 1)
            g1 += cross  # G1 = cross + cross^H, with one temporary fewer
            del cross
            sides.setdefault(d.shape[0], []).append(
                (self.groups[gi].slots[idx], ((self._grams[gi], idx), (g1, own), (_gram(d, d), own))))
        peaks = [_gram_sum([q for _, q in m]) for m in sides.values()]
        slots, at = [np.concatenate([s for s, _ in m]) for m in sides.values()], self._vals

        def phi(t: float) -> float:
            return self.objective(self.gammas_from(peaks, slots, at, t))

        return phi


def make_surrogate_objective(spec: SynthesisSpec, param: QParametrization,
                             bundle: DcfBundle, partition: AreaPartition):
    """Standalone surrogate objective over every free coefficient.

    Exactly the function the pattern search minimises over its first
    :data:`MAX_FREE_DIMS` coefficients (+inf outside the admissible bounds); exposed so tests and experiment scripts can
    brute-force it independently of the solver.
    """
    builder = MapsBuilder(bundle, partition)
    maps0 = builder(q_from_x(param, np.zeros(param.n_free)))
    return _SurrogateModel(bundle, param, partition, spec, maps0, np.arange(param.n_free)).objective_at


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
    hints: list
    search_certified: bool  # False: the search point failed a bound and x = 0 was returned
    surrogate_pairs: tuple  # (kept, all) (block, direction) pairs of the search surrogate
    support: np.ndarray     # per slot of [gamma_d; gamma_u; gamma_c]: False = structural zero

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
    through :func:`run_algorithm1`).  The surrogate the search minimises
    holds the controller-IC columns at x = 0 (see :class:`_SurrogateModel`
    for when that is exact); the certificate reads the realized maps at the
    search point.  The search runs once from x = 0 and its point is certified
    once; if that certificate fails an admissible bound, the certified
    origin is returned instead (``search_certified`` False), which makes at
    most one certificate beyond the search point.
    ``bootstrap`` is the ``constraint_norms`` result at x = 0 under this
    spec's targets, when the caller already has it: its maps seed the
    surrogate, and a certificate at x = 0 reuses its norms.
    """
    if not spec.bounds_set():
        raise ValueError("admissible bounds unset; compute the bootstrap first")
    builder = MapsBuilder(bundle, partition)
    n_free = param.n_free
    active = np.arange(min(n_free, MAX_FREE_DIMS))
    zero = np.zeros(n_free)

    def certify(x):
        if bootstrap is not None and not np.any(x):
            return bootstrap
        return constraint_norms(param, x, spec, builder)

    def result(x, certificate, log, n_evals, search_certified, pairs=(0, 0)):
        (gd, gu, gc), maps = certificate
        obj = _objective_value(spec, gd, gu, gc)
        return SynthesisResult(x, gd, gu, gc, obj, log or [obj], q_from_x(param, x), maps,
                               spec, param, n_evals, _bound_hints(spec, gd, gu, gc),
                               search_certified, pairs, _flat(block_support(bundle, param, partition)))

    if n_free == 0 or float(np.sum(spec.tau_d) + np.sum(spec.tau_u) + np.sum(spec.tau_c)) == 0.0:
        return result(zero, certify(zero), None, 1, True)

    maps0 = bootstrap[1] if bootstrap is not None else builder(q_from_x(param, zero))
    model = _SurrogateModel(bundle, param, partition, spec, maps0, active)
    log: list[float] = []
    x_act, f_star = _pattern_search(model, np.zeros(active.size), log)
    x_full = zero.copy()
    x_full[active] = x_act
    if f_star >= log[0] - SWEEP_TOL:
        x_full = zero  # no real progress; keep the certified origin
    # the surrogate's direction stacks are not needed past this point; free
    # them before the certificate allocates its sweeps
    n_evals, pairs = model.n_evals, model.n_pairs
    del model
    certificate = certify(x_full)
    if not np.any(x_full) or _within_bounds(spec, *certificate[0]):
        return result(x_full, certificate, log, n_evals, True, pairs)
    return result(zero, certify(zero), log, n_evals, False, pairs)


def _pattern_search(model, x0: np.ndarray, log: list) -> tuple[np.ndarray, float]:
    """Coordinate descent with golden-section line searches; appends the
    objective at the start and after every line search to ``log``."""
    x = x0.copy()
    fx = model.objective_at(x)
    log.append(fx)
    for _ in range(MAX_SWEEPS):
        f_before = fx
        for k in range(x.size):
            x, fx = _line_search_coord(model, x, k, fx)
            log.append(fx)
        if f_before - fx < SWEEP_TOL:
            break
    return x, fx


def _line_search_coord(model, x: np.ndarray, k: int, fx: float) -> tuple[np.ndarray, float]:
    """Golden-section minimisation along coordinate k (infeasible = +inf).

    Each probe evaluates the model's ``phi(t)``, whose Gram stacks are
    quadratic in the step t.
    """
    phi = model.line(x, k)

    step = INITIAL_STEP * max(1.0, abs(x[k]))
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
    """Name the constraints sitting at their admissible bounds (1-based).
    A block certified at exactly 0, as every structural zero is (its bound
    is then 0 too), is not named."""
    hints = []
    if not spec.bounds_set():
        return hints
    tol = 1e-6
    for i in range(spec.n_areas):
        if gd[i] > 0 and gd[i] >= spec.gamma_bar_d[i] * (1 - tol) - 1e-12:
            hints.append(f"gamma_d[{i + 1}] at bound {spec.gamma_bar_d[i]:.6g}")
        for j in range(spec.n_areas):
            if gu[i, j] > 0 and gu[i, j] >= spec.gamma_bar_u[i, j] * (1 - tol) - 1e-12:
                hints.append(f"gamma_u[{i + 1},{j + 1}] at bound {spec.gamma_bar_u[i, j]:.6g}")
            if gc[i, j] > 0 and gc[i, j] >= spec.gamma_bar_c[i, j] * (1 - tol) - 1e-12:
                hints.append(f"gamma_c[{i + 1},{j + 1}] at bound {spec.gamma_bar_c[i, j]:.6g}")
    return hints


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgorithmConfig:
    """End-to-end design knobs."""

    q: int = 2
    gain_strategy: str = "block_diagonalizing_F_deadbeat_L"
    F: np.ndarray | None = None
    L: np.ndarray | None = None
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
    pattern = pattern_from_neighborhoods(partition, nb)
    if spec is None:
        spec = default_targets(partition, plant.n_d)

    F, L = design_gains(plant, partition, config.gain_strategy, config.F, config.L)
    bundle = build_dcf(plant, F, L)
    param = build_parametrization(bundle, pattern, config.q)
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
        spec = spec.with_bounds(*bootstrap[0], config.bound_slack)
    return solve(spec, param, bundle, partition, bootstrap)
