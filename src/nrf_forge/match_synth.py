"""First-layer synthesis: norm-based model matching over the free parameter.

Every closed-loop block is affine in the Youla parameter, and the parameter
is affine in the free coefficient vector x, so each matching norm

    gamma_di(x)  = || area i response to [beta_f; d]      - T_di  ||
    gamma_uij(x) = || area i response to area j commands  - T_uij ||
    gamma_cij(x) = || area i response to area j's ICs     - T_cij ||

is a convex function of x.  These N + 2 N^2 blocks have one order,
:func:`closed_loop.matching_slots`, and every gamma, bound, weight, target
and structural-zero flag here is one flat vector in it.  The solver is a
coordinate pattern search from x = 0 with golden-section line searches on a
surrogate sampled on :data:`SEARCH_GRID` points of :func:`lti.half_circle`
(the certified norms sweep :data:`NORM_GRID` points of it).  The surrogate
starts at x = 0 and moves only along lines, holding one direction's
responses to the blocks that move with x at a time.  Candidates violating
the surrogate's bounds are rejected outright (feasible-point method), first
on the moving blocks' values at their held peak points (grid points, so no
more than the grid peaks); a line forms its direction on the whole grid
only once a probe gets past them.  A
block's surrogate bound is its surrogate value at x = 0 plus the slack its
certificate at x = 0 leaves under the admissible bound, so the slack is
measured on the surrogate's own samples: at bound slack 0 no sampled peak
may rise, and x = 0 is feasible by construction.  That is consistency
with the certificate, not a guarantee.
Reported constraint values are never taken from the search: they are
recomputed post-hoc through the certified norm path, and a search
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
    matching_slots,
    moving_blocks,
    q_factor_responses,
    q_linear_response,
    slot_name,
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
    half_circle,
    is_cb_bounded,
    minimal,  # noqa: F401  (unused here; perfbench's tracer test rebinds match_synth.minimal)
    select_cols,
    transpose,
)
from .nrf import bank_from_pair, form_nrf_pair
from .partition import AreaPartition, Neighborhoods
from .sparse_param import QParametrization, q_from_x

MODE_DECOUPLE_ONLY = "decouple_only"
MODE_DECOUPLE_AND_TRACK = "decouple_and_track"

# The one design method: the search is deterministic, so equal inputs give
# equal designs.
#: Points of :func:`lti.half_circle` in the search surrogate.
SEARCH_GRID = 256
#: Leading free coefficients the search moves (uncapped: mesh5 4.6x evaluations, -0.35 %; ring8 stays at x = 0).
MAX_FREE_DIMS = 12
#: Coordinate sweeps of the pattern search, and the gain a sweep must make.
MAX_SWEEPS = 3
SWEEP_TOL = 1e-6
#: First probe of a line search, relative to max(1, |x_k|).
INITIAL_STEP = 0.25
#: Sweep points (of :func:`lti.half_circle`) and refinement passes of the certified norms.
NORM_GRID = 1024
REFINE_PASSES = 3


@dataclass
class SynthesisSpec:
    """Targets, weights and admissible bounds of the matching problem, one
    of each per slot of :func:`closed_loop.matching_slots`.

    A target stored as None is identically zero.  Cross-area command
    targets are zero by structure and cannot be set.
    """

    n_areas: int
    targets: tuple                       # per slot: Realization | None
    tau: np.ndarray                      # per slot: weight in the objective
    gamma_bar: np.ndarray | None = None  # per slot: admissible bound

    def __post_init__(self):
        slots = matching_slots(self.n_areas)
        self.targets = tuple(self.targets)
        self.tau = np.asarray(self.tau, dtype=float)
        if len(self.targets) != len(slots) or self.tau.shape != (len(slots),):
            raise DimensionMismatchError(f"targets and weights need one entry per slot, {len(slots)} in all")
        if np.any(self.tau < 0):
            raise ValueError("weights must be nonnegative")
        for (kind, i, j), t in zip(slots, self.targets):
            if t is not None and kind == "coupling" and i != j:
                raise ValueError(f"{slot_name((kind, i, j))} is a cross-area command block; its target is zero")
            if t is not None and not is_cb_bounded(t):
                raise ValueError("target maps must be bounded outside the unit disc")

    def bounds_set(self) -> bool:
        return self.gamma_bar is not None

    def with_bounds(self, gamma, slack: float) -> "SynthesisSpec":
        """The bounds ``gamma`` widened by the factor 1 + slack; an infinite
        slack drops the admissible boxes (a structural zero's 0 * inf would
        be NaN)."""
        s = 1.0 + slack
        gamma = np.asarray(gamma, dtype=float)
        return replace(self, gamma_bar=gamma * s if np.isfinite(s) else np.full(gamma.shape, np.inf))


def default_targets(partition: AreaPartition, n_d: int,
                    mode: str = MODE_DECOUPLE_ONLY, t_d=None) -> SynthesisSpec:
    """Decoupling-first defaults: unit-delay own-command response, zero rest.

    decouple_only zeroes the disturbance targets; decouple_and_track accepts
    user disturbance targets instead (rejected unless bounded).  The
    disturbance and command blocks weigh 1, the initial-condition blocks 0.
    Admissible bounds are left unset; the feasibility bootstrap fills them
    with the values achieved at x = 0.
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
    slots = matching_slots(N)
    targets = [t_d_list[i] if kind == "disturbance"
               else delay(partition.size("x", i) + partition.size("u", i)) if kind == "coupling" and i == j
               else None for kind, i, j in slots]
    return SynthesisSpec(N, tuple(targets), [0.0 if kind == "init" else 1.0 for kind, _, _ in slots])


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


def _block_layout(spec: SynthesisSpec, partition: AreaPartition, maps: ClosedLoopMaps) -> list:
    """Every matching block as (slot, rows, cols, target), ``slot`` its
    index in :func:`closed_loop.matching_slots` and (rows, cols) as in
    :func:`closed_loop.block_indices`.  The blocks tile the loop map."""
    layout = [(s, *block_indices(maps, partition, *slot), spec.targets[s])
              for s, slot in enumerate(matching_slots(spec.n_areas))]
    for _, rows, cols, target in layout:
        if target is not None and target.shape != (rows.size, cols.size):
            raise DimensionMismatchError(
                f"target has shape {target.shape}, block is {(rows.size, cols.size)}")
    return layout


def _norms_from_maps(maps: ClosedLoopMaps, spec: SynthesisSpec,
                     partition: AreaPartition, support=None):
    """The gamma vector at the realized maps: the H-infinity norm of each
    matching block minus its target, per slot.  A block outside ``support``
    (:func:`closed_loop.block_support`; None keeps every block) is zero at
    every x, and is certified as exactly 0 with no sweep, ranking or
    refinement.  No block realization is formed: every other block is read
    from one Schur form of the loop's forced or initial panel
    (:func:`lti._block_peaks`), swept one panel at a time to bound memory.
    Each value is the largest SVD sample seen, a lower bound on the true
    norm."""
    layout = _block_layout(spec, partition, maps)
    keep = np.ones(len(layout), dtype=bool) if support is None else support
    vals = np.zeros(len(layout))
    for lo, hi in ((0, maps.n_f), (maps.n_f, maps.loop.ninputs)):   # the forced, then the initial panel
        mine = [(s, rows, cols - lo, target) for s, rows, cols, target in layout
                if keep[s] and cols.size and lo <= cols[0] < hi]
        if mine:
            vals[[blk[0] for blk in mine]] = _block_peaks(
                select_cols(maps.loop, np.arange(lo, hi)), [blk[1:] for blk in mine], NORM_GRID, REFINE_PASSES)
    return vals


# ---------------------------------------------------------------------------
# frequency-sampled surrogate, affine in the free coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    """Where one matching block sits in the loop map.

    ``slot`` is its index in :func:`closed_loop.matching_slots`.  The stacks
    hold the ``cols`` of ``rows`` (transposed when the block has fewer
    columns than rows, so the Gram side comes first); ``fixed_cols`` never
    move with x and enter only through a constant Gram term.
    """

    slot: int
    rows: np.ndarray
    cols: np.ndarray
    fixed_cols: np.ndarray
    transposed: bool


@dataclass
class _BlockGroup:
    """Blocks of one stacked shape (s, t), all moving or all fixed, blocks before the grid axis."""

    blocks: list
    slots: np.ndarray
    base: np.ndarray            # (s, t, blocks, G): responses at x = 0 minus targets
    fixed: np.ndarray | None    # (s, s, blocks, G): Gram of the fixed columns
    gather: np.ndarray | None   # (s, t, blocks): rows of a direction's flat responses; None if fixed


def _gather(flat: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows ``at`` of the flat responses [flat; 0] (rows, G), without forming them."""
    out = np.zeros(at.shape + flat.shape[1:], dtype=complex)
    sel = at < flat.shape[0]
    out[sel] = flat[at[sel]]
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


def _line_terms(G0: np.ndarray, B: np.ndarray, d: np.ndarray) -> tuple:
    """Gram terms of B + t d for the given G0 = B B^H: (G0, B d^H + d B^H, d d^H)."""
    cross = _gram(B, d)
    g1 = cross.conj().swapaxes(0, 1)
    g1 += cross  # G1 = cross + cross^H, with one temporary fewer
    del cross
    return G0, g1, _gram(d, d)


def _gram_sum(members: list):
    """peaks(t, count): per block, the grid peak of sqrt(lambda_max(H(t))) of
    Gram stacks H(t) = _horner(terms, t) laid end to end, one tuple of terms
    (r, r, blocks, G) per member, and the first grid point that reaches it.
    Bracketed (:func:`lti._bracket`), H(t) and lambda_max are formed only
    where a peak can be; ``count`` gains (points formed, points bracketed)."""
    ends = np.cumsum([0] + [m[0].shape[2] for m in members])
    diags = [np.concatenate([np.einsum("ii...->i...", T).real for T in terms], axis=1)
             for terms in zip(*members)]
    sizes, G = [np.abs(d).sum(axis=0).max(axis=1) for d in diags], diags[0].shape[2]

    def peaks(t: float = 0.0, count: np.ndarray | None = None) -> tuple:
        def lam_at(flat):
            if count is not None:
                count[:] += flat.size, diags[0][0].size
            b, p = flat // G, flat % G
            cuts = np.searchsorted(b, ends)
            return _lambda_max(np.concatenate([
                _horner([T[:, :, b[lo:hi] - first, p[lo:hi]] for T in m], t)
                for m, lo, hi, first in zip(members, cuts, cuts[1:], ends)], axis=2))

        peak, where = _bracket(_horner(diags, t), lam_at, scale=_horner(sizes, abs(t)))
        return np.sqrt(np.maximum(peak, 0.0)), where

    return peaks


class _SurrogateModel:
    """Grid responses of the matching blocks as affine functions of x.

    The points are :func:`lti.half_circle` (:data:`SEARCH_GRID`).  The base
    responses come from one output-side solve of the realized loop map at
    x = 0, not from :func:`closed_loop.explicit_maps`, which loses 8.8e-10
    relative where the factors are large and cancel (the mesh grouped into
    areas (6, 3), (2, 1), (2, 1)); each free direction's response is the
    loop's d_s and x_c columns of :func:`closed_loop.q_linear_response`,
    from factors no direction enters (``factors``, evaluated once).
    Blocks outside :func:`closed_loop.block_support` (``self.support``, per
    slot) are zero at every x and are left out; the others are grouped by
    stacked shape and by :func:`closed_loop.moving_blocks` (``self.moving``).

    The model holds one point and moves it only along lines: :meth:`origin`
    reads every block at x = 0, :meth:`line` opens a direction at the held
    point and :meth:`move` steps the held point along it.  Only the open
    line holds a direction's stacks, and only for the moving groups, so the
    resident memory does not grow with the directions.  A probe is read
    first at the moving blocks' held peak points (:meth:`gammas_from`).
    The w_c columns [N; M] J2 are held at x = 0 (a direction reads them
    from one zero row), so where the Gram side is the rows they enter as a
    constant Gram term.  That is exact only
    while every controller row keeps its x = 0 order and characteristic
    polynomial: the parametrization fixes diag(Yq) = diag(Yt), and the rows'
    companion forms then fix J2.  A row whose order grows with x adds
    w_c columns the surrogate leaves out (the two-area toy of the
    tests has 0 controller states at x = 0 and 3 at a random x).
    ``n_evals`` counts calls of :meth:`objective`, ``lines_formed`` the lines
    formed on the grid; ``lambda_points`` is (points whose lambda_max the
    grid evaluations took, points they bracketed).
    """

    def __init__(self, bundle: DcfBundle, param: QParametrization,
                 partition: AreaPartition, spec: SynthesisSpec,
                 bootstrap: tuple, active: np.ndarray):
        """``bootstrap`` is the certificate (gamma, maps) at x = 0 (:func:`constraint_norms`)."""
        self.zs = half_circle(SEARCH_GRID)
        self.spec = spec
        self.n_evals = 0
        self.lambda_points = np.zeros(2, dtype=np.int64)
        self.gamma0 = bootstrap[0]
        self.support = block_support(bundle, param, partition)
        self.moving = moving_blocks(bundle, param, partition)
        self.groups = self._base_groups(partition, bootstrap[1])
        self.factors = q_factor_responses(bundle, self.zs)
        self.taps = param.basis[active]
        self.lines_formed = 0

    def _moving_stacks(self, taps: np.ndarray) -> list:
        """(group, stack) of each moving group for the tap tensor ``taps``."""
        flat = q_linear_response(self.factors, taps).reshape(self.zs.size, -1).T
        return [(gi, _gather(flat, g.gather)) for gi, g in enumerate(self.groups)
                if g.gather is not None]

    def _base_groups(self, partition: AreaPartition, maps0: ClosedLoopMaps) -> list:
        """Lay out every matching block in ``self.support`` and group the
        blocks by stacked shape and ``self.moving``; then write each block's
        response at x = 0 minus its target straight into its group's
        ``base`` stack, and the Gram of its fixed columns into ``fixed``.  A
        direction's flat responses are the loop's first n_q = n_f + n_x
        columns, row by row, then one zero row that every w_c column reads."""
        zs, G, n_r, n_q = self.zs, self.zs.size, maps0.loop.noutputs, maps0.n_f + maps0.n_x
        grouped: dict = {}
        for slot, rows, cols, target in _block_layout(self.spec, partition, maps0):
            if not self.support[slot]:
                continue
            transposed = cols.size < rows.size
            varies = (cols < n_q) | transposed
            block = _Block(slot, rows, cols[varies], cols[~varies], transposed)
            r, c = np.ix_(rows, block.cols)
            at = np.where(c < n_q, r * n_q + c, n_r * n_q)
            at = at.T if transposed else at
            grouped.setdefault((at.shape, self.moving[slot]), []).append((block, cols, varies, target, at))

        base_resp = frequency_response(transpose(maps0.loop), zs).transpose(0, 2, 1)
        groups = []
        for ((s, t), moves), members in grouped.items():
            blocks = [m[0] for m in members]
            g = _BlockGroup(blocks, np.array([b.slot for b in blocks]),
                            base=np.empty((s, t, len(blocks), G), dtype=complex),
                            fixed=(np.zeros((s, s, len(blocks), G), dtype=complex)
                                   if any(b.fixed_cols.size for b in blocks) else None),
                            gather=np.stack([m[4] for m in members], axis=2) if moves else None)
            for n, (block, cols, varies, target, _) in enumerate(members):
                blk = base_resp[:, block.rows[:, None], cols]
                if target is not None:
                    blk = blk - frequency_response(target, zs)
                g.base[:, :, n] = blk.transpose(2, 1, 0) if block.transposed else blk[:, :, varies].transpose(1, 2, 0)
                if block.fixed_cols.size:   # never on a transposed block
                    fixed_part = blk[:, :, ~varies].transpose(1, 2, 0)
                    g.fixed[:, :, n] = _gram(fixed_part, fixed_part)
            groups.append(g)
        return groups

    def _gram0(self, g: _BlockGroup, B: np.ndarray) -> np.ndarray:
        """Gram stack of a group's blocks, constant term included."""
        return _gram(B, B) if g.fixed is None else _gram(B, B) + g.fixed

    def gammas_from(self, t: float = 0.0, points: np.ndarray | None = None) -> np.ndarray:
        """The gamma vector t along the open line (at the held point from
        :meth:`origin`); fixed blocks keep their held values.  ``points``,
        when given, receives each grid-evaluated block's peak point.

        Until the line forms its direction on the grid, each moving block
        is first sampled at its held peak point, and samples breaking a
        bound are returned (the probe is refused).  That is exact: a sample
        is formed by the same operations as the grid evaluation's value at
        that point, which the grid peak is at least, so the grid evaluation
        refuses the probe too.  Otherwise the line forms its direction
        (:meth:`_form_line`), and its later probes skip the samples.
        """
        vals = self._vals.copy()
        if self._peaks is None:
            for slots, terms in self._samples:
                vals[slots] = np.sqrt(np.maximum(_lambda_max(_horner(terms, t)), 0.0))
            if not _within_bounds(self.bar, vals):
                return vals
            self._form_line()
        for slots, block_peaks in self._peaks:
            vals[slots], where = block_peaks(t, self.lambda_points)
            if points is not None:
                points[slots] = where
        return vals

    def objective(self, gamma: np.ndarray) -> float:
        """Weighted surrogate objective of the gamma vector; +inf outside
        the surrogate's bounds ``bar`` (set by :meth:`origin`)."""
        self.n_evals += 1
        if not _within_bounds(self.bar, gamma):
            return np.inf
        return _objective_value(self.spec, gamma)

    def origin(self) -> float:
        """:meth:`objective` at x = 0, which becomes the held point.

        Its gamma vector gamma_s(0) fixes the surrogate's bounds
        ``bar`` = gamma_s(0) + (gamma_bar - gamma(0)), gamma(0) the
        certificate at x = 0: the slack a block has under its admissible
        bound is measured on the surrogate's own samples.  The same pass
        finds each block's peak point, where lines sample first.
        """
        self._stacks = [g.base.copy() for g in self.groups]
        self._grams = [self._gram0(g, B) for g, B in zip(self.groups, self._stacks)]
        self._line, self._peaks = [], [(g.slots, _gram_sum([(H,)])) for g, H in zip(self.groups, self._grams)]
        self._vals, self._at = np.zeros(self.support.size), np.zeros(self.support.size, dtype=np.intp)
        self._vals = self.gammas_from(0.0, self._at)
        self.bar = self._vals + (self.spec.gamma_bar - self.gamma0)
        return self.objective(self._vals)

    def line(self, k: int):
        """phi(t) = :meth:`objective` at the held point plus t e_k, valid
        until the next line or move.  Direction k is formed only at each
        moving block's held peak point (:meth:`_peak_samples`) once the
        previous line's stacks are released; its stacks on the grid wait
        for a probe that gets past those samples (:meth:`gammas_from`)."""
        self._line, self._peaks = [], None   # release the previous line's stacks and Grams
        self._k, self._samples = k, self._peak_samples(self.taps[k])

        def phi(t: float) -> float:
            return self.objective(self.gammas_from(t))

        return phi

    def _peak_samples(self, taps: np.ndarray) -> list:
        """(slots, Gram terms (G0, G1, G2)) per Gram side of the moving blocks
        along the direction ``taps``, each at its held peak point only:
        :func:`closed_loop.q_linear_response` of ``factors`` at those points."""
        moving = [(gi, g, self._at[g.slots]) for gi, g in enumerate(self.groups) if g.gather is not None]
        if not moving:
            return []
        pts, col = np.unique(np.concatenate([p for *_, p in moving]), return_inverse=True)
        flat = q_linear_response(tuple(f[pts] for f in self.factors), taps).reshape(pts.size, -1).T
        flat = np.concatenate([flat, np.zeros((1, pts.size))])   # the zero row of _gather
        sides, lo = {}, 0
        for gi, g, p in moving:
            b, c, lo = np.arange(p.size), col[lo:lo + p.size], lo + p.size
            sides.setdefault(g.base.shape[0], []).append((g.slots, _line_terms(
                self._grams[gi][:, :, b, p], self._stacks[gi][:, :, b, p], flat[g.gather, c])))
        return [(np.concatenate([s for s, _ in m]), [np.concatenate(T, axis=2) for T in zip(*(q for _, q in m))])
                for m in sides.values()]

    def _form_line(self) -> None:
        """Form the open line's direction on the grid: the stacks d of the
        moving groups, which stay with the line for :meth:`move`, and each
        moving block's Gram G0 + t G1 + t^2 G2 of B + t d (:func:`_line_terms`),
        laid end to end per Gram side r, so that a probe brackets each side's
        peaks in one pass (:func:`_gram_sum`)."""
        self._line = self._moving_stacks(self.taps[self._k])
        self.lines_formed += 1
        sides: dict = {}
        for gi, d in self._line:
            sides.setdefault(d.shape[0], []).append(
                (self.groups[gi].slots, _line_terms(self._grams[gi], self._stacks[gi], d)))
        self._peaks = [(np.concatenate([s for s, _ in m]), _gram_sum([q for _, q in m])) for m in sides.values()]

    def move(self, t: float) -> None:
        """Step the held stacks and Grams t along the open line, formed on the
        grid first if no probe has; the new peak points come from one
        bracketed pass of the line's Grams at t."""
        if self._peaks is None:
            self._form_line()
        for slots, block_peaks in self._peaks:
            self._at[slots] = block_peaks(t)[1]
        for gi, d in self._line:
            self._stacks[gi] += t * d
            self._grams[gi] = self._gram0(self.groups[gi], self._stacks[gi])


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

@dataclass
class SynthesisResult:
    """Outcome of one matching run, with certified post-hoc constraint values."""

    x: np.ndarray
    gamma: np.ndarray       # per slot of closed_loop.matching_slots
    objective: float
    objective_log: list
    q: Realization
    maps: ClosedLoopMaps
    spec: SynthesisSpec
    param: QParametrization
    n_evals: int
    hints: list
    search_certified: bool  # False: the search point failed a bound and x = 0 was returned
    support: np.ndarray     # per slot: False = structural zero
    moving: np.ndarray      # per slot: the block moves with x (closed_loop.moving_blocks)

    @property
    def bank(self):
        return self.maps.bank

    @property
    def pair(self):
        return self.maps.pair


def _objective_value(spec: SynthesisSpec, gamma: np.ndarray) -> float:
    return float(np.sum(spec.tau * gamma))


def _within_bounds(bar: np.ndarray, gamma: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.all(gamma <= bar + tol * (1.0 + bar)))


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
    spec's targets, when the caller already has it; otherwise it is
    computed here.  Its maps seed the surrogate, its norms measure the
    surrogate's bounds (:meth:`_SurrogateModel.origin`), and every
    certificate at x = 0 reuses it.
    """
    if not spec.bounds_set():
        raise ValueError("admissible bounds unset; compute the bootstrap first")
    builder = MapsBuilder(bundle, partition)
    n_free = param.n_free
    active = np.arange(min(n_free, MAX_FREE_DIMS))
    zero = np.zeros(n_free)
    if bootstrap is None:
        bootstrap = constraint_norms(param, zero, spec, builder)

    def result(x, certificate, log, n_evals, search_certified):
        gamma, maps = certificate
        obj = _objective_value(spec, gamma)
        return SynthesisResult(x, gamma, obj, log or [obj], q_from_x(param, x), maps,
                               spec, param, n_evals, _bound_hints(spec, gamma), search_certified,
                               block_support(bundle, param, partition),
                               moving_blocks(bundle, param, partition))

    if n_free == 0 or not np.any(spec.tau):
        return result(zero, bootstrap, None, 0, True)

    model = _SurrogateModel(bundle, param, partition, spec, bootstrap, active)
    log: list[float] = []
    x_act, f_star = _pattern_search(model, log)
    x_full = zero.copy()
    x_full[active] = x_act
    if f_star >= log[0] - SWEEP_TOL:
        x_full = zero  # no real progress; keep the certified origin
    # the surrogate's stacks and factors are not needed past this point;
    # free them before the certificate allocates its sweeps
    n_evals = model.n_evals
    del model
    if not np.any(x_full):
        return result(zero, bootstrap, log, n_evals, True)
    certificate = constraint_norms(param, x_full, spec, builder)
    if _within_bounds(spec.gamma_bar, certificate[0]):
        return result(x_full, certificate, log, n_evals, True)
    return result(zero, bootstrap, log, n_evals, False)


def _pattern_search(model, log: list) -> tuple[np.ndarray, float]:
    """Coordinate descent from x = 0 with golden-section line searches over
    the model's directions; the model's held point follows every accepted
    step.  Appends the objective at the start and after every line search
    to ``log``."""
    x = np.zeros(len(model.taps))
    fx = model.origin()
    log.append(fx)
    for _ in range(MAX_SWEEPS):
        f_before = fx
        for k in range(x.size):
            t, f = _line_search_coord(model.line(k), x[k], fx)
            if f < fx:
                model.move(t)
                x[k] += t
                fx = f
            log.append(fx)
        if f_before - fx < SWEEP_TOL:
            break
    return x, fx


def _line_search_coord(phi, x_k: float, fx: float) -> tuple[float, float]:
    """Golden-section minimisation of ``phi(t)`` (infeasible = +inf), the
    objective a step t along a coordinate line from a point where it is
    ``fx`` and that coordinate is ``x_k``.  Returns the best step found and
    its value, (0, fx) when no probe improves on fx."""
    step = INITIAL_STEP * max(1.0, abs(x_k))
    f_plus, f_minus = phi(step), phi(-step)
    if fx <= f_plus and fx <= f_minus:
        # try a smaller probe before giving up on this coordinate
        step *= 0.1
        f_plus, f_minus = phi(step), phi(-step)
        if fx <= f_plus and fx <= f_minus:
            return 0.0, fx
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
    return t_best, f_best


def _bound_hints(spec: SynthesisSpec, gamma: np.ndarray) -> list:
    """Name the constraints sitting at their admissible bounds (1-based),
    grouped by area: gamma_d[i], then gamma_u[i,j] and gamma_c[i,j] for
    each j.  A block certified at exactly 0, as every structural zero is
    (its bound is then 0 too), is not named."""
    if not spec.bounds_set():
        return []
    bar = spec.gamma_bar
    at_bound = (gamma > 0) & (gamma >= bar * (1 - 1e-6) - 1e-12)
    # a stable sort by (i, j) keeps each coupling slot before its init slot
    by_area = sorted(enumerate(matching_slots(spec.n_areas)),
                     key=lambda e: (e[1][1], -1 if e[1][2] is None else e[1][2]))
    return [f"{slot_name(slot)} at bound {bar[s]:.6g}" for s, slot in by_area if at_bound[s]]


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
    from .sparse_param import InfeasibilityReport, build_parametrization, pattern_from_neighborhoods

    config = config if config is not None else AlgorithmConfig()
    pattern = pattern_from_neighborhoods(partition, nb)
    if spec is None:
        spec = default_targets(partition, plant.n_d)

    F, L = design_gains(plant, partition, config.gain_strategy, config.F, config.L)
    bundle = build_dcf(plant, F, L)
    param = build_parametrization(bundle, pattern, config.q)
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
        spec = spec.with_bounds(bootstrap[0], config.bound_slack)
    return solve(spec, param, bundle, partition, bootstrap)
