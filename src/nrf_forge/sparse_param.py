"""Sparsity-constrained FIR parametrization of the Youla parameter.

The communication constraints on the controller pair translate, entry by
entry, into "identically zero" requirements on Yq = Yt + Q Nt (input-side
block) and Xq = Xt + Q Mt (state-side block).  The parameter is factored as

    Q(z) = P(z) (I - A_L z^{-1}),   P = P_1 z^{-1} + ... + P_{q-1} z^{-(q-1)},

with A_L the observer pencil, so that Q Nt = P B z^{-1} and
Q Mt = P (I - A z^{-1}) are FIR whatever the gains.  With a deadbeat
observer gain Yt and Xt are FIR too, and coefficient matching turns every
constrained entry into finitely many linear equations in P's taps.  The
diagonal-preserving rows (P_t B)_ll = 0 are always added, so every
controller row keeps the diagonal of Yt untouched; for deadbeat designs
whose Yt has unit diagonal this pins all controller poles at zero and fixes
each row's characteristic polynomial to a pure power of z.  The particular
solution is the least-norm solution of the stacked system; the free
directions are an orthonormal basis of its null space, both stated as Q's
own tap tensors.  The entries of Q that the equations pin to zero in every
member (an equation in one unknown with a zero right-hand side, repeated as
pinned unknowns drop out) are recorded as the family's structural support;
those the homogeneous equations leave unpinned, as the P entries directions move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dcf import DcfBundle
from .errors import DimensionMismatchError, NonFirDcfError
from .lti import Realization, fir_realization
from .partition import AreaPartition, Neighborhoods, readable

FEASIBILITY_TOL = 1e-9

#: Smallest FIR degree of Q: one free tap of P plus the closing tap.
MIN_FIR_DEGREE = 2


@dataclass(frozen=True)
class SparsityPattern:
    """Binary target pattern for [feedforward feedback], zero diagonal forced."""

    matrix: np.ndarray  # n_u x (n_u + n_x), entries in {0, 1}
    n_u: int
    n_x: int

    def __post_init__(self):
        M = np.asarray(self.matrix)
        if M.shape != (self.n_u, self.n_u + self.n_x):
            raise DimensionMismatchError(
                f"pattern shape {M.shape}, expected {(self.n_u, self.n_u + self.n_x)}"
            )
        if not np.isin(M, (0, 1)).all():
            raise ValueError("pattern entries must be 0 or 1")
        if np.any(np.diag(M[:, :self.n_u]) != 0):
            raise ValueError("the input-side diagonal of the pattern must be zero")
        M = M.astype(np.int8)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    def constrained_u_entries(self):
        """Zero input-side entries (i, j), row by row, excluding the structurally zero diagonal."""
        zero = self.matrix[:, :self.n_u] == 0
        np.fill_diagonal(zero, False)
        return list(map(tuple, np.argwhere(zero).tolist()))

    def constrained_x_entries(self):
        return list(map(tuple, np.argwhere(self.matrix[:, self.n_u:] == 0).tolist()))


def pattern_from_neighborhoods(partition: AreaPartition, nb: Neighborhoods) -> SparsityPattern:
    """The communication map with the input-side diagonal cleared."""
    M = readable(partition, nb).astype(np.int8)
    np.fill_diagonal(M[:, :partition.n_u], 0)
    return SparsityPattern(M, partition.n_u, partition.n_x)


@dataclass(frozen=True)
class InfeasibilityReport:
    """Structured report when the exact matching constraints have no solution."""

    residual: float
    n_unknowns: int
    n_constraints: int
    rank: int
    message: str


@dataclass(frozen=True)
class QParametrization:
    """Affine family Q(x) = Q0 + sum_k x_k basis_k of FIR tap tensors.

    The basis is orthonormal in tap-coefficient space and Q0 is orthogonal to
    it, so the particular solution is the least-norm member of the family.
    ``pattern`` is the communication pattern every member's Yq and Xq
    satisfy, and ``support`` (n_u, n_x) marks the entries of Q that some
    member can make nonzero; elsewhere the taps hold only round-off.
    ``free_p`` (n_u, n_x) marks the entries of P, over all taps, that some
    free direction can move.
    """

    q0_taps: np.ndarray          # (q, n_u, n_x)
    basis: np.ndarray            # (K, q, n_u, n_x)
    fir_degree: int
    residual: float
    constraint_rank: int
    n_constraints: int
    pattern: SparsityPattern
    support: np.ndarray          # (n_u, n_x) booleans
    free_p: np.ndarray           # (n_u, n_x) booleans

    def __post_init__(self):
        for name, dtype in (("q0_taps", float), ("basis", float), ("support", bool), ("free_p", bool)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_free(self) -> int:
        return self.basis.shape[0]

    @property
    def n_u(self) -> int:
        return self.q0_taps.shape[1]

    @property
    def n_x(self) -> int:
        return self.q0_taps.shape[2]

    def taps_from_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.n_free:
            raise DimensionMismatchError(f"x has length {x.size}, basis size is {self.n_free}")
        taps = self.q0_taps.copy()
        if x.size:
            taps = taps + np.tensordot(x, self.basis, axes=(0, 0))
        return taps


def q_from_x(param: QParametrization, x) -> Realization:
    """Strictly proper block-companion realization of Q(x)."""
    return fir_realization(param.taps_from_x(x))


def left_factor_taps(bundle: DcfBundle) -> dict:
    """FIR taps of Yt and Xt for a deadbeat bundle.

    Taps are indexed by the power of z^{-1} starting at 0.  Powers of the
    observer pencil are zeroed exactly once they fall below machine scale,
    keeping the assembled linear system finite and exact.
    """
    if not bundle.is_deadbeat():
        raise NonFirDcfError(
            "observer pencil A + L is not nilpotent; the exact coefficient-"
            "matching route needs the deadbeat design"
        )
    A_L = bundle.observer_pencil()
    B, L, F = bundle.plant.B_u, bundle.L, bundle.F
    n = bundle.n_x
    powers = [np.eye(n)]
    scale = max(1.0, np.linalg.norm(A_L, 2))
    for _ in range(n):
        nxt = A_L @ powers[-1]
        if np.linalg.norm(nxt, 2) <= 1e-12 * scale ** (len(powers)):
            nxt = np.zeros_like(nxt)
        powers.append(nxt)
        if not np.any(nxt):
            break
    nu = len(powers) - 1  # smallest k with A_L^k = 0 (<= n)
    m = bundle.n_u
    yt = np.zeros((nu + 1, m, m))
    xt = np.zeros((nu + 1, m, n))
    yt[0] = np.eye(m)
    for tau in range(1, nu + 1):
        P = powers[tau - 1]
        yt[tau] = -F @ P @ B
        xt[tau] = -F @ P @ L
    return {"Yt": yt, "Xt": xt, "degree": nu}


def _assemble_system(bundle: DcfBundle, pattern: SparsityPattern, q: int):
    """Stack the coefficient-matching equations in P's taps into (matrix, rhs).

    Unknown layout: tap-major, then row-major, then column:
    v[(t-1)*n_u*n_x + i*n_x + k] = P_t[i, k], t = 1..q-1.
    """
    if q < MIN_FIR_DEGREE:
        raise ValueError(f"the FIR degree q must be >= {MIN_FIR_DEGREE}, got {q}")
    taps = left_factor_taps(bundle)
    nu = taps["degree"]
    n_u, n_x = bundle.n_u, bundle.n_x
    n_taps = q - 1
    n_unknowns = n_taps * n_u * n_x
    A_pl, B_pl = bundle.plant.A, bundle.plant.B_u

    rows, rhs = [], []

    def add_row(coeff_by_tap, i, target):
        r = np.zeros(n_unknowns)
        for t, coeff in coeff_by_tap.items():
            base = (t - 1) * n_u * n_x + i * n_x
            r[base:base + n_x] = coeff
        rows.append(r)
        rhs.append(-target)

    # Q Nt = P B z^{-1};  Q Mt = P (I - A z^{-1})
    max_tau = max(nu, n_taps + 1)
    for (i, j) in pattern.constrained_u_entries():
        for tau in range(0, max_tau + 1):
            target = taps["Yt"][tau][i, j] if tau <= nu else 0.0
            coeffs = {}
            if 1 <= tau - 1 <= n_taps:
                coeffs[tau - 1] = B_pl[:, j]
            if coeffs or target:
                add_row(coeffs, i, target)
    for (i, j) in pattern.constrained_x_entries():
        for tau in range(0, max_tau + 1):
            target = taps["Xt"][tau][i, j] if tau <= nu else 0.0
            coeffs = {}
            if 1 <= tau <= n_taps:
                e_j = np.zeros(n_x)
                e_j[j] = 1.0
                coeffs[tau] = e_j
            if 1 <= tau - 1 <= n_taps:
                prev = coeffs.get(tau - 1, np.zeros(n_x))
                coeffs[tau - 1] = prev - A_pl[:, j]
            if coeffs or target:
                add_row(coeffs, i, target)
    # diagonal-preserving rows: (P_t B)_ll = 0 keeps diag(Yq) = diag(Yt)
    for ell in range(n_u):
        for t in range(1, n_taps + 1):
            add_row({t: B_pl[:, ell]}, ell, 0.0)

    return np.vstack(rows), np.asarray(rhs)


def _to_q_taps(p_flat: np.ndarray, q: int, n_u: int, n_x: int, A_L: np.ndarray) -> np.ndarray:
    """Q's own tap tensor (q, n_u, n_x) from P's flat taps: Q_t = P_t - P_{t-1} A_L."""
    p_taps = p_flat.reshape(q - 1, n_u, n_x)
    out = np.zeros((q, n_u, n_x))
    out[:-1] += p_taps
    out[1:] -= p_taps @ A_L
    return out


def _pinned_zero(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Unknowns that every solution of mat v = rhs sets to zero: an equation
    with a zero right-hand side whose only unknown not yet pinned has a
    nonzero coefficient pins it, until no equation pins a new one."""
    nonzero = mat[rhs == 0] != 0
    pinned = np.zeros(mat.shape[1], dtype=bool)
    while True:
        free = nonzero & ~pinned
        new = free[free.sum(axis=1) == 1].any(axis=0)
        if not new.any():
            return pinned
        pinned |= new


def build_parametrization(bundle: DcfBundle, pattern: SparsityPattern, q: int):
    """Solve the matching system once and package particular + basis.

    Returns a :class:`QParametrization`, or an :class:`InfeasibilityReport`
    when the least-squares residual exceeds the feasibility tolerance (the
    caller is expected to regroup areas or relax the pattern).
    """
    if pattern.n_u != bundle.n_u or pattern.n_x != bundle.n_x:
        raise DimensionMismatchError("pattern dimensions do not match the bundle")
    mat, vec = _assemble_system(bundle, pattern, q)
    n_u, n_x = bundle.n_u, bundle.n_x
    sol, _, rank, _ = np.linalg.lstsq(mat, vec, rcond=None)
    residual = float(np.linalg.norm(mat @ sol - vec, np.inf))
    scale = max(1.0, float(np.max(np.abs(vec))))
    if residual > FEASIBILITY_TOL * scale:
        return InfeasibilityReport(
            residual=residual, n_unknowns=mat.shape[1],
            n_constraints=mat.shape[0], rank=int(rank),
            message=(f"minimal residual {residual:.3e} over {mat.shape[0]} constraints; "
                     "the requested sparsity pattern is not achievable at this FIR degree"),
        )
    A_L = bundle.observer_pencil()
    q0 = _to_q_taps(sol, q, n_u, n_x, A_L)

    basis = np.zeros((0, q, n_u, n_x))
    null = scipy.linalg.null_space(mat)
    if null.shape[1]:
        flat = np.stack([_to_q_taps(null[:, k], q, n_u, n_x, A_L).ravel()
                         for k in range(null.shape[1])])  # K x (q n_u n_x)
        # orthonormalise in Q-coefficient space
        Uq, sq, Vq = np.linalg.svd(flat, full_matrices=False)
        keep = sq > 1e-12 * sq[0]
        basis = Vq[keep].reshape(-1, q, n_u, n_x)
    # make the particular solution the least-norm member of the Q-family
    if basis.shape[0]:
        flat_b = basis.reshape(basis.shape[0], -1)
        q0_flat = q0.ravel()
        q0 = (q0_flat - flat_b.T @ (flat_b @ q0_flat)).reshape(q, n_u, n_x)
    # Q_t = P_t - P_{t-1} A_L is zero wherever P_t and the P_{t-1} entries
    # that A_L carries there are pinned; a direction solves mat v = 0
    free, free_p = ((~_pinned_zero(mat, b)).reshape(q - 1, n_u, n_x).any(axis=0) for b in (vec, 0 * vec))
    support = free | ((free.astype(float) @ (A_L != 0)) > 0)
    return QParametrization(q0, basis, q, residual, int(rank), mat.shape[0], pattern, support, free_p)
