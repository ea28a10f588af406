"""Discrete-time LTI state-space algebra.

Everything in the toolkit is carried by :class:`Realization`, a plain
(A, B, C, D) quadruple evaluated as ``C (zI - A)^{-1} B + D``.  The helpers
here cover construction, composition, evaluation on the unit circle
(every grid is :func:`half_circle`), minimality reduction, norms and time
responses.  All values are immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NearSingularResolventError,
    NonInvertibleFeedthroughError,
    UnboundedTfmError,
)

#: Default relative factor for rank decisions, scaled by (1 + largest
#: singular value) of the block under test.
RANK_TOL = 1e-9

#: Absolute threshold used by grid-based "identically zero" tests.
ZERO_TOL = 1e-8


def _as_matrix(M, rows=None, cols=None) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(1, -1) if rows == 1 else A.reshape(-1, 1)
    if A.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got array of shape {A.shape}")
    return A


@dataclass(frozen=True)
class Realization:
    """State-space quadruple of a proper rational matrix.

    ``order == 0`` is allowed and represents a pure gain.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def noutputs(self) -> int:
        return self.C.shape[0]

    @property
    def ninputs(self) -> int:
        return self.B.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.noutputs, self.ninputs)

    def eval(self, z: complex) -> np.ndarray:
        return evaluate(self, z)

    def __repr__(self):  # keep reprs short; matrices can be large
        return f"Realization(order={self.order}, shape={self.shape})"


def make_realization(A, B, C, D) -> Realization:
    """Build a :class:`Realization`, checking dimension consistency.

    Raises
    ------
    DimensionMismatchError
        Naming the offending pair of blocks.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    D = _as_matrix(D)
    n = A.shape[0]
    if B.ndim != 2:
        B = B.reshape(n, -1)
    if C.ndim != 2:
        C = C.reshape(-1, n)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise DimensionMismatchError(f"rows(B)={B.shape[0]} does not match rows(A)={n}")
    if C.shape[1] != n:
        raise DimensionMismatchError(f"cols(C)={C.shape[1]} does not match cols(A)={n}")
    if D.shape != (C.shape[0], B.shape[1]):
        raise DimensionMismatchError(
            f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])} from (C, B)"
        )
    for M in (A, B, C, D):
        M.setflags(write=False)
    return Realization(A, B, C, D)


def from_gain(D) -> Realization:
    """Order-zero realization of a constant matrix."""
    D = _as_matrix(D)
    return make_realization(np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D)


def delay(p: int = 1) -> Realization:
    """Realization of ``z^{-1} I_p``."""
    return make_realization(np.zeros((p, p)), np.eye(p), np.eye(p), np.zeros((p, p)))


def fir_realization(taps) -> Realization:
    """Strictly proper FIR map ``sum_t taps[t-1] z^{-t}`` in block companion form.

    ``taps`` is a sequence of q equally shaped (p x m) coefficient matrices
    attached to powers ``z^{-1} .. z^{-q}``.
    """
    taps = [np.atleast_2d(np.asarray(t, dtype=float)) for t in taps]
    if not taps:
        raise DimensionMismatchError("need at least one tap")
    p, m = taps[0].shape
    q = len(taps)
    if any(t.shape != (p, m) for t in taps):
        raise DimensionMismatchError("all taps must share one shape")
    A = np.zeros((q * p, q * p))
    for j in range(q - 1):
        A[j * p:(j + 1) * p, (j + 1) * p:(j + 2) * p] = np.eye(p)
    B = np.vstack(taps)
    C = np.zeros((p, q * p))
    C[:, :p] = np.eye(p)
    return make_realization(A, B, C, np.zeros((p, m)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(R: Realization, z: complex) -> np.ndarray:
    """Value ``C (zI - A)^{-1} B + D`` at one complex point."""
    if R.order == 0:
        return R.D.astype(complex)
    M = z * np.eye(R.order) - R.A
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    if smin < 1e-12 * max(1.0, abs(z), np.linalg.norm(R.A, 2)):
        raise NearSingularResolventError(z, smin)
    return R.C @ np.linalg.solve(M, R.B.astype(complex)) + R.D


def _resolvent(A: np.ndarray, B: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(zI - A)^{-1} B at every point of ``zs``, one LU solve per point."""
    Ms = zs[:, None, None] * np.eye(A.shape[0]) - A
    return np.linalg.solve(Ms, np.broadcast_to(B.astype(complex), (zs.size,) + B.shape))


def frequency_response(R: Realization, zs) -> np.ndarray:
    """Stacked values of ``R`` at every point of ``zs``; shape (len(zs), p, m).

    Vectorised over the grid; memory use is kept bounded by chunking the
    batched resolvent solves.
    """
    # An LU solve per point, not one Schur or Hessenberg reduction shared by
    # all points: on the mesh grouped into areas (6, 3), (2, 1), (2, 1) the
    # deadbeat A + L factors lose about 3 digits through such a reduction,
    # and the Bezout residual goes from 3.6e-10 to 2-3e-7, above its 1e-8 gate.
    zs = np.asarray(zs, dtype=complex).ravel()
    G = zs.size
    p, m = R.shape
    out = np.empty((G, p, m), dtype=complex)
    if R.order == 0 or G == 0:
        out[:] = R.D
        return out
    chunk = max(1, int(4e7 / (R.order ** 2 + 1)) // 16 or 1)
    for lo in range(0, G, chunk):
        out[lo:lo + chunk] = R.C @ _resolvent(R.A, R.B, zs[lo:lo + chunk]) + R.D
    return out


def _half_angle(k, n: int):
    """The angle pi (k + 1/2) / n of point k of :func:`half_circle`."""
    return np.pi * (k + 0.5) / n


def half_circle(n: int) -> np.ndarray:
    """The n points e^{i pi (k + 1/2) / n}, k < n: the midpoints of n equal
    arcs of the upper half circle, the one grid of every frequency test.

    A real-rational map satisfies G(conj(z)) = conj(G(z)), so its singular
    values, its column norms and its zero entries repeat at conjugate points,
    and the upper half carries every norm bound, residual and zero test.
    With the conjugates the points are the 2n midpoints of the full circle,
    and z = +-1 are never sampled.
    """
    return np.exp(1j * _half_angle(np.arange(n), n))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def series(R1: Realization, R2: Realization) -> Realization:
    """Realize the transfer-matrix product ``R1(z) R2(z)``.

    Signal-wise: the input feeds ``R2`` first.
    """
    if R1.ninputs != R2.noutputs:
        raise DimensionMismatchError(
            f"product mismatch: R1 has {R1.ninputs} inputs, R2 has {R2.noutputs} outputs"
        )
    n1, n2 = R1.order, R2.order
    A = np.block([
        [R1.A, R1.B @ R2.C],
        [np.zeros((n2, n1)), R2.A],
    ])
    B = np.vstack([R1.B @ R2.D, R2.B])
    C = np.hstack([R1.C, R1.D @ R2.C])
    D = R1.D @ R2.D
    return make_realization(A, B, C, D)


def parallel(R1: Realization, R2: Realization) -> Realization:
    """Realize ``R1(z) + R2(z)``."""
    if R1.shape != R2.shape:
        raise DimensionMismatchError(f"sum mismatch: {R1.shape} vs {R2.shape}")
    A = scipy.linalg.block_diag(R1.A, R2.A)
    B = np.vstack([R1.B, R2.B])
    C = np.hstack([R1.C, R2.C])
    return make_realization(A, B, C, R1.D + R2.D)


def negate(R: Realization) -> Realization:
    return make_realization(R.A, R.B, -R.C, -R.D)


def transpose(R: Realization) -> Realization:
    """Realize ``R(z)^T``."""
    return make_realization(R.A.T, R.C.T, R.B.T, R.D.T)


def stack_cols(R1: Realization, R2: Realization) -> Realization:
    """Realize ``[R1, R2]`` (shared output)."""
    if R1.noutputs != R2.noutputs:
        raise DimensionMismatchError(f"column stack mismatch: {R1.noutputs} vs {R2.noutputs} outputs")
    A = scipy.linalg.block_diag(R1.A, R2.A)
    B = scipy.linalg.block_diag(R1.B, R2.B)
    C = np.hstack([R1.C, R2.C])
    D = np.hstack([R1.D, R2.D])
    return make_realization(A, B, C, D)


def select_rows(R: Realization, idx) -> Realization:
    idx = np.asarray(idx, dtype=int).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= R.noutputs):
        raise DimensionMismatchError(f"row index out of range for {R.noutputs} outputs")
    return make_realization(R.A, R.B, R.C[idx, :], R.D[idx, :])


def select_cols(R: Realization, idx) -> Realization:
    idx = np.asarray(idx, dtype=int).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= R.ninputs):
        raise DimensionMismatchError(f"column index out of range for {R.ninputs} inputs")
    return make_realization(R.A, R.B[:, idx], R.C, R.D[:, idx])


def inverse(R: Realization) -> Realization:
    """Realize ``R(z)^{-1}``; needs a square, well-conditioned feedthrough."""
    p, m = R.shape
    if p != m:
        raise NonInvertibleFeedthroughError(f"only square maps have inverses, got {R.shape}")
    if p == 0:
        return R
    sv = np.linalg.svd(R.D, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > 1e12:
        raise NonInvertibleFeedthroughError(
            f"feedthrough condition number {np.inf if sv[-1] == 0 else sv[0] / sv[-1]:.3e} "
            "exceeds bound 1.0e+12; inverse would not be proper"
        )
    Dinv = np.linalg.inv(R.D)
    A = R.A - R.B @ Dinv @ R.C
    B = R.B @ Dinv
    C = -Dinv @ R.C
    return make_realization(A, B, C, Dinv)


# ---------------------------------------------------------------------------
# structure: rank tools, minimality, PBH
# ---------------------------------------------------------------------------

def _orth(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, SVD-based and deterministic."""
    if M.shape[1] == 0 or M.shape[0] == 0:
        return np.zeros((M.shape[0], 0))
    try:
        U, s, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails on extreme dynamic ranges; gesvd is slower
        # but dependable
        U, s, _ = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
    r = int(np.sum(s > RANK_TOL * (1.0 + (s[0] if s.size else 0.0))))
    return U[:, :r]


def _reachable_basis(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing range(B)."""
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    V = _orth(B)
    while V.shape[1] < n:
        W = _orth(np.hstack([V, A @ V]))
        if W.shape[1] == V.shape[1]:
            break
        V = W
    return V


def minimal(R: Realization) -> Realization:
    """Minimal realization via reachable-then-observable reduction.

    The returned map matches ``R`` exactly as a transfer matrix; the state
    coordinates are orthonormal projections, so the reduction is numerically
    benign for the desk-scale orders used here.
    """
    A, B, C, D = R.A, R.B, R.C, R.D
    # reachable part
    V = _reachable_basis(A, B)
    A1 = V.T @ A @ V
    B1 = V.T @ B
    C1 = C @ V
    # observable part (reachable subspace of the transposed pair)
    W = _reachable_basis(A1.T, C1.T)
    A2 = W.T @ A1 @ W
    B2 = W.T @ B1
    C2 = C1 @ W
    return make_realization(A2, B2, C2, D)


def pbh_test(R: Realization, z: complex, mode: str = "controllable") -> bool:
    """Popov-Belevitch-Hautus rank test at one complex point."""
    n = R.order
    if n == 0:
        return True
    if mode == "controllable":
        M = np.hstack([R.A - z * np.eye(n), R.B])
    elif mode == "observable":
        M = np.hstack([R.A.T - z * np.eye(n), R.C.T])
    else:
        raise ValueError(f"unknown PBH mode {mode!r}")
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * (1.0 + float(s[0])))) == n


def is_minimal(R: Realization) -> bool:
    """PBH controllability and observability at every eigenvalue of A."""
    if R.order == 0:
        return True
    for lam in np.linalg.eigvals(R.A):
        if not pbh_test(R, lam, "controllable"):
            return False
        if not pbh_test(R, lam, "observable"):
            return False
    return True


def spectral_radius_raw(R: Realization) -> float:
    """Spectral radius of the state matrix as given (no minimalization)."""
    if R.order == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(R.A))))


def spectral_radius(R: Realization) -> float:
    """Spectral radius of a minimal realization's state matrix.

    Hidden (uncontrollable or unobservable) modes do not count, so a map that
    is zero with an unstable hidden mode still reports radius zero.
    """
    return spectral_radius_raw(minimal(R))


def is_cb_bounded(R: Realization) -> bool:
    """True when the map is bounded outside the open unit disc (stable)."""
    return spectral_radius(R) < 1.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _lambda_max(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of hermitian matrices stacked along the trailing
    axes of H, shape (r, r, ...): closed form for r up to three
    (trigonometric solution of the characteristic cubic), LAPACK above."""
    r = H.shape[0]
    if r == 0:
        return np.zeros(H.shape[2:])
    if r == 1:
        return H[0, 0].real
    if r == 2:
        m = 0.5 * (H[0, 0].real + H[1, 1].real)
        h = 0.5 * (H[0, 0].real - H[1, 1].real)
        return m + np.sqrt(h * h + np.abs(H[0, 1]) ** 2)
    if r == 3:
        a, b, c = (H[i, i].real for i in range(3))
        s01, s02, s12 = np.abs(H[0, 1]) ** 2, np.abs(H[0, 2]) ** 2, np.abs(H[1, 2]) ** 2
        q = (a + b + c) / 3.0
        a, b, c = a - q, b - q, c - q
        p = np.sqrt((a * a + b * b + c * c + 2.0 * (s01 + s02 + s12)) / 6.0)
        # det(H - qI), written for a hermitian matrix
        det = (a * b * c - a * s12 - b * s02 - c * s01
               + 2.0 * (H[0, 1] * H[1, 2] * H[2, 0]).real)
        safe = np.where(p > 0, p, 1.0)
        phi = np.arccos(np.clip(det / (2.0 * safe ** 3), -1.0, 1.0)) / 3.0
        return np.where(p > 0, q + 2.0 * p * np.cos(phi), q)
    return np.linalg.eigvalsh(np.moveaxis(H, (0, 1), (-2, -1)))[..., -1]


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^H of matrices stacked along the trailing axes: (s, t, ...) -> (s, s, ...).
    The trailing axes are merged into one, which einsum sums faster."""
    (s, t, *rest), r = a.shape, b.shape[0]
    ab = np.einsum("ikn,jkn->ijn", a.reshape(s, t, -1), b.reshape(r, t, -1).conj())
    return ab.reshape(s, r, *rest)


#: Round-off allowance of :func:`_bracket`, relative to the size of the terms that
#: formed a block's Grams (rounding leaves them PSD only to ~ side x length x eps).
BRACKET_TOL = 1e-10


def _bracket(diag: np.ndarray, value_at, top: int | None = None,
             scale: np.ndarray | None = None):
    """Each block's peak and first peak point, or with ``top`` the (blocks, top)
    indices of its top points (ties to the later one), of value_at(flat) =
    lambda_max (or an increasing function of it) of the Grams at flat points
    b G + g, whose real diagonals are diag (r, blocks, G).  As max diag <=
    lambda_max <= trace for a positive semidefinite Gram, values are taken
    only where the trace reaches the block's top-th largest max-diagonal less
    BRACKET_TOL * scale (default: the block's largest sum of |diag|).  All
    equal a sweep's over every point when value_at forms values as it would."""
    blocks, G = diag.shape[1:]
    k = min(top or 1, G)
    kth = np.partition(diag.max(axis=0, initial=-np.inf), G - k, axis=1)[:, G - k]
    scale = np.abs(diag).sum(axis=0).max(axis=1) if scale is None else scale
    flat = np.flatnonzero(diag.sum(axis=0) >= (kth - BRACKET_TOL * scale)[:, None])
    vals = np.full((blocks, G), -np.inf)
    vals.flat[flat] = value_at(flat)
    if top is None:
        return vals.max(axis=1), vals.argmax(axis=1)
    return np.argsort(vals, axis=1, kind="stable")[:, ::-1][:, :top]


@dataclass(frozen=True)
class _SchurForm:
    """A realization in complex Schur coordinates: with A = Z T Z^H and T
    upper triangular, R(z) = CZ (zI - T)^{-1} ZB + D for CZ = C Z and
    ZB = Z^H B.  One reduction serves every sub-block of R, at any points."""

    T: np.ndarray
    CZ: np.ndarray
    ZB: np.ndarray
    D: np.ndarray

    @classmethod
    def of(cls, R: Realization) -> "_SchurForm":
        T, Z = scipy.linalg.schur(R.A, output="complex")
        return cls(T, R.C @ Z, Z.conj().T @ R.B, R.D)

    def transpose(self) -> "_SchurForm":
        """The form of R^T, with no new reduction: for the order reversal J,
        A^T = (conj(Z) J) (J T^T J) (J Z^T) and J T^T J is upper triangular."""
        flip = (self.T[::-1, ::-1].T, self.ZB.T[:, ::-1], self.CZ.T[::-1], self.D.T)
        return _SchurForm(*map(np.ascontiguousarray, flip))

    def blocks_at(self, rows: np.ndarray, cols: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Values of the blocks R[rows[b], cols[b]] at the points zs[b],
        shape (B, K, r, c) for rows (B, r), cols (B, c) and zs (B, K).

        (zI - T) X = ZB[:, cols] is back-substituted at all points at once:
        O(n^2 c) per point and no factorisation, so evaluate a block with
        more columns than rows through :meth:`transpose`.  The rows go in
        panels of 16, so that the coupling to solved rows is one matrix
        product per panel.
        """
        (B, K), n, c = zs.shape, self.T.shape[0], cols.shape[1]
        rhs = np.broadcast_to(self.ZB[:, cols][:, :, None], (n, B, K, c)).reshape(n, -1)
        shifts = np.repeat(zs.ravel(), c)
        X = np.empty_like(rhs)
        for hi in range(n, 0, -16):
            lo = max(0, hi - 16)
            acc = rhs[lo:hi] + self.T[lo:hi, hi:] @ X[hi:]
            for i in range(hi - 1, lo - 1, -1):
                X[i] = (acc[i - lo] + self.T[i, i + 1:hi] @ X[i + 1:hi]) / (shifts - self.T[i, i])
        vals = self.CZ[rows] @ X.reshape(n, B, K * c).transpose(1, 0, 2)
        return (vals.reshape(B, -1, K, c).transpose(0, 2, 1, 3)
                + self.D[rows[:, :, None], cols[:, None, :]][:, None])

    def response(self, zs: np.ndarray) -> np.ndarray:
        """Values of the whole map at every point of ``zs``, shape (len(zs), p, m),
        in chunks of 128 points so the solve's work arrays stay small."""
        p, m = self.D.shape
        out = np.empty((zs.size, p, m), dtype=complex)
        for lo in range(0, zs.size, 128):
            out[lo:lo + 128] = self.blocks_at(np.arange(p)[None], np.arange(m)[None],
                                              zs[None, lo:lo + 128])[0]
        return out


#: Cap on the lockstep steps of :func:`_brent_max`; golden steps alone shrink a
#: bracket by 0.618 each, so about 30 of them reach the tolerance from a grid step.
_BRENT_STEPS = 100

#: Relative rise (64 units in the last place) below which two samples of
#: :func:`_brent_max` count as equal: singular values sampled tol apart near a
#: peak differ by round-off alone.
_ROUNDOFF = 2.0 ** -46


def _brent_max(value_at, a: np.ndarray, b: np.ndarray, pts: np.ndarray, vals: np.ndarray,
               tol: float) -> tuple[np.ndarray, int]:
    """Maximise n functions at once, each on its own bracket [a, b], by Brent's
    safeguarded parabolic search (Brent 1973, ch. 5), seeded with three
    samples ``pts`` (3, n) of values ``vals`` in place of golden steps.

    ``value_at(u, which)`` returns the values of the functions ``which`` at
    the points ``u``.  A parabolic step is taken when the parabola through the
    three best points has its vertex inside the bracket and moves less than
    half the step before last, a golden step into the larger side otherwise.
    Once a vertex lies within tol of the best point x, the parabola fails
    after a step shorter than tol, or a sample within 4 tol of x equals its
    value to within :data:`_ROUNDOFF`, the function is closing: each step
    probes x - tol / 4 and x + tol / 4 (where the bracket is still open), and
    x moves only to a strictly higher sample, so the probes close the bracket
    at the peak even where values differ by round-off alone.  A probe that
    rises by more than round-off reopens the search.  A function stops once
    its bracket lies within tol / 2 of x on both sides (so b - a <= tol);
    each lockstep step evaluates only the functions still live.  Returns
    every function's largest value seen, the seeds included, and the number
    of steps taken.
    """
    h, probe = 0.5 * tol, 0.25 * tol
    best = vals.max(axis=0)
    order = np.argsort(-vals, axis=0, kind="stable")
    x, w, v = np.take_along_axis(pts, order, axis=0)
    fx, fw, fv = np.take_along_axis(vals, order, axis=0)
    # the last two steps start at the bracket width, so the seeds' parabola goes first
    d = e = b - a
    which = np.arange(best.size)
    closing = np.zeros(best.size, dtype=bool)

    def take(u, fu, m=True):
        """Move the bracket, the best point x and the parabola's points w and v
        of the functions ``m`` to a new sample (u, fu) inside their brackets."""
        nonlocal a, b, x, w, v, fx, fw, fv
        up = fu > fx
        a = np.where(m & (up ^ (u < x)), np.where(up, x, u), a)
        b = np.where(m & (up ^ (u >= x)), np.where(up, x, u), b)
        to_w = m & ~up & ((fu >= fw) | (w == x))
        to_v = m & ~up & ~to_w & ((fu >= fv) | (v == x) | (v == w))
        mv = m & (up | to_w)
        v, fv = np.where(mv, w, np.where(to_v, u, v)), np.where(mv, fw, np.where(to_v, fu, fv))
        w, fw = np.where(m & up, x, np.where(to_w, u, w)), np.where(m & up, fx, np.where(to_w, fu, fw))
        x, fx = np.where(m & up, u, x), np.where(m & up, fu, fx)

    for steps in range(_BRENT_STEPS + 1):
        live = np.maximum(x - a, b - x) > h
        if not live.all():
            a, b, x, w, v, fx, fw, fv, d, e, closing, which = (
                arr[live] for arr in (a, b, x, w, v, fx, fw, fv, d, e, closing, which))
        if not which.size or steps == _BRENT_STEPS:
            break
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p = np.where(q > 0, -p, p)
        q = np.abs(q)
        para = (np.abs(p) < np.abs(0.5 * q * e)) & (p > q * (a - x)) & (p < q * (b - x))
        gold = np.where(x >= 0.5 * (a + b), a - x, b - x)
        step = np.where(para, p / np.where(para, q, 1.0), (1.0 - _GOLDEN) * gold)
        closing |= np.abs(np.where(para, step, d)) < tol
        e, d = np.where(para, d, gold), step
        left, right = x - a > h, b - x > h
        u = np.where(closing, np.where(left, x - probe, x + probe), x + step)
        both = np.flatnonzero(closing & left & right)
        f = value_at(np.concatenate([u, x[both] + probe]), np.concatenate([which, which[both]]))
        fu, f2 = f[:u.size], f[u.size:]
        flat = ~closing & (np.abs(u - x) < 4.0 * tol) & (np.abs(fu - fx) <= _ROUNDOFF * np.abs(fx))
        best[which] = np.maximum(best[which], fu)
        best[which[both]] = np.maximum(best[which[both]], f2)
        # the right probe counts only where the left one left x in place
        second, u2, fx0 = np.zeros(u.size, dtype=bool), x + probe, fx
        second[both] = fu[both] <= fx[both]
        take(u, fu)
        fu[both] = f2
        take(u2, fu, second)
        # a probe that rises above round-off shows x is not at the peak: the
        # function reopens, and its next parabola may step anywhere in the bracket
        rose = closing & (fx - fx0 > _ROUNDOFF * np.abs(fx0))
        closing = (closing & ~rose) | flat
        e = np.where(rose, b - a, e)
    return best, steps


def _block_peaks(R: Realization, blocks: list, grid_points: int, refine_passes: int) -> np.ndarray:
    """Lower bounds on the peak largest singular value over the unit circle
    of blocks (rows, cols, target) = R[rows, cols] - target of one map
    (target a Realization, or None for zero), one value per block.

    The grid is :func:`half_circle` (``grid_points``), of step pi /
    grid_points in theta.  One Schur reduction of R serves every block: the
    map is swept once on its smaller side, the blocks are sliced from the
    sweep, grouped by shape, and their points ranked by the largest
    eigenvalue of the smaller-side Gram matrix.  The ranking is bracketed
    (:func:`_bracket`, diagonals sum |value|^2), which picks the points a
    ranking of every point would from a few percent of their lambda_max.  Each of a block's top ``refine_passes`` points
    theta_k is refined on [theta_k - step, theta_k + step] by
    :func:`_brent_max`, seeded with the grid's values at theta_k and its two
    neighbours, to a bracket of step * 1e-6; a point with a higher neighbour
    that is itself a top point stops at once, as that neighbour's interval
    holds the peak.  The searches of a batch of one shape run in lockstep,
    each step one back-substitution of the live blocks' smaller side and one
    batched SVD.  The ranking only decides where to look: each value is the
    largest SVD sample seen, a lower bound.
    """
    zs, step = half_circle(grid_points), np.pi / grid_points
    schur = _SchurForm.of(R)
    schur_t = schur.transpose()
    sweep = (schur.response(zs) if R.noutputs >= R.ninputs
             else schur_t.response(zs).transpose(0, 2, 1))
    groups: dict = {}
    for k, (rows, cols, _) in enumerate(blocks):
        if rows.size and cols.size:
            groups.setdefault((rows.size, cols.size), []).append(k)
    batches = []
    for (r, c), members in groups.items():
        # at most about 2^21 sliced values (32 MB) per batch, so large
        # networks do not hold every block's sweep at once
        per = max(1, 2 ** 21 // (zs.size * r * c))
        batches += [(r, c, members[lo:lo + per]) for lo in range(0, len(members), per)]
    peaks = np.zeros(len(blocks))
    for r, c, members in batches:
        # orient every block as (t, s), its smaller side s last
        wide = c > r
        rows, cols = (np.array([blocks[k][side] for k in members]) for side in (0, 1))
        form, big, small = (schur_t, cols, rows) if wide else (schur, rows, cols)
        targets = [(b, blocks[k][2]) for b, k in enumerate(members) if blocks[k][2] is not None]

        def minus_targets(vals, z, owner):
            """Subtract from the values vals (n, K, t, s) at z (n, K) the targets of blocks owner (n,)."""
            for b, target in targets:
                sel = np.flatnonzero(owner == b)
                if sel.size:
                    tv = frequency_response(target, z[sel].ravel()).reshape(sel.size, z.shape[1], *target.shape)
                    vals[sel] -= tv.transpose(0, 1, 3, 2) if wide else tv
            return vals

        oriented = sweep.transpose(0, 2, 1) if wide else sweep
        S = oriented[:, big[:, :, None], small[:, None, :]].transpose(1, 0, 2, 3)
        B = len(members)
        S = minus_targets(S, np.broadcast_to(zs, S.shape[:2]), np.arange(B))

        def lam_at(flat):
            cols = S[flat // zs.size, flat % zs.size].transpose(2, 1, 0)
            return _lambda_max(_gram(cols, cols))

        top = _bracket((np.abs(S) ** 2).sum(axis=2).transpose(2, 0, 1), lam_at, top=max(1, refine_passes))
        # each top point with its grid neighbours, which past either end of
        # the half circle are conjugates of grid points
        near = top + np.array([-1, 0, 1])[:, None, None]
        near = np.where(near < 0, -1 - near, np.where(near >= zs.size, 2 * zs.size - 1 - near, near))
        seeds = np.linalg.svd(S[np.arange(B)[:, None], near], compute_uv=False)[..., 0]
        higher_top = (seeds[[0, 2]] > seeds[1]) & (near[[0, 2], :, :, None] == top[:, None, :]).any(axis=-1)
        go = np.flatnonzero(~higher_top.any(axis=0))
        owner = go // top.shape[1]

        def sigma(th, which):
            z = np.exp(1j * th)[:, None]
            vals = minus_targets(form.blocks_at(big[owner[which]], small[owner[which]], z), z, owner[which])
            return np.linalg.svd(vals[:, 0], compute_uv=False)[:, 0]

        pts = _half_angle(top.ravel()[go], grid_points) + step * np.array([-1.0, 0.0, 1.0])[:, None]
        best = seeds.max(axis=0).ravel()
        best[go] = _brent_max(sigma, pts[0], pts[2], pts, seeds.reshape(3, -1)[:, go], step * 1e-6)[0]
        peaks[members] = best.reshape(top.shape).max(axis=1)
    return peaks


def hinf_norm(R: Realization, grid_points: int = 2048, refine_passes: int = 3,
              check_bounded: bool = True) -> float:
    """Lower bound on the peak largest singular value over the unit circle:
    the one-block case of :func:`_block_peaks` on ``grid_points`` points of
    :func:`half_circle`, whose seeded parabolic
    refinement (:func:`_brent_max`) drives the gap far below the grid's for
    smooth desk-scale maps.  An order-zero map returns sigma_max(D)."""
    if min(R.shape) == 0:
        return 0.0
    if check_bounded and not is_cb_bounded(R):
        raise UnboundedTfmError("map has poles on or outside the unit circle")
    if R.order == 0:
        return float(np.linalg.svd(R.D, compute_uv=False)[0])
    block = (np.arange(R.noutputs), np.arange(R.ninputs), None)
    return float(_block_peaks(R, [block], grid_points, refine_passes)[0])


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalTrace:
    """Time-indexed vector samples starting at ``start_index``: (horizon,
    dim), or (horizon, dim, S) for S scenarios side by side."""

    samples: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s.reshape(-1, 1)
        if s.ndim not in (2, 3):
            raise DimensionMismatchError(f"trace samples must be 2-d or 3-d, got shape {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def horizon(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


#: Time steps per chunk of :func:`_recursion`'s drive and output products.
RECURSION_CHUNK = 64


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v[k] for every k of v, (T, m, S); one product even when S = 1."""
    return (v[:, :, 0] @ M.T)[:, :, None] if v.shape[2] == 1 else M @ v


def _recursion(A, B, u, x, C=None, D=None) -> np.ndarray:
    """Outputs y_k = C x_k + D u_k (the states x_k if ``C`` is None) of
    x_{k+1} = A x_k + B u_k over u, (T, m) + batch, from x, (n,) + batch.
    A tuple ``B`` holds the diagonal blocks of a block-diagonal B.

    Only A x_k + drive_k is stepped, one product over all scenarios per
    step; the drive B u and the outputs are taken per chunk of
    :data:`RECURSION_CHUNK` steps, which also bounds the drive's memory.
    """
    T, batch = u.shape[0], u.shape[2:]
    n, S = A.shape[0], int(np.prod(batch, dtype=int))
    u = u.reshape(T, u.shape[1], S)
    x = np.asarray(x, dtype=float).reshape(n, S)
    out = np.empty((T, n if C is None else C.shape[0], S))
    cuts = np.cumsum([0] + [b.shape[1] for b in B]) if isinstance(B, tuple) else None
    for lo in range(0, T, RECURSION_CHUNK):
        uc = u[lo:lo + RECURSION_CHUNK]
        drive = _apply(B, uc) if cuts is None else np.concatenate(
            [_apply(b, uc[:, i:j]) for b, i, j in zip(B, cuts, cuts[1:])], axis=1)
        X = out[lo:lo + RECURSION_CHUNK] if C is None else np.empty(drive.shape)
        X[0] = x
        for xk, xn, dk in zip(X[:-1], X[1:], drive):
            np.dot(A, xk, out=xn)
            xn += dk
        x = A @ X[-1] + drive[-1]
        if C is not None:
            out[lo:lo + RECURSION_CHUNK] = _apply(C, X) + _apply(D, uc)
    return out.reshape(out.shape[:2] + batch)


def star(R: Realization, u: SignalTrace, x0=None) -> SignalTrace:
    """Time response of ``R`` to the input trace, by exact recursion.

    The input is taken as zero before the trace's start index; ``x0`` is the
    state at the start index (defaults to zero, which reproduces the pure
    convolution response), (order, S) for a trace of S scenarios.
    """
    if u.dim != R.ninputs:
        raise DimensionMismatchError(f"input trace has dim {u.dim}, map expects {R.ninputs}")
    batch = u.samples.shape[2:]
    x = np.zeros((R.order,) + batch) if x0 is None else np.asarray(x0, dtype=float)
    if x.size != R.order * int(np.prod(batch, dtype=int)):
        raise DimensionMismatchError(f"x0 has shape {x.shape}, order is {R.order}")
    return SignalTrace(_recursion(R.A, R.B, u.samples, x, R.C, R.D), u.start_index)


def impulse_response(R: Realization, length: int) -> np.ndarray:
    """Markov parameters ``[D, CB, CAB, ...]`` with shape (length, p, m)."""
    p, m = R.shape
    out = np.zeros((length, p, m))
    if length == 0:
        return out
    out[0] = R.D
    X = R.B.copy()
    for k in range(1, length):
        out[k] = R.C @ X
        X = R.A @ X
    return out
