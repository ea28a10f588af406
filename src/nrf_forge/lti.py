"""Discrete-time LTI state-space algebra.

Everything in the toolkit is carried by :class:`Realization`, a plain
(A, B, C, D) quadruple evaluated as ``C (zI - A)^{-1} B + D``.  The helpers
here cover construction, composition, evaluation on frequency grids,
minimality reduction, norms and time responses.  All values are immutable
after construction and every operation is a pure function.
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

    ``order == 0`` is allowed and represents a pure gain.  The stability
    domain tag records which region the "good" poles live in; only the open
    unit disc is certified by this toolkit.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    stability_domain: str = "unit_disc"

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


def make_realization(A, B, C, D, stability_domain: str = "unit_disc") -> Realization:
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
    return Realization(A, B, C, D, stability_domain)


def from_gain(D) -> Realization:
    """Order-zero realization of a constant matrix."""
    D = _as_matrix(D)
    return make_realization(np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D)


def zeros_tfm(p: int, m: int) -> Realization:
    return from_gain(np.zeros((p, m)))


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


def frequency_response(R: Realization, zs) -> np.ndarray:
    """Stacked values of ``R`` at every point of ``zs``; shape (len(zs), p, m).

    Vectorised over the grid; memory use is kept bounded by chunking the
    batched resolvent solves.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    G = zs.size
    p, m = R.shape
    out = np.empty((G, p, m), dtype=complex)
    if R.order == 0 or G == 0:
        out[:] = R.D
        return out
    n = R.order
    chunk = max(1, int(4e7 / (n * n + 1)) // 16 or 1)
    I = np.eye(n)
    for lo in range(0, G, chunk):
        hi = min(G, lo + chunk)
        Ms = zs[lo:hi, None, None] * I - R.A
        X = np.linalg.solve(Ms, np.broadcast_to(R.B.astype(complex), (hi - lo, n, R.ninputs)))
        out[lo:hi] = R.C @ X + R.D
    return out


@dataclass(frozen=True)
class FrequencyGrid:
    """A set of distinct points on the unit circle."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if pts.size == 0:
            raise DimensionMismatchError("frequency grid must be nonempty")
        if not np.allclose(np.abs(pts), 1.0, atol=1e-12):
            raise ValueError("all grid points must satisfy |z| = 1")
        if np.unique(np.round(pts, 12)).size != pts.size:
            raise ValueError("grid points must be distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, count: int) -> "FrequencyGrid":
        """Uniformly spaced circle points, offset by half a step so that
        z = +-1 are never sampled exactly."""
        theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        return cls(np.exp(1j * theta))

    @classmethod
    def chebyshev(cls, count: int) -> "FrequencyGrid":
        """Chebyshev-angle points on the upper half circle.

        Real-rational maps satisfy G(conj(z)) = conj(G(z)), so for zero
        tests and norm bounds the upper half carries full information.
        """
        theta = np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count)
        return cls(np.exp(1j * theta))


DEFAULT_ZERO_GRID = FrequencyGrid.chebyshev(64)


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


def stack_rows(R1: Realization, R2: Realization) -> Realization:
    """Realize ``[R1; R2]`` (shared input)."""
    if R1.ninputs != R2.ninputs:
        raise DimensionMismatchError(f"row stack mismatch: {R1.ninputs} vs {R2.ninputs} inputs")
    A = scipy.linalg.block_diag(R1.A, R2.A)
    B = np.vstack([R1.B, R2.B])
    C = scipy.linalg.block_diag(R1.C, R2.C)
    D = np.vstack([R1.D, R2.D])
    return make_realization(A, B, C, D)


def stack_cols(R1: Realization, R2: Realization) -> Realization:
    """Realize ``[R1, R2]`` (shared output)."""
    if R1.noutputs != R2.noutputs:
        raise DimensionMismatchError(f"column stack mismatch: {R1.noutputs} vs {R2.noutputs} outputs")
    A = scipy.linalg.block_diag(R1.A, R2.A)
    B = scipy.linalg.block_diag(R1.B, R2.B)
    C = np.hstack([R1.C, R2.C])
    D = np.hstack([R1.D, R2.D])
    return make_realization(A, B, C, D)


def stack_cols_many(realizations) -> Realization:
    out = None
    for R in realizations:
        out = R if out is None else stack_cols(out, R)
    if out is None:
        raise DimensionMismatchError("nothing to stack")
    return out


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


def inverse(R: Realization, cond_bound: float = 1e12) -> Realization:
    """Realize ``R(z)^{-1}``; needs a square, well-conditioned feedthrough."""
    p, m = R.shape
    if p != m:
        raise NonInvertibleFeedthroughError(f"only square maps have inverses, got {R.shape}")
    if p == 0:
        return R
    sv = np.linalg.svd(R.D, compute_uv=False)
    if sv[-1] <= 0 or sv[0] / sv[-1] > cond_bound:
        raise NonInvertibleFeedthroughError(
            f"feedthrough condition number {np.inf if sv[-1] == 0 else sv[0] / sv[-1]:.3e} "
            f"exceeds bound {cond_bound:.1e}; inverse would not be proper"
        )
    Dinv = np.linalg.inv(R.D)
    A = R.A - R.B @ Dinv @ R.C
    B = R.B @ Dinv
    C = -Dinv @ R.C
    return make_realization(A, B, C, Dinv)


# ---------------------------------------------------------------------------
# structure: rank tools, minimality, PBH
# ---------------------------------------------------------------------------

def _orth(M: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column space, SVD-based and deterministic."""
    if M.shape[1] == 0 or M.shape[0] == 0:
        return np.zeros((M.shape[0], 0))
    try:
        U, s, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails on extreme dynamic ranges; gesvd is slower
        # but dependable
        U, s, _ = scipy.linalg.svd(M, full_matrices=False, lapack_driver="gesvd")
    if tol is None:
        tol = RANK_TOL * (1.0 + (s[0] if s.size else 0.0))
    r = int(np.sum(s > tol))
    return U[:, :r]


def _reachable_basis(A: np.ndarray, B: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing range(B)."""
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    V = _orth(B, tol)
    while V.shape[1] < n:
        W = _orth(np.hstack([V, A @ V]), tol)
        if W.shape[1] == V.shape[1]:
            break
        V = W
    return V


def minimal(R: Realization, rank_tol: float | None = None) -> Realization:
    """Minimal realization via reachable-then-observable reduction.

    The returned map matches ``R`` exactly as a transfer matrix; the state
    coordinates are orthonormal projections, so the reduction is numerically
    benign for the desk-scale orders used here.
    """
    A, B, C, D = R.A, R.B, R.C, R.D
    scale_tol = rank_tol
    # reachable part
    V = _reachable_basis(A, B, scale_tol)
    A1 = V.T @ A @ V
    B1 = V.T @ B
    C1 = C @ V
    # observable part (reachable subspace of the transposed pair)
    W = _reachable_basis(A1.T, C1.T, scale_tol)
    A2 = W.T @ A1 @ W
    B2 = W.T @ B1
    C2 = C1 @ W
    return make_realization(A2, B2, C2, D, R.stability_domain)


def pbh_test(R: Realization, z: complex, mode: str = "controllable",
             rank_tol: float | None = None) -> bool:
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
    tol = rank_tol if rank_tol is not None else RANK_TOL * (1.0 + float(s[0]))
    return int(np.sum(s > tol)) == n


def is_minimal(R: Realization, rank_tol: float | None = None) -> bool:
    """PBH controllability and observability at every eigenvalue of A."""
    if R.order == 0:
        return True
    for lam in np.linalg.eigvals(R.A):
        if not pbh_test(R, lam, "controllable", rank_tol):
            return False
        if not pbh_test(R, lam, "observable", rank_tol):
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
    if R.stability_domain != "unit_disc":
        raise ValueError(f"only the unit-disc domain is certified, got {R.stability_domain!r}")
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
    """a b^H of matrices stacked along the last axis: (s, t, n) -> (s, s, n)."""
    return np.einsum("ikn,jkn->ijn", a, b.conj())


def _schur_response(R: Realization, zs) -> np.ndarray:
    """Values of ``R`` at every point of ``zs``, shape (p, m, len(zs)).

    One complex Schur reduction A = Z T Z^H, then a back-substitution of
    (zI - T) X = Z^H B over all points at once, row by row, so each point
    costs O(n^2 m) instead of an O(n^3) factorisation.  The cost grows with
    the input count m; transpose wide maps first.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    T, Z = scipy.linalg.schur(R.A, output="complex")
    n = R.order
    X = np.empty((n, R.ninputs, zs.size), dtype=complex)
    rhs = (Z.conj().T @ R.B)[:, :, None]
    for i in range(n - 1, -1, -1):
        acc = rhs[i] + np.tensordot(T[i, i + 1:], X[i + 1:], axes=1)
        X[i] = acc / (zs - T[i, i])
    return np.tensordot(R.C @ Z, X, axes=1) + R.D[:, :, None]


def _sigma_max(R: Realization, theta: np.ndarray) -> np.ndarray:
    """Largest singular value of ``R`` at the angles ``theta``."""
    return np.linalg.svd(frequency_response(R, np.exp(1j * theta)), compute_uv=False)[:, 0]


def hinf_norm(R: Realization, grid_points: int = 4096, refine_passes: int = 3,
              check_bounded: bool = True) -> float:
    """Lower bound on the peak largest singular value over the unit circle.

    The grid is theta_k = 2 pi (k + 1/2) / grid_points on the upper half
    circle only (a real map has equal singular values at conjugate points).
    One Schur sweep (:func:`_schur_response`) ranks the grid points by the
    largest eigenvalue of the smaller-side Gram matrix; the top
    ``refine_passes`` points are then evaluated through
    :func:`frequency_response` and an SVD, and refined by golden-section
    searches on [theta_k - step, theta_k + step], run in lockstep (one
    batched evaluation per iteration).  The ranking only decides where to
    look: the returned value is the largest SVD sample seen, hence a lower
    bound, and the refinement drives the residual gap far below the grid's
    for smooth desk-scale maps.  An order-zero map returns sigma_max(D).
    """
    if min(R.shape) == 0:
        return 0.0
    if check_bounded and not is_cb_bounded(R):
        raise UnboundedTfmError("map has poles on or outside the unit circle")
    if R.order == 0:
        return float(np.linalg.svd(R.D, compute_uv=False)[0])
    step = 2.0 * np.pi / grid_points
    theta = step * (np.arange((grid_points + 1) // 2) + 0.5)
    wide = R.ninputs > R.noutputs
    H = _schur_response(transpose(R) if wide else R, np.exp(1j * theta))
    Ht = H.transpose(1, 0, 2)
    top = np.argsort(_lambda_max(_gram(Ht, Ht)))[::-1][:max(1, refine_passes)]
    best = float(np.max(_sigma_max(R, theta[top])))
    # golden-section maximisation on every candidate interval at once; the
    # intervals share one width, and a candidate stops once it is below tol
    tol = step * 1e-6
    a, b = theta[top] - step, theta[top] + step
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = np.split(_sigma_max(R, np.concatenate([x1, x2])), 2)
    best = max(best, float(np.max(f1)), float(np.max(f2)))
    for _ in range(80):
        live = b - a >= tol
        if not live.any():
            break
        up = live & (f1 < f2)
        down = live & ~up
        a[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = a[up] + _GOLDEN * (b[up] - a[up])
        b[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = b[down] - _GOLDEN * (b[down] - a[down])
        f = _sigma_max(R, np.where(up, x2, x1)[live])
        f2[up], f1[down] = f[up[live]], f[down[live]]
        best = max(best, float(np.max(f)))
    return best


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalTrace:
    """Time-indexed vector samples starting at ``start_index``."""

    samples: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s.reshape(-1, 1)
        if s.ndim != 2:
            raise DimensionMismatchError(f"trace samples must be 2-d, got shape {s.shape}")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def horizon(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @classmethod
    def zeros(cls, horizon: int, dim: int, start_index: int = 0) -> "SignalTrace":
        return cls(np.zeros((horizon, dim)), start_index)


def star(R: Realization, u: SignalTrace, x0=None) -> SignalTrace:
    """Time response of ``R`` to the input trace, by exact recursion.

    The input is taken as zero before the trace's start index; ``x0`` is the
    state at the start index (defaults to zero, which reproduces the pure
    convolution response).
    """
    if u.dim != R.ninputs:
        raise DimensionMismatchError(f"input trace has dim {u.dim}, map expects {R.ninputs}")
    n = R.order
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(x0, dtype=float).ravel()
        if x.size != n:
            raise DimensionMismatchError(f"x0 has length {x.size}, order is {n}")
    T = u.horizon
    y = np.empty((T, R.noutputs))
    for k in range(T):
        uk = u.samples[k]
        y[k] = R.C @ x + R.D @ uk
        x = R.A @ x + R.B @ uk
    return SignalTrace(y, u.start_index)


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


def fir_support(R: Realization, tol: float = 1e-12, max_len: int | None = None) -> int | None:
    """Degree of the impulse response support, or None if not FIR.

    Returns the smallest q with h[k] = 0 for all k > q, judged against
    ``tol`` times the response scale, scanning up to order + 1 samples.
    """
    horizon = (max_len if max_len is not None else R.order + 1) + 1
    h = impulse_response(R, horizon + 1)
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    nz = [k for k in range(horizon + 1) if np.max(np.abs(h[k])) > tol * scale] or [0]
    q = nz[-1]
    # FIR iff the state matrix is (numerically) nilpotent
    if R.order and spectral_radius_raw(R) > 1e-6:
        Apow = np.linalg.matrix_power(R.A, R.order)
        if np.linalg.norm(Apow, 2) > 1e-8 * max(1.0, np.linalg.norm(R.A, 2) ** R.order):
            return None
    return q
