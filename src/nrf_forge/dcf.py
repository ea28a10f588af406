"""Doubly coprime factorization of the input-to-state map over the unit disc.

Given gains F (state feedback) and L (output injection; the full state is
measured, so L acts directly on the state) with A_F = A + B_u F and
A_L = A + L stable, the factorization is two realizations of order n: the
right factor R (rows x, u; columns u, x) and the left factor Lt (rows u, x;
columns x, u),

    R  = [ N   Y  ] = [ 0    I_n ] + [ I ] (zI - A_F)^{-1} [ B_u, -L ]
         [ M   X  ]   [ I_m  0   ]   [ F ]

    Lt = [ -Xt  Yt ] = [ 0    I_m ] + [ -F ] (zI - A_L)^{-1} [ -L, B_u ]
         [ Mt  -Nt ]   [ I_n  0   ]   [ -I ]

so that block by block

    N = (zI-A_F)^{-1} B      M = I + F (zI-A_F)^{-1} B
    X = -F (zI-A_F)^{-1} L   Y = I - (zI-A_F)^{-1} L
    Nt = (zI-A_L)^{-1} B     Mt = I + (zI-A_L)^{-1} L
    Xt = -F (zI-A_L)^{-1} L  Yt = I - F (zI-A_L)^{-1} B

They satisfy the Bezout identity Lt R = I, that is Yt M - Xt N = I,
Yt X = Xt Y, Mt N = Nt M and Mt Y - Nt X = I, and the normalisation
Yt(inf) = I, Xt(inf) = 0 holds by construction.  For a Youla parameter Q,
with Xq = Xt + Q Mt and Yq = Yt + Q Nt, the two Youla forms are

    [ Y + N Q; X + M Q ] = R [ Q; I ]        [ -Xq, Yq ] = [ I, -Q ] Lt

Published factor tables differ in sign conventions; this one is fixed once
and the mandatory Bezout residual post-check, on the 256 points
:data:`BEZOUT_GRID` of :func:`lti.half_circle`, is the arbiter (a failed
residual is a constructor bug, never a warning).

With the deadbeat choice of L (A + L nilpotent) the left factor is FIR,
which the sparsity-constrained parametrization exploits for exact linear
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BezoutResidualError,
    DimensionMismatchError,
    NonStabilizingGainsError,
    UncontrollableModeError,
)
from .lti import Realization, _bracket, frequency_response, half_circle, make_realization, pbh_test
from .partition import AreaPartition
from .plant import Plant

BEZOUT_TOL = 1e-8
BEZOUT_GRID = half_circle(256)  # the points of every Bezout residual
BEZOUT_CHUNK = 64  # grid points per chunk of verify_bezout's residual

STRATEGY_BLOCK_DEADBEAT = "block_diagonalizing_F_deadbeat_L"
STRATEGY_USER = "user_supplied"


@dataclass(frozen=True)
class DcfBundle:
    """The right and left factors, the generating gains, and the residual
    certificate."""

    right: Realization   # R = [N Y; M X]
    left: Realization    # Lt = [-Xt Yt; Mt -Nt]
    F: np.ndarray
    L: np.ndarray
    plant: Plant
    bezout_residual: float

    @property
    def n_x(self) -> int:
        return self.plant.n_x

    @property
    def n_u(self) -> int:
        return self.plant.n_u

    def observer_pencil(self) -> np.ndarray:
        return self.plant.A + self.L

    def is_deadbeat(self) -> bool:
        """True when A + L is (numerically) nilpotent."""
        A_L = self.observer_pencil()
        n = A_L.shape[0]
        if n == 0:
            return True
        P = np.linalg.matrix_power(A_L, n)
        scale = max(1.0, np.linalg.norm(A_L, 2)) ** n
        return bool(np.linalg.norm(P, 2) <= 1e-8 * scale)


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M)), initial=0.0))


def _char_poly(M: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion."""
    n = M.shape[0]
    c = np.zeros(n + 1)
    c[0] = 1.0
    Mk = np.zeros_like(M)
    for k in range(1, n + 1):
        Mk = M @ Mk + c[k - 1] * M
        c[k] = -np.trace(Mk) / k
    return c


def nilpotent_completion(block: np.ndarray) -> np.ndarray:
    """Replace the last row of ``block`` so the result is nilpotent.

    The characteristic polynomial is affine in the last row (determinants are
    multilinear in rows), so forcing all non-leading coefficients to zero is
    an n-by-n linear solve.  Falls back to the plain shift matrix when that
    system is singular.
    """
    n = block.shape[0]
    if n == 0:
        return block.copy()
    base = block.copy()
    base[-1, :] = 0.0
    c0 = _char_poly(base)[1:]
    cols = np.empty((n, n))
    for j in range(n):
        probe = base.copy()
        probe[-1, j] = 1.0
        cols[:, j] = _char_poly(probe)[1:] - c0
    try:
        r = np.linalg.solve(cols, -c0)
    except np.linalg.LinAlgError:
        r = None
    if r is None or not np.all(np.isfinite(r)) or np.linalg.cond(cols) > 1e12:
        out = np.zeros((n, n))
        out[:-1, 1:] = np.eye(n - 1)
        return out
    out = base
    out[-1, :] = r
    return out


def design_gains(plant: Plant, partition: AreaPartition | None,
                 strategy: str = STRATEGY_BLOCK_DEADBEAT,
                 F=None, L=None) -> tuple[np.ndarray, np.ndarray]:
    """Choose the feedback/injection pair (F, L) for the factorization.

    The default strategy block-diagonalises A + B_u F toward diag(A_ii) and
    places every observer pole at zero with a per-area deadbeat block, so the
    left factor comes out FIR.  Both pencils are verified stable; failures
    raise rather than return unusable gains.
    """
    A, B = plant.A, plant.B_u
    n = plant.n_x
    # the controllers can only allocate poles the inputs can reach
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - 1e-10:
            if not pbh_test(plant.g_u(), lam, "controllable"):
                raise UncontrollableModeError(
                    f"mode at z={lam:.6g} (|z|={abs(lam):.6g}) is not controllable"
                )
    if strategy == STRATEGY_USER:
        if F is None or L is None:
            raise ValueError("user_supplied strategy needs explicit F and L")
        F = np.asarray(F, dtype=float)
        L = np.asarray(L, dtype=float)
    elif strategy == STRATEGY_BLOCK_DEADBEAT:
        if partition is None:
            raise ValueError("the block-diagonalizing strategy needs a partition")
        BtB = B.T @ B
        if np.linalg.cond(BtB) > 1e12:
            raise NonStabilizingGainsError("B_u has (numerically) dependent columns")
        blocks = [A[np.ix_(partition.indices("x", i), partition.indices("x", i))]
                  for i in range(partition.n_areas)]
        import scipy.linalg
        A_diag = scipy.linalg.block_diag(*blocks)
        F = np.linalg.solve(BtB, B.T @ (A_diag - A))
        A_db = scipy.linalg.block_diag(*[nilpotent_completion(blk) for blk in blocks])
        L = A_db - A
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if F.shape != (plant.n_u, n):
        raise DimensionMismatchError(f"F has shape {F.shape}, expected {(plant.n_u, n)}")
    if L.shape != (n, n):
        raise DimensionMismatchError(f"L has shape {L.shape}, expected {(n, n)}")
    rho_f, rho_l = _spectral_radius(A + B @ F), _spectral_radius(A + L)
    if rho_f >= 1.0 - 1e-10:
        raise NonStabilizingGainsError(
            f"A + B_u F has spectral radius {rho_f:.6g}; supply gains explicitly"
        )
    if rho_l >= 1.0 - 1e-10:
        raise NonStabilizingGainsError(f"A + L has spectral radius {rho_l:.6g}")
    return F, L


def _swap(p: int, q: int) -> np.ndarray:
    """[0 I_p; I_q 0], the feedthrough of both factors."""
    return np.block([[np.zeros((p, q)), np.eye(p)], [np.eye(q), np.zeros((q, p))]])


def build_dcf(plant: Plant, F, L) -> DcfBundle:
    """Construct the right and left factors for the given gains and certify
    their Bezout identity on :data:`BEZOUT_GRID`."""
    F = np.asarray(F, dtype=float)
    L = np.asarray(L, dtype=float)
    n, m = plant.n_x, plant.n_u
    if F.shape != (m, n):
        raise DimensionMismatchError(f"F has shape {F.shape}, expected {(m, n)}")
    if L.shape != (n, n):
        raise DimensionMismatchError(f"L has shape {L.shape}, expected {(n, n)}")
    A, B = plant.A, plant.B_u
    A_F = A + B @ F
    A_L = A + L
    if _spectral_radius(A_F) >= 1:
        raise NonStabilizingGainsError("A + B_u F is not stable")
    if _spectral_radius(A_L) >= 1:
        raise NonStabilizingGainsError("A + L is not stable")

    right = make_realization(A_F, np.hstack([B, -L]), np.vstack([np.eye(n), F]), _swap(n, m))
    left = make_realization(A_L, np.hstack([-L, B]), np.vstack([-F, -np.eye(n)]), _swap(m, n))
    residual = _bezout_residual(left, right)
    if residual > BEZOUT_TOL:
        raise BezoutResidualError(
            f"Bezout residual {residual:.3e} exceeds {BEZOUT_TOL:.1e}; "
            "sign-convention or stability bug in the constructor"
        )
    return DcfBundle(right, left, F, L, plant, residual)


def verify_bezout(bundle: DcfBundle) -> float:
    """Largest singular value of Lt R - I over :data:`BEZOUT_GRID` (see
    :func:`_bezout_residual`)."""
    return _bezout_residual(bundle.left, bundle.right)


def _bezout_residual(left: Realization, right: Realization) -> float:
    """Largest singular value of left right - I over :data:`BEZOUT_GRID`, formed in
    chunks of :data:`BEZOUT_CHUNK` points, one resolvent solve per factor
    and point.  It lies between the largest column norm and the Frobenius
    norm, so an SVD is taken only at the points :func:`lti._bracket` keeps;
    the value is that of every point."""
    zs, eye = BEZOUT_GRID, np.eye(left.noutputs)

    def residual(z):
        return frequency_response(left, z) @ frequency_response(right, z) - eye

    col_sq = np.concatenate([(np.abs(residual(zs[lo:lo + BEZOUT_CHUNK])) ** 2).sum(axis=1)
                             for lo in range(0, zs.size, BEZOUT_CHUNK)])
    return float(_bracket(col_sq.T[:, None], lambda f: np.linalg.svd(
        residual(zs[f]), compute_uv=False)[:, 0])[0])
