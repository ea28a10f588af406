"""Doubly coprime factorization of the input-to-state map over the unit disc.

Given gains F (state feedback) and L (output injection; the full state is
measured, so L acts directly on the state) with A + B_u F and A + L stable,
the eight factors are realised by the classic observer/feedback formulas

    N = (zI-A_F)^{-1} B      M = I + F (zI-A_F)^{-1} B
    X = -F (zI-A_F)^{-1} L   Y = I - (zI-A_F)^{-1} L
    Nt = (zI-A_L)^{-1} B     Mt = I + (zI-A_L)^{-1} L
    Xt = -F (zI-A_L)^{-1} L  Yt = I - F (zI-A_L)^{-1} B

with A_F = A + B_u F and A_L = A + L.  They satisfy the Bezout identity

    [ Yt -Xt ] [ M X ]   [ I  0 ]
    [ -Nt Mt ] [ N Y ] = [ 0  I ]

and the normalisation Yt(inf) = I, Xt(inf) = 0.  Published factor tables
differ in sign conventions; this one is fixed once and the mandatory Bezout
residual post-check is the arbiter (a failed residual is a constructor bug,
never a warning).

With the deadbeat choice of L (A + L nilpotent) the four left factors are
FIR, which the sparsity-constrained parametrization exploits for exact
linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BezoutResidualError,
    DimensionMismatchError,
    NonStabilizingGainsError,
    NormalizationError,
    UncontrollableModeError,
)
from .lti import (
    FrequencyGrid,
    Realization,
    _bracket,
    _resolvent,
    fir_support,
    make_realization,
    pbh_test,
    spectral_radius_raw,
)
from .partition import AreaPartition
from .plant import Plant

BEZOUT_TOL = 1e-8
BEZOUT_CHUNK = 64  # grid points per chunk of verify_bezout's residual

STRATEGY_BLOCK_DEADBEAT = "block_diagonalizing_F_deadbeat_L"
STRATEGY_USER = "user_supplied"


@dataclass(frozen=True)
class DcfBundle:
    """Eight coprime factors, the generating gains, and the residual certificate."""

    N: Realization
    M: Realization
    X: Realization
    Y: Realization
    Nt: Realization
    Mt: Realization
    Xt: Realization
    Yt: Realization
    F: np.ndarray
    L: np.ndarray
    plant: Plant
    bezout_residual: float
    grid_size: int
    fir_orders: dict | None = None

    @property
    def n_x(self) -> int:
        return self.plant.n_x

    @property
    def n_u(self) -> int:
        return self.plant.n_u

    def factors(self) -> dict:
        return {"N": self.N, "M": self.M, "X": self.X, "Y": self.Y,
                "Nt": self.Nt, "Mt": self.Mt, "Xt": self.Xt, "Yt": self.Yt}

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
    left factors come out FIR.  Both pencils are verified stable; failures
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
    rho_f = spectral_radius_raw(make_realization(A + B @ F, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0))))
    rho_l = spectral_radius_raw(make_realization(A + L, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0))))
    if rho_f >= 1.0 - 1e-10:
        raise NonStabilizingGainsError(
            f"A + B_u F has spectral radius {rho_f:.6g}; supply gains explicitly"
        )
    if rho_l >= 1.0 - 1e-10:
        raise NonStabilizingGainsError(f"A + L has spectral radius {rho_l:.6g}")
    return F, L


def build_dcf(plant: Plant, F, L, grid_size: int = 512) -> DcfBundle:
    """Construct and certify the eight-factor bundle for the given gains."""
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
    if spectral_radius_raw(make_realization(A_F, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))) >= 1:
        raise NonStabilizingGainsError("A + B_u F is not stable")
    if spectral_radius_raw(make_realization(A_L, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))) >= 1:
        raise NonStabilizingGainsError("A + L is not stable")

    I_n, I_m = np.eye(n), np.eye(m)
    Zmn = np.zeros((m, n))
    N = make_realization(A_F, B, I_n, np.zeros((n, m)))
    M = make_realization(A_F, B, F, I_m)
    X = make_realization(A_F, L, -F, Zmn)
    Y = make_realization(A_F, L, -I_n, I_n)
    Nt = make_realization(A_L, B, I_n, np.zeros((n, m)))
    Mt = make_realization(A_L, L, I_n, I_n)
    Xt = make_realization(A_L, L, -F, Zmn)
    Yt = make_realization(A_L, B, -F, I_m)

    # normalisation at infinity is structural here, but check anyway
    if not np.allclose(Yt.D, I_m) or not np.allclose(Xt.D, 0.0):
        raise NormalizationError("left complements violate Yt(inf)=I, Xt(inf)=0")
    if np.any(N.D) or np.any(Nt.D):
        raise NormalizationError("numerator factors must be strictly proper")

    bundle = DcfBundle(N, M, X, Y, Nt, Mt, Xt, Yt, F, L, plant,
                       bezout_residual=np.inf, grid_size=grid_size)
    residual = verify_bezout(bundle, FrequencyGrid.uniform(grid_size))
    if residual > BEZOUT_TOL:
        raise BezoutResidualError(
            f"Bezout residual {residual:.3e} exceeds {BEZOUT_TOL:.1e}; "
            "sign-convention or stability bug in the constructor"
        )
    fir_orders = None
    if bundle.is_deadbeat():
        fir_orders = {}
        for name, fac in bundle.factors().items():
            fir_orders[name] = fir_support(fac, max_len=n)
    return DcfBundle(N, M, X, Y, Nt, Mt, Xt, Yt, F, L, plant,
                     bezout_residual=residual, grid_size=grid_size,
                     fir_orders=fir_orders)


def _factor_values(bundle: DcfBundle, zs: np.ndarray) -> dict:
    """Every factor's values at ``zs``.  Factors with exactly equal (A, B)
    share one resolvent solve: four for (N, M), (X, Y), (Nt, Yt), (Mt, Xt)."""
    solved, vals = [], {}
    for name, fac in bundle.factors().items():
        X = next((X for A, B, X in solved
                  if np.array_equal(A, fac.A) and np.array_equal(B, fac.B)), None)
        if X is None:
            X = _resolvent(fac.A, fac.B, zs)
            solved.append((fac.A, fac.B, X))
        vals[name] = fac.C @ X + fac.D
    return vals


def verify_bezout(bundle: DcfBundle, grid: FrequencyGrid) -> float:
    """Largest singular value of (left block) (right block) - I over the grid,
    formed in chunks of :data:`BEZOUT_CHUNK` points.  It lies between the
    largest column norm and the Frobenius norm, so an SVD is taken only at
    the points :func:`lti._bracket` keeps; the value is that of every point."""
    n, m = bundle.n_x, bundle.n_u
    zs = grid.points

    def residual(z):
        vals = _factor_values(bundle, z)
        left = np.empty((z.size, m + n, m + n), dtype=complex)
        right = np.empty((z.size, m + n, m + n), dtype=complex)
        left[:, :m, :m] = vals["Yt"]
        left[:, :m, m:] = -vals["Xt"]
        left[:, m:, :m] = -vals["Nt"]
        left[:, m:, m:] = vals["Mt"]
        right[:, :m, :m] = vals["M"]
        right[:, :m, m:] = vals["X"]
        right[:, m:, :m] = vals["N"]
        right[:, m:, m:] = vals["Y"]
        return left @ right - np.eye(m + n)

    col_sq = np.concatenate([(np.abs(residual(zs[lo:lo + BEZOUT_CHUNK])) ** 2).sum(axis=1)
                             for lo in range(0, zs.size, BEZOUT_CHUNK)])
    return float(_bracket(col_sq.T[:, None], lambda f: np.linalg.svd(
        residual(zs[f]), compute_uv=False)[:, 0])[0])
