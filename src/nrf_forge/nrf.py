"""Network realisation function pairs and their structured implementations.

A controller K = (I - Phi)^{-1} Gamma is carried as the pair
(Phi, Gamma): `feedforward` routes other inputs' commands, `feedback` routes
measured states, and the diagonal of the feedforward part is identically
zero so each command can be computed locally.  The pair is generated from a
doubly coprime factorization and a Youla parameter Q through the left
factor Lt = [-Xt Yt; Mt -Nt] of :mod:`dcf`,

    [ -Xq, Yq ] = [ I, -Q ] Lt,  that is  Yq = Yt + Q Nt,  Xq = Xt + Q Mt
    Phi = I - diag(Yq)^{-1} Yq          Gamma = diag(Yq)^{-1} Xq

Each row of [Phi Gamma] is re-realised in an observable companion canonical
form whose input columns inherit the row's sparsity pattern exactly, and the
rows of one area stack block-diagonally into that area's subcontroller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dcf import DcfBundle
from .errors import (
    AlgebraicLoopError,
    CommConstraintError,
    DimensionMismatchError,
    NotStrictlyProperError,
    SingularDiagonalError,
    SparsityInheritanceError,
)
from .lti import (
    ZERO_TOL,
    Realization,
    frequency_response,
    from_gain,
    half_circle,
    impulse_response,
    inverse,
    make_realization,
    minimal,
    negate,
    parallel,
    select_cols,
    select_rows,
    series,
    stack_cols,
)
from .partition import AreaPartition, Neighborhoods, input_areas, readable


@dataclass(frozen=True)
class NrfPair:
    """The pair (feedforward, feedback) plus the maps that generated it."""

    feedforward: Realization  # n_u x n_u, zero diagonal
    feedback: Realization     # n_u x n_x
    yq: Realization
    xq: Realization
    yq_diag: Realization
    kd: Realization           # [feedforward feedback]
    q: Realization
    bundle: DcfBundle

    @property
    def n_u(self) -> int:
        return self.feedforward.noutputs

    @property
    def n_x(self) -> int:
        return self.feedback.ninputs


@dataclass(frozen=True)
class ControllerRow:
    """One controller row in observable companion canonical form."""

    index: int
    A: np.ndarray  # n_r x n_r companion
    B: np.ndarray  # n_r x (n_u + n_x)
    C: np.ndarray  # e_1^T
    D: np.ndarray  # 1 x (n_u + n_x)
    char_coeffs: np.ndarray   # [1, a_1, ..., a_{n_r}]
    numerator_rows: np.ndarray  # K_j stacked, shape (n_r, n_u + n_x)
    zero_columns: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def realization(self) -> Realization:
        return make_realization(self.A, self.B, self.C, self.D)


@dataclass(frozen=True)
class AreaController:
    """Block-diagonal stack of one area's controller rows."""

    area: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    row_orders: tuple[int, ...]
    w0: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def realization(self) -> Realization:
        return make_realization(self.A, self.B, self.C, self.D)


def diagonal_part(R: Realization) -> Realization:
    """Realize diag(elm_11(R), ..., elm_pp(R)) of a square map."""
    p, m = R.shape
    if p != m:
        raise DimensionMismatchError(f"diagonal part needs a square map, got {R.shape}")
    blocks_A, blocks_B, blocks_C, diag_D = [], [], [], []
    for i in range(p):
        entry = minimal(make_realization(R.A, R.B[:, [i]], R.C[[i], :], R.D[[i], [i]].reshape(1, 1)))
        blocks_A.append(entry.A)
        blocks_B.append(entry.B)
        blocks_C.append(entry.C)
        diag_D.append(entry.D[0, 0])
    A = scipy.linalg.block_diag(*blocks_A) if blocks_A else np.zeros((0, 0))
    B = scipy.linalg.block_diag(*blocks_B) if blocks_B else np.zeros((0, p))
    C = scipy.linalg.block_diag(*blocks_C) if blocks_C else np.zeros((p, 0))
    return make_realization(A, B, C, np.diag(diag_D))


def form_nrf_pair(bundle: DcfBundle, q: Realization) -> NrfPair:
    """Form the pair from a bundle and a strictly proper Youla parameter."""
    if q.shape != (bundle.n_u, bundle.n_x):
        raise DimensionMismatchError(
            f"Q has shape {q.shape}, expected {(bundle.n_u, bundle.n_x)}"
        )
    if np.max(np.abs(q.D), initial=0.0) > 1e-10:
        raise NotStrictlyProperError(
            f"Q feedthrough has magnitude {np.max(np.abs(q.D)):.3e}; must be strictly proper"
        )
    n_u, n_x = bundle.n_u, bundle.n_x
    xq_yq = minimal(series(stack_cols(from_gain(np.eye(n_u)), negate(q)), bundle.left))  # [-Xq, Yq]
    xq = negate(select_cols(xq_yq, np.arange(n_x)))
    yq = select_cols(xq_yq, np.arange(n_x, n_x + n_u))
    yq_diag = diagonal_part(yq)
    d_diag = np.diag(yq_diag.D)
    if np.min(np.abs(d_diag)) < 1e-9:
        bad = int(np.argmin(np.abs(d_diag)))
        raise SingularDiagonalError(
            f"diagonal entry {bad + 1} of Yq vanishes at infinity; its inverse is not proper"
        )
    inv_diag = inverse(yq_diag)
    phi = minimal(parallel(from_gain(np.eye(n_u)), negate(series(inv_diag, yq))))
    gamma = minimal(series(inv_diag, xq))
    kd = minimal(stack_cols(phi, gamma))
    return NrfPair(phi, gamma, yq, xq, yq_diag, kd, q, bundle)


def _schur_char_coeffs(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial [1, a_1, ..., a_n] via the real Schur form."""
    n = A.shape[0]
    if n == 0:
        return np.array([1.0])
    T = scipy.linalg.schur(A, output="real")[0]
    coeffs = np.array([1.0])
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 0.0:
            tr = T[i, i] + T[i + 1, i + 1]
            det = T[i, i] * T[i + 1, i + 1] - T[i, i + 1] * T[i + 1, i]
            coeffs = np.convolve(coeffs, [1.0, -tr, det])
            i += 2
        else:
            coeffs = np.convolve(coeffs, [1.0, -T[i, i]])
            i += 1
    return coeffs


def extract_row(kd: Realization, row: int) -> ControllerRow:
    """Observable companion canonical realization of one controller row.

    The minimal row realization is reduced, its characteristic polynomial is
    read off the real Schur form, and the numerator coefficient rows follow
    from the Markov parameters.  Columns at entries that test identically
    zero on 64 points of :func:`lti.half_circle` (:func:`zero_columns`) are
    zeroed exactly, so downstream message passing can rely on structure
    rather than magnitudes.
    """
    if not 0 <= row < kd.noutputs:
        raise DimensionMismatchError(f"row {row} out of range for {kd.noutputs} outputs")
    r_min = minimal(select_rows(kd, [row]))
    n_r = r_min.order
    width = kd.ninputs
    zero_cols = zero_columns(frequency_response(select_rows(kd, [row]), half_circle(64))[:, 0, :])
    D_row = r_min.D.copy()
    D_row[0, list(zero_cols)] = 0.0
    if n_r == 0:
        return ControllerRow(row, np.zeros((0, 0)), np.zeros((0, width)),
                             np.zeros((1, 0)), D_row, np.array([1.0]),
                             np.zeros((0, width)), zero_cols)
    coeffs = _schur_char_coeffs(r_min.A)  # [1, a_1, ..., a_{n_r}]
    markov = impulse_response(r_min, n_r + 1)[1:, 0, :]  # m_1..m_{n_r}, rows of width
    K = np.zeros((n_r, width))
    for j in range(1, n_r + 1):
        # K_j = sum_{t=1..j} a_{j-t} m_t   (a_0 = 1)
        for t in range(1, j + 1):
            K[j - 1] += coeffs[j - t] * markov[t - 1]
    A_r = np.zeros((n_r, n_r))
    A_r[:, 0] = -coeffs[1:]
    A_r[:-1, 1:] = np.eye(n_r - 1)
    B_r = K.copy()
    C_r = np.zeros((1, n_r))
    C_r[0, 0] = 1.0
    B_r[:, list(zero_cols)] = 0.0
    return ControllerRow(row, A_r, B_r, C_r, D_row, coeffs, K, zero_cols)


def zero_columns(resp: np.ndarray) -> tuple[int, ...]:
    """Columns of a row's response ``resp`` (G, m) that test identically zero."""
    col_max = np.max(np.abs(resp), axis=0)
    return tuple(int(j) for j in np.flatnonzero(col_max <= ZERO_TOL))


def verify_sparsity_inheritance(index: int, row: Realization, zero_cols) -> None:
    """Check that the B/D columns of controller row ``index`` are exactly
    zero at ``zero_cols``, the :func:`zero_columns` of that row of kd."""
    offending = [(index, j) for j in zero_cols
                 if np.any(row.B[:, j] != 0.0) or np.any(row.D[:, j] != 0.0)]
    if offending:
        raise SparsityInheritanceError(offending)


def stack_area(rows, partition: AreaPartition, area: int) -> AreaController:
    """Assemble one area's subcontroller from its rows, block-diagonally.

    Rows must be exactly the area's input rows in ascending order; constant
    rows contribute empty state blocks.
    """
    expected = list(partition.indices("u", area))
    got = [r.index for r in rows]
    if got != expected:
        raise DimensionMismatchError(
            f"area {area} needs rows {expected}, got {got}"
        )
    A, B, C, D = _diag_stack(rows)
    return AreaController(area, A, B, C, D, tuple(r.order for r in rows), np.zeros(A.shape[0]))


def _diag_stack(parts):
    """(A, B, C, D) of realizations that share one input: A and C
    block-diagonal, B and D stacked by rows."""
    return (scipy.linalg.block_diag(*[p.A for p in parts]), np.vstack([p.B for p in parts]),
            scipy.linalg.block_diag(*[p.C for p in parts]), np.vstack([p.D for p in parts]))


def bank_from_pair(pair: NrfPair, partition: AreaPartition):
    """Extract all rows and stack them into per-area subcontrollers."""
    rows = [extract_row(pair.kd, ell) for ell in range(pair.n_u)]
    bank = []
    for i in range(partition.n_areas):
        area_rows = [rows[ell] for ell in partition.indices("u", i)]
        bank.append(stack_area(area_rows, partition, i))
    return rows, bank


def stacked_bank(bank) -> Realization:
    """Global controller realization diag-stacked over areas (shared input)."""
    return make_realization(*_diag_stack(bank))


def _check_no_algebraic_loop(D: np.ndarray, n_u: int) -> None:
    if D.size and np.any(D[:, :n_u] != 0.0):
        raise AlgebraicLoopError(
            "controller feedthrough on the command-feedforward columns is "
            "nonzero; the loop has no causal execution order"
        )


def loop_matrix(plant, ctrl: Realization) -> tuple[np.ndarray, np.ndarray]:
    """(A_cl, C_uf) of the plant closed by the stacked bank ``ctrl`` (inputs
    [u_f + beta_f; x + beta_x]) over s = [x; w]: u_f = C_uf s + D_x beta_x
    with C_uf = [D_x, C_w], and

        A_cl = [ A + B_u D_x       B_u C_w         ]
               [ B_wx + B_wu D_x   A_w + B_wu C_w  ]

    A bank that feeds a command straight through has no causal order and
    raises :class:`AlgebraicLoopError`.
    """
    n_u = plant.n_u
    _check_no_algebraic_loop(ctrl.D, n_u)
    C_uf = np.hstack([ctrl.D[:, n_u:], ctrl.C])
    B_s = np.vstack([plant.B_u, ctrl.B[:, :n_u]])   # where u_f enters s
    open_loop = np.block([[plant.A, np.zeros((plant.n_x, ctrl.order))], [ctrl.B[:, n_u:], ctrl.A]])
    return open_loop + B_s @ C_uf, C_uf


def check_comm_constraints(bank, partition: AreaPartition, nb: Neighborhoods) -> None:
    """Verify each area's subcontroller ignores variables outside its sets.

    The test is exact: area i reads source area j when any B or D column
    that carries one of j's signals holds a nonzero entry.  Every such pair
    outside the communication map (:func:`partition.readable`) is listed,
    over all areas at once, in one :class:`CommConstraintError`.
    """
    source, may = input_areas(partition), readable(partition, nb)
    violations = []
    for i, ctrl in enumerate(bank):
        reads = np.any(ctrl.B, axis=0) | np.any(ctrl.D, axis=0)
        outside = reads & ~may[partition.offset("u", i)]
        violations += [(i, int(j)) for j in np.unique(source[outside])]
    if violations:
        raise CommConstraintError(violations)
