"""Networked plant carrier: x+ = A x + B_u u + B_d d, full state measured."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .lti import Realization, make_realization


@dataclass(frozen=True)
class Plant:
    """State equation data of the controlled network.

    The measured output is the state itself (C = I, no feedthrough), which is
    the class of systems this toolkit certifies.
    """

    A: np.ndarray
    B_u: np.ndarray
    B_d: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B_u = np.asarray(self.B_u, dtype=float)
        B_d = np.asarray(self.B_d, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        if B_u.ndim != 2 or B_u.shape[0] != A.shape[0]:
            raise DimensionMismatchError(f"B_u rows {B_u.shape} do not match A {A.shape}")
        if B_d.ndim != 2 or B_d.shape[0] != A.shape[0]:
            raise DimensionMismatchError(f"B_d rows {B_d.shape} do not match A {A.shape}")
        if not all(np.isfinite(M).all() for M in (A, B_u, B_d)):
            raise ValueError("plant matrices hold NaN or inf entries")
        for M in (A, B_u, B_d):
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B_u", B_u)
        object.__setattr__(self, "B_d", B_d)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B_u.shape[1]

    @property
    def n_d(self) -> int:
        return self.B_d.shape[1]

    def g_u(self) -> Realization:
        """Map from commanded inputs to states: (zI - A)^{-1} B_u."""
        return make_realization(self.A, self.B_u, np.eye(self.n_x), np.zeros((self.n_x, self.n_u)))
