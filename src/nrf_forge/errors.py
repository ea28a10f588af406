"""Exception types shared across the toolkit."""


class DimensionMismatchError(ValueError):
    """Two state-space objects (or a vector and a map) are not conformable."""


class NearSingularResolventError(ValueError):
    """Evaluation point is (numerically) an eigenvalue of the state matrix."""

    def __init__(self, z, min_singular_value):
        self.z = z
        self.min_singular_value = min_singular_value
        super().__init__(
            f"resolvent (zI - A) nearly singular at z={z}: "
            f"min singular value {min_singular_value:.3e}"
        )


class NonInvertibleFeedthroughError(ValueError):
    """The feedthrough matrix is singular, so no proper inverse exists."""


class UnboundedTfmError(ValueError):
    """H-infinity norm requested for a map with poles outside the good region."""


class UncontrollableModeError(ValueError):
    """The plant has an unstable mode that the inputs cannot reach."""


class NonStabilizingGainsError(ValueError):
    """A candidate gain pair fails to stabilise the required pencils."""


class BezoutResidualError(ValueError):
    """Coprime factor construction failed its Bezout identity post-check."""


class NotStrictlyProperError(ValueError):
    """A Youla parameter (or similar) has a nonzero feedthrough."""


class SingularDiagonalError(ValueError):
    """A diagonal entry vanishes at infinity, so its inverse is not proper."""


class SparsityInheritanceError(ValueError):
    """A canonical row keeps nonzero input columns at structurally zero entries."""

    def __init__(self, entries):
        self.entries = list(entries)
        super().__init__(f"sparsity not inherited at (row, column) pairs: {self.entries}")


class CommConstraintError(ValueError):
    """A controller bank reads signals from outside its communication sets.
    ``pairs`` are 0-based; the message numbers areas from 1, as reports do."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__("communication constraint violated for (area, source) pairs: "
                         f"{[(i + 1, j + 1) for i, j in self.pairs]}")


class AlgebraicLoopError(ValueError):
    """Controller feedthrough closes an instantaneous loop in the simulation."""


class NonFirDcfError(ValueError):
    """The coefficient-matching route needs finite impulse response factors."""


class NonzeroFeedthroughError(ValueError):
    """A prediction model came out with a nonzero feedthrough block."""
