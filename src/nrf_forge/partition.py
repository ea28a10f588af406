"""Network area partitioning, index sets and communication sets.

Index sets are contiguous, ascending and cover the global index range
exactly; plants whose natural ordering interleaves areas must be permuted
before entering the toolkit (the CLI offers a documented pre-permutation
helper).  Internally everything is 0-based; file formats and reports are
1-based.  :func:`readable` states which input columns each controller row
may read; the parametrization's pattern, the bank checks, the distributed
simulation and the bank manifest all take it from there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

_KINDS = ("x", "u", "w")


@dataclass(frozen=True)
class AreaPartition:
    """Per-area sizes and offsets for states, inputs and controller states.

    Controller-state ('w') sizes are unknown until the controller rows have
    been realised; :meth:`with_w_sizes` attaches them without mutating the
    original object.
    """

    x_sizes: tuple[int, ...]
    u_sizes: tuple[int, ...]
    w_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.x_sizes) != len(self.u_sizes):
            raise DimensionMismatchError("x and u size lists must have equal length")
        if len(self.x_sizes) < 2:
            raise ValueError(f"need N > 1 areas, got N = {len(self.x_sizes)}")
        if any(s <= 0 for s in self.x_sizes + self.u_sizes):
            raise ValueError("all area sizes must be positive")
        if self.w_sizes is not None:
            if len(self.w_sizes) != len(self.x_sizes):
                raise DimensionMismatchError("w size list must match the number of areas")
            if any(s < 0 for s in self.w_sizes):
                raise ValueError("controller state sizes must be nonnegative")

    @property
    def n_areas(self) -> int:
        return len(self.x_sizes)

    @property
    def n_x(self) -> int:
        return sum(self.x_sizes)

    @property
    def n_u(self) -> int:
        return sum(self.u_sizes)

    @property
    def n_w(self) -> int:
        return sum(self._sizes("w"))

    def with_w_sizes(self, w_sizes) -> "AreaPartition":
        return AreaPartition(self.x_sizes, self.u_sizes, tuple(int(s) for s in w_sizes))

    def _sizes(self, kind: str):
        if kind == "x":
            return self.x_sizes
        if kind == "u":
            return self.u_sizes
        if kind == "w":
            if self.w_sizes is None:
                raise ValueError("controller state sizes not set; call with_w_sizes first")
            return self.w_sizes
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")

    def size(self, kind: str, i: int) -> int:
        return self._sizes(kind)[self._check_area(i)]

    def offset(self, kind: str, i: int) -> int:
        return sum(self._sizes(kind)[:self._check_area(i)])

    def indices(self, kind: str, i: int) -> np.ndarray:
        """0-based global indices of area ``i``'s variables of one kind."""
        off = self.offset(kind, i)
        return np.arange(off, off + self.size(kind, i))

    def _check_area(self, i: int) -> int:
        if not 0 <= i < self.n_areas:
            raise IndexError(f"area index {i} out of range for N = {self.n_areas}")
        return i


def build_partition(sizes) -> AreaPartition:
    """Create a partition from a list of (n_xi, n_ui) pairs."""
    sizes = list(sizes)
    return AreaPartition(tuple(int(s[0]) for s in sizes), tuple(int(s[1]) for s in sizes))


@dataclass(frozen=True)
class Neighborhoods:
    """For each area, the set of areas allowed to send it information; each
    set must hold its own area and only areas 0 to N - 1, N sets in all."""

    sets: tuple[frozenset, ...]

    def __post_init__(self):
        sets = tuple(frozenset(int(j) for j in s) for s in self.sets)
        for i, s in enumerate(sets):
            if i not in s:
                raise ValueError(f"area {i} is missing from its own neighborhood")
            bad = [j for j in s if not 0 <= j < len(sets)]
            if bad:
                raise ValueError(f"neighborhood of area {i} has out-of-range members {sorted(bad)}")
        object.__setattr__(self, "sets", sets)

    @property
    def n_areas(self) -> int:
        return len(self.sets)

    def of(self, i: int) -> frozenset:
        return self.sets[i]

    @classmethod
    def complete(cls, n: int) -> "Neighborhoods":
        return cls(tuple(frozenset(range(n)) for _ in range(n)))


def input_areas(partition: AreaPartition) -> np.ndarray:
    """The area owning each controller input column: commands, then states."""
    return np.repeat(np.tile(np.arange(partition.n_areas), 2), partition.u_sizes + partition.x_sizes)


def readable(partition: AreaPartition, nb: Neighborhoods) -> np.ndarray:
    """The communication map: (n_u, n_u + n_x) booleans, True where the
    controller row may read the input column, that is where the column's
    area is in the set of the row's area."""
    if nb.n_areas != partition.n_areas:
        raise DimensionMismatchError(f"{nb.n_areas} neighborhood sets for {partition.n_areas} areas")
    allowed = np.array([[j in s for j in range(nb.n_areas)] for s in nb.sets])
    areas = input_areas(partition)
    return allowed[np.ix_(areas[:partition.n_u], areas)]
