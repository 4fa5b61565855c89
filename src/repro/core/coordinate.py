"""Euclidean coordinate algebra for network coordinates.

The paper embeds hosts in a low-dimensional Euclidean metric space (three
dimensions in all reported experiments).  Vivaldi can optionally augment the
space with a *height* term that models the latency of a host's access link
(Dabek et al., SIGCOMM 2004): the distance between hosts ``i`` and ``j``
becomes ``||x_i - x_j|| + h_i + h_j``.  The paper itself uses a pure metric
space, but the abstraction here supports both so the height ablation can be
run.

:class:`Coordinate` is an immutable value object.  All arithmetic returns a
new instance; this keeps history windows (Section V-A) trivially correct
because stored coordinates can never be mutated in place.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Union

__all__ = ["Coordinate", "centroid", "sequential_sum"]

_Number = Union[int, float]


def _as_tuple(values: Iterable[_Number]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def sequential_sum(values: Iterable[float]) -> float:
    """``((v0 + v1) + v2) + ...``: one rounding per addition, left to right.

    Builtin ``sum()`` is not this function on every interpreter: CPython
    >= 3.12 evaluates float sums with Neumaier compensation, which moves
    the last bit of roughly one three-term sum of squares in ten.  The
    array kernels this module is the oracle for (the vectorized backend,
    the dense index, the vp-tree overlay) accumulate column by column in
    exactly this order, so every scalar sum a byte-identity contract
    rests on goes through here instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True, slots=True)
class Coordinate:
    """A point in the Vivaldi coordinate space.

    Parameters
    ----------
    components:
        The Euclidean components, in milliseconds.  The space is
        dimensionless in principle, but because coordinate distance predicts
        round-trip latency the natural unit is milliseconds.
    height:
        Optional non-negative height term (milliseconds).  ``0.0`` yields a
        pure metric space, matching the paper's configuration.
    """

    components: tuple[float, ...]
    height: float = 0.0

    def __init__(self, components: Iterable[_Number], height: _Number = 0.0) -> None:
        object.__setattr__(self, "components", _as_tuple(components))
        object.__setattr__(self, "height", float(height))
        if not self.components:
            raise ValueError("a coordinate needs at least one dimension")
        if self.height < 0.0:
            raise ValueError(f"height must be non-negative, got {self.height}")
        for value in self.components:
            if not math.isfinite(value):
                raise ValueError(f"coordinate components must be finite, got {value}")
        if not math.isfinite(self.height):
            raise ValueError(f"height must be finite, got {self.height}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def origin(cls, dimensions: int, *, height: float = 0.0) -> "Coordinate":
        """Return the origin of a ``dimensions``-dimensional space."""
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        return cls((0.0,) * dimensions, height)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Number of Euclidean dimensions (excluding the height term)."""
        return len(self.components)

    def magnitude(self) -> float:
        """Euclidean norm of the component vector (ignores height)."""
        return math.sqrt(sequential_sum([c * c for c in self.components]))

    def is_origin(self) -> bool:
        """True when every component (and the height) is exactly zero."""
        return self.height == 0.0 and all(c == 0.0 for c in self.components)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Coordinate") -> None:
        if self.dimensions != other.dimensions:
            raise ValueError(
                "coordinate dimensionality mismatch: "
                f"{self.dimensions} vs {other.dimensions}"
            )

    def __add__(self, other: "Coordinate") -> "Coordinate":
        self._check_compatible(other)
        return Coordinate(
            (a + b for a, b in zip(self.components, other.components)),
            max(0.0, self.height + other.height),
        )

    def __sub__(self, other: "Coordinate") -> "Coordinate":
        self._check_compatible(other)
        return Coordinate(
            (a - b for a, b in zip(self.components, other.components)),
            max(0.0, self.height - other.height),
        )

    def scale(self, factor: float) -> "Coordinate":
        """Return this coordinate scaled by ``factor`` (height included)."""
        return Coordinate(
            (c * factor for c in self.components),
            max(0.0, self.height * factor),
        )

    def displaced(self, direction: "Coordinate", magnitude: float) -> "Coordinate":
        """Move ``magnitude`` milliseconds along ``direction`` (a unit vector)."""
        self._check_compatible(direction)
        return Coordinate(
            (a + magnitude * b for a, b in zip(self.components, direction.components)),
            self.height,
        )

    def with_height(self, height: float) -> "Coordinate":
        """Return a copy with the height replaced."""
        return Coordinate(self.components, height)

    # ------------------------------------------------------------------
    # Metric
    # ------------------------------------------------------------------
    def euclidean_distance(self, other: "Coordinate") -> float:
        """Plain Euclidean distance between component vectors.

        Squares are spelled ``d * d`` rather than ``d ** 2``: libm's
        ``pow`` is not guaranteed correctly rounded for exponent 2 on
        every platform, while IEEE multiplication is -- and the array
        implementations this class is the oracle for (the vectorized
        backend, the dense index) square by multiplication, so anything
        else would leak one-ulp divergences into the byte-identity
        contracts.  The squares are added left to right for the same
        reason (see :func:`sequential_sum`; the loop is spelled out here
        because this is the hottest scalar function in the tree and a
        call plus a list costs it ~15%).
        """
        self._check_compatible(other)
        acc = 0.0
        for a, b in zip(self.components, other.components):
            delta = a - b
            acc += delta * delta
        return math.sqrt(acc)

    def distance(self, other: "Coordinate") -> float:
        """Predicted round-trip latency: ``||x_i - x_j|| + h_i + h_j``."""
        return self.euclidean_distance(other) + self.height + other.height

    def unit_vector_toward(
        self, other: "Coordinate", rng_direction: Sequence[float] | None = None
    ) -> "Coordinate":
        """Unit vector pointing from ``other`` toward ``self``.

        Vivaldi's update (Figure 1, line 6) needs the unit vector
        ``u(x_i - x_j)``.  When two coordinates coincide (e.g. both are still
        at the origin during bootstrap) the direction is undefined; the
        original implementation picks a random direction.  Callers supply
        ``rng_direction`` for that case so this module stays free of global
        randomness.
        """
        self._check_compatible(other)
        delta = tuple(a - b for a, b in zip(self.components, other.components))
        norm = math.sqrt(sequential_sum([d * d for d in delta]))
        if norm > 0.0:
            return Coordinate((d / norm for d in delta), 0.0)
        if rng_direction is None:
            # Deterministic fallback: push along the first axis.
            fallback = [0.0] * self.dimensions
            fallback[0] = 1.0
            return Coordinate(fallback, 0.0)
        if len(rng_direction) != self.dimensions:
            raise ValueError(
                "rng_direction must have the same dimensionality as the coordinate"
            )
        norm = math.sqrt(sequential_sum([d * d for d in rng_direction]))
        if norm == 0.0:
            raise ValueError("rng_direction must be a non-zero vector")
        return Coordinate((d / norm for d in rng_direction), 0.0)

    # ------------------------------------------------------------------
    # Conversion helpers
    # ------------------------------------------------------------------
    def as_list(self) -> list[float]:
        """Components as a mutable list (height excluded)."""
        return list(self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, index: int) -> float:
        return self.components[index]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        comps = ", ".join(f"{c:.2f}" for c in self.components)
        if self.height:
            return f"Coordinate(({comps}), h={self.height:.2f})"
        return f"Coordinate(({comps}))"


def centroid(coordinates: Sequence[Coordinate]) -> Coordinate:
    """Arithmetic mean of a non-empty collection of coordinates.

    Used by the RELATIVE and ENERGY heuristics (Section V-B), which set the
    application coordinate to the centroid of the current window ``W_c``.
    Heights are averaged as well.
    """
    if not coordinates:
        raise ValueError("cannot take the centroid of an empty collection")
    dims = coordinates[0].dimensions
    sums = [0.0] * dims
    height_sum = 0.0
    for coord in coordinates:
        if coord.dimensions != dims:
            raise ValueError("all coordinates must share the same dimensionality")
        for i, value in enumerate(coord.components):
            sums[i] += value
        height_sum += coord.height
    n = float(len(coordinates))
    return Coordinate((s / n for s in sums), height_sum / n)
