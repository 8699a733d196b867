"""Reaction kinetics and burning-rate striation profiles.

Temperature enters the model through a nondecreasing rate law ``K(u)`` that
vanishes (or is cut off at a positive floor) in the cold limit; the
heterogeneity of the medium enters through a periodic burning-rate profile
``R(y)`` on the unit cell.

A rate law supplies ``evaluate``, ``supremum`` and ``floored_integral``, the
integral of ``max(K, floor)`` over the unit temperature interval in closed form.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

__all__ = [
    "KineticsModel",
    "ArrheniusKinetics",
    "ConstantKinetics",
    "TabulatedKinetics",
    "TruncatedKinetics",
    "truncate_kinetics",
    "CombustionRate",
    "PiecewiseConstantRate",
    "SmoothRate",
]


def _as_temperature(u):
    """Validate and convert a temperature argument (scalar or array)."""
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("temperature must be finite")
    if np.any(arr < 0.0):
        raise ValueError("temperature must be nonnegative")
    return arr


def _match_shape(out, u):
    return float(out) if np.ndim(u) == 0 else out


class KineticsModel(ABC):
    """Nondecreasing reaction-rate law on the nonnegative temperature axis.

    Implementations guarantee ``0 <= evaluate(u) <= supremum`` and that
    ``evaluate`` is nondecreasing in ``u``.  Negative or non-finite
    temperatures raise ``ValueError``.  ``floored_integral`` is exact (a
    closed form, not a quadrature); the solver sizes its grid from it.
    """

    @abstractmethod
    def evaluate(self, u):
        """Reaction rate at temperature ``u`` (scalar or ndarray)."""

    @property
    @abstractmethod
    def supremum(self) -> float:
        """Least upper bound of the rate over all temperatures."""

    @abstractmethod
    def floored_integral(self, floor: float) -> float:
        """Exact integral of ``max(evaluate(u), floor)`` over [0, 1], floor >= 0."""

    def unit_integral(self) -> float:
        """Integral of the rate law over the unit temperature interval."""
        return self.floored_integral(0.0)


@dataclass(frozen=True)
class ArrheniusKinetics(KineticsModel):
    """Arrhenius law ``prefactor * exp(-activation / u)``, zero at ``u = 0``.

    Attributes:
        prefactor: multiplicative constant, must be positive.
        activation: activation temperature, must be positive.
    """

    prefactor: float
    activation: float

    def __post_init__(self):
        if not (np.isfinite(self.prefactor) and self.prefactor > 0.0):
            raise ValueError("prefactor must be positive and finite")
        if not (np.isfinite(self.activation) and self.activation > 0.0):
            raise ValueError("activation must be positive and finite")

    def evaluate(self, u):
        arr = _as_temperature(u)
        # -activation/0 -> -inf -> exp -> exactly 0, so the cold limit needs
        # no special casing beyond silencing the division warning.
        with np.errstate(divide="ignore"):
            out = self.prefactor * np.exp(-self.activation / arr)
        return _match_shape(out, u)

    @property
    def supremum(self) -> float:
        return self.prefactor

    def floored_integral(self, floor: float) -> float:
        if floor >= self.evaluate(1.0):
            return floor
        # The law exceeds the floor above the crossing ``a``, and there
        # d/du [u E2(B/u)] = exp(-B/u) integrates it exactly.
        tail = special.expn(2, self.activation)
        if floor <= 0.0:
            return float(self.prefactor * tail)
        a = self.activation / np.log(self.prefactor / floor)
        tail -= a * special.expn(2, self.activation / a)
        return float(floor * a + self.prefactor * tail)


@dataclass(frozen=True)
class ConstantKinetics(KineticsModel):
    """Temperature-independent rate law."""

    value: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise ValueError("value must be positive and finite")

    def evaluate(self, u):
        arr = _as_temperature(u)
        return _match_shape(np.full_like(arr, self.value), u)

    @property
    def supremum(self) -> float:
        return self.value

    def floored_integral(self, floor: float) -> float:
        return max(self.value, floor)


@dataclass(frozen=True)
class TabulatedKinetics(KineticsModel):
    """Piecewise-linear rate law through ``(u, K)`` sample points.

    The table must have strictly increasing nonnegative temperatures and
    nondecreasing nonnegative rates; evaluation extends by constants on both
    sides of the table.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((float(u), float(k)) for u, k in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("table needs at least two points")
        us = np.array([p[0] for p in pts])
        ks = np.array([p[1] for p in pts])
        if not np.all(np.isfinite(us)) or not np.all(np.isfinite(ks)):
            raise ValueError("table entries must be finite")
        if us[0] < 0.0 or np.any(np.diff(us) <= 0.0):
            raise ValueError("temperatures must be nonnegative and strictly increasing")
        if np.any(ks < 0.0) or np.any(np.diff(ks) < 0.0):
            raise ValueError("rates must be nonnegative and nondecreasing")
        if ks[-1] <= 0.0:
            raise ValueError("rate law must not vanish identically")

    @cached_property
    def _table(self):
        pts = np.asarray(self.points, dtype=float)
        return pts[:, 0], pts[:, 1]

    def evaluate(self, u):
        arr = _as_temperature(u)
        us, ks = self._table
        return _match_shape(np.interp(arr, us, ks), u)

    @property
    def supremum(self) -> float:
        return self.points[-1][1]

    def floored_integral(self, floor: float) -> float:
        # max(K, floor) is linear between the table points and the crossing,
        # so the trapezoid rule on those knots is exact.
        us, ks = self._table
        knots = np.append(us, [0.0, 1.0, np.interp(floor, ks, us)])
        knots = np.clip(np.sort(knots), 0.0, 1.0)
        values = np.maximum(np.interp(knots, us, ks), floor)
        return float(np.trapezoid(values, knots))


@dataclass(frozen=True)
class TruncatedKinetics(KineticsModel):
    """Rate law cut off from below: ``max(base(u), floor)``."""

    base: KineticsModel
    floor: float

    def __post_init__(self):
        if not isinstance(self.base, KineticsModel):
            raise ValueError("base must be a kinetics model")
        if not (np.isfinite(self.floor) and self.floor > 0.0):
            raise ValueError("floor must be positive and finite")

    def evaluate(self, u):
        return _match_shape(np.maximum(self.base.evaluate(u), self.floor), u)

    @property
    def supremum(self) -> float:
        return max(self.base.supremum, self.floor)

    def floored_integral(self, floor: float) -> float:
        return self.base.floored_integral(max(self.floor, floor))


def truncate_kinetics(model: KineticsModel, n) -> TruncatedKinetics:
    """Cut ``model`` off from below at ``1/n``.

    Re-truncating an already truncated law keeps a single wrapper whose floor
    is the larger of the two, which matches the pointwise maximum semantics.

    Args:
        model: rate law to truncate.
        n: positive integer truncation index; the floor is ``1/n``.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError("truncation index must be an integer")
    if n < 1:
        raise ValueError("truncation index must be >= 1")
    floor = 1.0 / float(n)
    if isinstance(model, TruncatedKinetics):
        return TruncatedKinetics(model.base, max(model.floor, floor))
    return TruncatedKinetics(model, floor)


class CombustionRate(ABC):
    """Periodic burning-rate profile on the unit cell (period 1 in y)."""

    @abstractmethod
    def evaluate(self, y):
        """Burning rate at transverse position ``y`` (wrapped into [0, 1))."""

    @property
    @abstractmethod
    def bounds(self):
        """Pair ``(minimum, maximum)`` of the profile over one period."""


@dataclass(frozen=True)
class PiecewiseConstantRate(CombustionRate):
    """Layered (striated) medium: constant burning rate within each layer.

    ``edges`` are the left endpoints of the layers, starting at exactly 0.0,
    strictly increasing and below 1; ``values`` holds one positive rate per
    layer.  Lookup is right-continuous: a point on an edge belongs to the
    layer that starts there.
    """

    edges: tuple
    values: tuple

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        if len(edges) == 0 or len(edges) != len(values):
            raise ValueError("edges and values must be nonempty and equally long")
        if edges[0] != 0.0:
            raise ValueError("first edge must be exactly 0.0")
        arr = np.asarray(edges)
        if np.any(np.diff(arr) <= 0.0) or arr[-1] >= 1.0:
            raise ValueError("edges must be strictly increasing and below 1")
        vals = np.asarray(values)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("layer rates must be positive and finite")

    def evaluate(self, y):
        pos = np.mod(np.asarray(y, dtype=float), 1.0)
        idx = np.searchsorted(np.asarray(self.edges), pos, side="right") - 1
        out = np.asarray(self.values)[idx]
        return _match_shape(out, y)

    @property
    def bounds(self):
        return (min(self.values), max(self.values))


@dataclass(frozen=True)
class SmoothRate(CombustionRate):
    """Truncated Fourier burning-rate profile.

    ``cosine[k-1]`` and ``sine[k-1]`` are the amplitudes of ``cos(2*pi*k*y)``
    and ``sin(2*pi*k*y)``.  The profile must stay positive; positivity and the
    reported bounds are checked on a fine sample of one period.
    """

    mean: float
    cosine: tuple = ()
    sine: tuple = ()

    _SAMPLES = 8192

    def __post_init__(self):
        object.__setattr__(self, "cosine", tuple(float(a) for a in self.cosine))
        object.__setattr__(self, "sine", tuple(float(b) for b in self.sine))
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not all(np.isfinite(a) for a in self.cosine + self.sine):
            raise ValueError("amplitudes must be finite")
        lo, _ = self.bounds
        if lo <= 0.0:
            raise ValueError("burning-rate profile must be positive")

    def evaluate(self, y):
        pos = np.asarray(y, dtype=float)
        out = np.full_like(pos, self.mean)
        for k, a in enumerate(self.cosine, start=1):
            out += a * np.cos(2.0 * np.pi * k * pos)
        for k, b in enumerate(self.sine, start=1):
            out += b * np.sin(2.0 * np.pi * k * pos)
        return _match_shape(out, y)

    @cached_property
    def bounds(self):
        grid = np.arange(self._SAMPLES) / self._SAMPLES
        samples = self.evaluate(grid)
        # The extrema can fall between sample points; widen by the worst-case
        # sampling gap (second-derivative bound over half a cell) so the
        # declared bounds always enclose the true range.
        curvature = sum(
            (2.0 * np.pi * k) ** 2 * abs(a)
            for k, a in enumerate(self.cosine, start=1)
        ) + sum(
            (2.0 * np.pi * k) ** 2 * abs(b)
            for k, b in enumerate(self.sine, start=1)
        )
        margin = 0.125 * curvature / self._SAMPLES**2
        return (float(samples.min()) - margin, float(samples.max()) + margin)
