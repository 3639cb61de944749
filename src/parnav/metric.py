"""Navigation metric for pursuit under a fixed lead angle.

A pursuer moving at constant speed ``v_M`` holds its velocity at a fixed
angle ``delta`` to the line of sight while the target moves with
velocity field ``v_T``.  Measuring course length by elapsed pursuit time
yields a Finsler metric on the space of pursuer-relative courses
``x = r_M - r_T``:

    F(x, y) = |y|^2 / (v_M cos(delta) |y| - <y, v_T(x)>)

defined where the denominator is positive, i.e. where the course
velocity ``y`` actually closes on the target.  ``F`` is positively
1-homogeneous in ``y`` and, after pulling out the constant
``1 / (v_M cos delta)``, is a Matsumoto-type alpha-beta metric with
``alpha = |y|`` and ``beta = <y, v_T> / (v_M cos delta)``; the metric is
strongly convex wherever ``|v_T| / (v_M cos delta) < 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, OutOfDomainError

__all__ = [
    "ConstantField",
    "LinearField",
    "as_field",
    "NavMetricParams",
    "MetricValue",
    "NavMetric",
    "AlphaBetaMetric",
    "matsumoto_form",
    "strong_convexity_margin",
]


# ---------------------------------------------------------------------------
# Target velocity fields
# ---------------------------------------------------------------------------


class ConstantField:
    """Spatially constant target velocity."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        if self.value.ndim != 1:
            raise InvalidInputError("constant field value must be a vector")
        self.dim = self.value.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value

    def many(self, X: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.value, X.shape)

    def jacobian(self, X: np.ndarray) -> None:
        return None  # no spatial derivative

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConstantField({self.value.tolist()})"


class LinearField:
    """Affine target velocity ``v_T(x) = base + gradient @ x``."""

    def __init__(self, base, gradient):
        self.base = np.asarray(base, dtype=float)
        self.gradient = np.asarray(gradient, dtype=float)
        if self.base.ndim != 1 or self.gradient.shape != (self.base.size, self.base.size):
            raise InvalidInputError("gradient must be square and match base dimension")
        self.dim = self.base.size

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.base + self.gradient @ np.asarray(x, dtype=float)

    def many(self, X: np.ndarray) -> np.ndarray:
        # a stacked product rounds each row like the 1-row call (X @ G.T does not)
        return self.base + (self.gradient @ X[:, :, None])[:, :, 0]

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        return self.gradient  # d v_T^i / dx^k, the same at every row


def as_field(obj):
    """Coerce a vector into a :class:`ConstantField`; field objects pass through."""
    if hasattr(obj, "many") and hasattr(obj, "dim"):
        return obj
    if callable(obj):
        raise InvalidInputError("a velocity field must be a vector or a field object, not a callable")
    return ConstantField(obj)


# ---------------------------------------------------------------------------
# Navigation metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NavMetricParams:
    """Pursuer speed and lead angle; the lead angle must keep cos(delta) > 0."""

    v_m: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.v_m > 0.0) or not math.isfinite(self.v_m):
            raise InvalidInputError("v_m must be a positive finite speed")
        if not (abs(self.delta) < math.pi / 2.0):
            raise InvalidInputError("delta must lie in (-pi/2, pi/2)")

    @property
    def cos_delta(self) -> float:
        return math.cos(self.delta)


@dataclass(frozen=True)
class MetricValue:
    """One metric evaluation with its domain diagnostics.

    ``value`` is NaN when the point is outside the metric's domain;
    ``denominator`` is always reported so callers can see how close to
    the domain boundary the evaluation sits.
    """

    value: float
    denominator: float
    in_domain: bool


def _closing_quotient(c, ny, yv):
    """``(|y|^2 / den, den)`` for ``den = c |y| - <y, v_T>``, ``c = v_M cos(delta)``;
    the quotient is NaN wherever ``den <= 0`` (the velocity does not close)."""
    den = c * ny - yv
    return ny * ny / np.where(den > 0.0, den, np.nan), den


def _require_closing(den) -> None:
    if (den <= 0.0).any():
        raise OutOfDomainError(
            f"batch contains a non-closing velocity (min denominator {den.min():.6g})"
        )


class NavMetric:
    """The navigation metric ``F(x, y)`` for one (v_m, delta) and one field."""

    def __init__(self, params: NavMetricParams, field):
        self.params = params
        self.field = as_field(field)
        self.dim = self.field.dim

    def with_delta(self, delta: float) -> "NavMetric":
        return NavMetric(replace(self.params, delta=float(delta)), self.field)

    # -- evaluation ---------------------------------------------------------

    def value(self, x, y) -> MetricValue:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            raise InvalidInputError("metric is undefined at the zero velocity")
        f, den = _closing_quotient(self.params.v_m * self.params.cos_delta, ny, float(y @ self.field(x)))
        return MetricValue(float(f), den, den > 0.0)

    def F(self, x, y) -> float:
        mv = self.value(x, y)
        if not mv.in_domain:
            raise OutOfDomainError(
                f"course velocity does not close on the target (denominator {mv.denominator:.6g})"
            )
        return mv.value

    def _closing_terms(self, X, Y):
        """``(Y, |y|, <y, v_T(x)>, v_T(x))`` row-wise; raises at a zero velocity."""
        Y = np.asarray(Y, dtype=float)
        ny = np.sqrt(np.add.reduce(Y * Y, axis=1))
        if (ny == 0.0).any():
            raise InvalidInputError("metric is undefined at the zero velocity")
        V = self.field.many(np.asarray(X, dtype=float))
        return Y, ny, np.einsum("ij,ij->i", Y, V), V

    def _closing_speed(self, delta):
        """``c = v_M cos(delta)`` at the metric's own lead angle, or elementwise over ``delta``."""
        if delta is None:
            return self.params.v_m * self.params.cos_delta
        delta = np.asarray(delta, dtype=float)
        if not (np.abs(delta) < math.pi / 2.0).all():
            raise InvalidInputError("delta must lie in (-pi/2, pi/2)")
        return self.params.v_m * np.cos(delta)

    def value_many(self, X, Y, delta=None) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``(F, denominator)`` without the domain gate (F is NaN outside it).

        ``delta`` overrides the lead angle per row (``(m,)``) or as an
        ``(m, k)`` / ``(1, k)`` table sharing each row's ``|y|`` and ``<y, v_T>``.
        """
        _, ny, yv, _ = self._closing_terms(X, Y)
        c = self._closing_speed(delta)
        if np.ndim(c) == 2:
            ny, yv = ny[:, None], yv[:, None]
        return _closing_quotient(c, ny, yv)

    def F_many(self, X: np.ndarray, Y: np.ndarray, delta=None) -> np.ndarray:
        f, den = self.value_many(X, Y, delta)
        _require_closing(den)
        return f

    def _velocity_gradient(self, X, Y):
        """Row-wise ``(Y, |y|, F, dF/dy, D, w)`` behind :meth:`gradients_many`."""
        Y, ny, yv, V = self._closing_terms(X, Y)
        c = self._closing_speed(None)
        f, den = _closing_quotient(c, ny, yv)
        _require_closing(den)
        w = (c / ny)[:, None] * Y - V
        return Y, ny, f, (2.0 * Y - f[:, None] * w) / den[:, None], den, w

    def gradients_many(self, X, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-wise ``(F, dF/dy, dF/dx)`` in closed form, gated like :meth:`F_many`.

        With ``D = c|y| - <y, v_T>`` (``c = v_M cos delta``) and ``w = dD/dy = c y/|y| - v_T``:
        ``dF/dy = (2y - F w)/D`` and ``dF/dx = (F/|y|)^2 J^T y`` with ``J = dv_T/dx``
        (zero for a field without a Jacobian).
        """
        Y, ny, f, dFdy, _, _ = self._velocity_gradient(X, Y)
        J = self.field.jacobian(X)
        if J is None:
            return f, dFdy, np.zeros_like(Y)
        return f, dFdy, ((f / ny) ** 2)[:, None] * (Y[:, None, :] @ J)[:, 0, :]

    # -- derived quantities --------------------------------------------------

    def fundamental_tensor(self, x, y) -> np.ndarray:
        """``g = 1/2 d2(F^2)/dy2 = dF dF^T + F d2F/dy2`` in closed form, with ``dF = dF/dy``, ``D``
        and ``w`` as in :meth:`gradients_many`, ``u = y/|y|`` and
        ``d2F/dy2 = (2 I - (c F/|y|)(I - u u^T) - dF w^T - w dF^T) / D``."""
        rows = (np.asarray(a, dtype=float)[None, :] for a in (x, y))
        Y, ny, f, dF, den, w = (a[0] for a in self._velocity_gradient(*rows))
        u, eye, cross = Y / ny, np.eye(Y.size), np.outer(dF, w)
        # cross + cross.T is exactly symmetric, and so is g
        hess = (2.0 * eye - (self._closing_speed(None) * f / ny) * (eye - np.outer(u, u)) - (cross + cross.T)) / den
        return np.outer(dF, dF) + f * hess

    def unit_vector(self, x, direction) -> np.ndarray:
        """Rescale ``direction`` to unit metric length (F = 1)."""
        direction = np.asarray(direction, dtype=float)
        return direction / self.F(x, direction)


# ---------------------------------------------------------------------------
# Alpha-beta metrics (Riemannian norm alpha, one-form beta)
# ---------------------------------------------------------------------------


class AlphaBetaMetric:
    """Randers (`alpha + beta`) or Matsumoto (`alpha^2 / (alpha - beta)`) metric.

    ``a`` is the symmetric positive-definite matrix of the Riemannian
    part, ``b`` the covector of the one-form.  Both are position
    independent here: this class exists for cross-checks against the
    navigation metric's Matsumoto form, not as a general alpha-beta
    implementation.
    """

    KINDS = ("randers", "matsumoto")

    def __init__(self, kind: str, a, b):
        if kind not in self.KINDS:
            raise InvalidInputError(f"kind must be one of {self.KINDS}, got {kind!r}")
        self.kind = kind
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise InvalidInputError("a must be a square matrix")
        if not np.allclose(self.a, self.a.T):
            raise InvalidInputError("a must be symmetric")
        if np.any(np.linalg.eigvalsh(self.a) <= 0.0):
            raise InvalidInputError("a must be positive definite")
        if self.b.shape != (self.a.shape[0],):
            raise InvalidInputError("b must be a vector matching a")
        self.dim = self.b.size

    def value(self, x, y) -> MetricValue:
        y = np.asarray(y, dtype=float)
        alpha = float(np.sqrt(y @ self.a @ y))
        if alpha == 0.0:
            raise InvalidInputError("metric is undefined at the zero velocity")
        beta = float(y @ self.b)
        if self.kind == "randers":
            val = alpha + beta
            return MetricValue(val if val > 0.0 else math.nan, val, val > 0.0)
        den = alpha - beta
        if den > 0.0:
            return MetricValue(alpha * alpha / den, den, True)
        return MetricValue(math.nan, den, False)

    def F(self, x, y) -> float:
        mv = self.value(x, y)
        if not mv.in_domain:
            raise OutOfDomainError(f"outside {self.kind} domain (denominator {mv.denominator:.6g})")
        return mv.value


def matsumoto_form(params: NavMetricParams, v_t) -> tuple[float, AlphaBetaMetric]:
    """Express the navigation metric at one point in Matsumoto form.

    Returns ``(scale, metric)`` with ``F_nav(x, y) = scale * metric.F(x, y)``
    for every ``y``, where ``v_t`` is the target velocity at the point of
    interest: ``alpha = |y|``, ``beta = <y, v_T/(v_M cos delta)>``, and
    ``scale = 1/(v_M cos delta)``.
    """
    v_t = np.asarray(v_t, dtype=float)
    c = params.v_m * params.cos_delta
    return 1.0 / c, AlphaBetaMetric("matsumoto", np.eye(v_t.size), v_t / c)


def strong_convexity_margin(params: NavMetricParams, v_t) -> float:
    """Positive iff the fundamental tensor is positive definite at this point.

    The navigation metric's Matsumoto form has ``|b| = |v_T|/(v_M cos delta)``,
    and the Matsumoto metric is strongly convex on its whole domain exactly
    when ``|b| < 1/2``; the margin returned is ``1/2 - |b|``.
    """
    v_t = np.asarray(v_t, dtype=float)
    return 0.5 - float(np.linalg.norm(v_t)) / (params.v_m * params.cos_delta)
