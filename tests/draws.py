"""The scenarios the tests share, and the maps the navigation problem is invariant under.

A family is one range table, drawn by ``family.draws(seed, n)`` from ``numpy.random.default_rng(seed)`` or by
hypothesis from ``family.strategy()``.  A draw is a ``(Scenario, field)``: see :meth:`ShearFamily._draw` and
:meth:`MagnitudeFamily._draw`; :func:`document` writes one as a scenario file.
"""

import dataclasses
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from parnav import (ConstantField, ConstantVelocity, InvalidInputError, LinearField, PiecewiseConstant, Scenario,
                    Waypoints)

# intercepted engagements: a three-leg piecewise target, a waypoint target and a target in space
PIECEWISE = Scenario(r0=np.array([800.0, 0.0]), program=PiecewiseConstant(
    [(1.5, 100.0, 0.5), (1.5, 80.0, -0.8), (10.0, 60.0, 2.0)]), v_m=220.0)
WAYPOINTS = Scenario(r0=np.array([500.0, 0.0]), program=Waypoints(
    [(500.0, 0.0), (500.0, 300.0), (200.0, 300.0)], speed=60.0), v_m=150.0)
SPACE = Scenario(r0=np.array([800.0, 300.0, 500.0]), program=ConstantVelocity.from_vector([30.0, -40.0, 10.0]),
                 v_m=150.0)


class _Family:
    """Draws served from ``_draw(uniform)``, which makes one draw, or None where the family's filter drops it."""

    def draws(self, seed: int, n: int) -> list:
        rng = np.random.default_rng(seed)
        return list(itertools.islice(filter(None, (self._draw(rng.uniform) for _ in itertools.count())), n))

    def strategy(self) -> st.SearchStrategy:
        @st.composite
        def draws(draw):
            def uniform(lo, hi, size=None):
                return draw(st.floats(lo, hi) if size is None else st.tuples(*[st.floats(lo, hi)] * size))

            return self._draw(uniform)

        return draws().filter(bool)


@dataclasses.dataclass(frozen=True)
class ShearFamily(_Family):
    gradient: float
    base: float
    r0: tuple
    moving: bool  # the target flies at the field's base velocity, or stands still
    convex: float = math.inf  # keep the draws with |b| + ||A||_2 |r0| <= convex

    def _draw(self, uniform):
        """Field ``v_T(x) = b + A x`` with ``A`` U(-gradient, gradient)^(2x2) and ``b`` U(-base, base)^2, start
        range U(*r0) at a bearing U(-pi, pi), hit radius log-uniform in [5e-3, 5e-2], drawn in that order from
        ``uniform(lo, hi, size=None)``; target at the origin, ``v_M`` 2, ``t_max`` 10.  None if the filter drops it.
        """
        gradient = np.reshape(uniform(-self.gradient, self.gradient, 4), (2, 2))
        base = uniform(-self.base, self.base, 2)
        r, bearing = uniform(*self.r0), uniform(-math.pi, math.pi)
        hit = math.exp(uniform(math.log(5e-3), math.log(5e-2)))
        program = ConstantVelocity.from_vector(base) if self.moving else ConstantVelocity(0.0, 0.0)
        scenario = Scenario(r0=r * np.array([math.cos(bearing), math.sin(bearing)]), program=program, v_m=2.0,
                            hit_radius=hit, t_max=10.0)
        keep = np.linalg.norm(base) + np.linalg.norm(gradient, 2) * r <= self.convex
        return (scenario, LinearField(base, gradient)) if keep else None


# the shoot-shear benchmark's ranges
shoot_shear = ShearFamily(gradient=0.3, base=0.15, r0=(1.0, 2.0), moving=True)
# |v_T| < v_M / 2 on the start disk keeps the course, which only approaches the target, where the metric is
# strongly convex (1 + 2|b|^2 - 3s > 0), so RK4 follows the geodesic
convex_shear = dataclasses.replace(shoot_shear, convex=0.9)
# strong shears whose geodesics often leave the strongly convex part of the metric: some solves are refused
hard_shear = ShearFamily(gradient=1.2, base=0.3, r0=(1.0, 3.0), moving=False)


def orthogonal(m, proper: bool = True) -> np.ndarray:
    """The orthogonal factor of the square matrix ``m``, of determinant +1 (a rotation) or -1 (a reflection)."""
    q, r = np.linalg.qr(m)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q if (np.linalg.det(q) > 0.0) == proper else q * np.r_[-1.0, np.ones(len(q) - 1)]


def orthogonals(dim: int) -> st.SearchStrategy:
    """Rotations and reflections of R^dim."""
    entries = st.tuples(*[st.floats(-1.0, 1.0)] * (dim * dim))
    return st.builds(lambda m, proper: orthogonal(np.reshape(m, (dim, dim)), proper), entries, st.booleans())


def _mapped(scenario, field, Q, length, speed):
    """``scenario`` and ``field`` (or None) turned by ``Q``, lengths times ``length`` and speeds times ``speed``;
    the metric is built from ``v_M``, ``v_T`` and ``|y|``, so every answer maps with them."""
    time, program = length / speed, scenario.program
    if isinstance(program, PiecewiseConstant):
        program = PiecewiseConstant([(time * d, speed * s, math.atan2(*(Q @ [math.cos(h), math.sin(h)])[::-1]))
                                     for d, s, h in program.legs])
    elif isinstance(program, Waypoints):
        program = Waypoints(length * program.points @ Q.T, speed * program.speed)
    else:
        program = ConstantVelocity.from_vector(speed * (Q @ program.vector))
    if isinstance(field, ConstantField):
        field = ConstantField(speed * (Q @ field.value))
    elif field is not None:
        field = LinearField(speed * (Q @ field.base), Q @ field.gradient @ Q.T * speed / length)
    return scenario.with_(r0=length * (Q @ scenario.r0), hit_radius=length * scenario.hit_radius, program=program,
                          v_m=speed * scenario.v_m, dt=time * scenario.dt, t_max=time * scenario.t_max), field


def rotate(scenario, field, Q):
    """Turn or reflect by ``Q``: ``x -> Q x``, ``G -> Q G Q^T``.  A (3, 2) ``Q`` with orthonormal columns lifts a
    planar scenario into space, and its transpose projects one onto its plane."""
    return _mapped(scenario, field, Q, 1.0, 1.0)


def scale_lengths(scenario, field, lam):
    """Lengths, and at fixed speeds times, times ``lam``: the field's gradient over ``lam``."""
    return _mapped(scenario, field, np.eye(scenario.dim), lam, 1.0)


def scale_speeds(scenario, field, mu):
    """Speeds and the field's gradient times ``mu``, times over ``mu``."""
    return _mapped(scenario, field, np.eye(scenario.dim), 1.0, mu)


@dataclasses.dataclass(frozen=True)
class MagnitudeFamily(_Family):
    decades: float  # lengths and speeds are scaled by log-uniform factors in [10^-decades, 10^decades]
    steps: int  # t_max / dt, which bounds a simulation's nodes
    twins: bool = False  # draw (scaled draw, its unscaled twin) pairs

    def _draw(self, uniform):
        """A ``shoot_shear`` course or, with even odds, a planar engagement (that draw's start, hit radius and
        ``t_max``, a target at speed 1 in a heading U(-pi, pi), ``v_M`` U(0.5, 3), no field), with ``dt = t_max /
        steps``, lengths times ``lam`` and speeds times ``mu``; so times, ``dt`` and ``t_max`` are times ``lam / mu``.
        Drawn in the order course, choice, heading and ``v_M``, ``lam``, ``mu``.  None where a time leaves the floats,
        which ``Scenario`` refuses.  With ``twins``, the pair of that draw and the one at ``lam = mu = 1``."""
        scenario, field = shoot_shear._draw(uniform)
        if uniform(0.0, 1.0) < 0.5:
            scenario, field = scenario.with_(program=ConstantVelocity(1.0, uniform(-math.pi, math.pi)),
                                             v_m=uniform(0.5, 3.0)), None
        lam, mu = (10.0 ** uniform(-self.decades, self.decades) for _ in range(2))
        twin = scenario.with_(dt=scenario.t_max / self.steps), field
        try:
            with np.errstate(over="ignore"):  # a gradient times mu / lam may overflow: the parser refuses it
                draw = _mapped(*twin, np.eye(2), lam, mu)
        except InvalidInputError:
            return None
        return (draw, twin) if self.twins else draw


# magnitudes across the doubles' range, on courses of at most about 2,000 nodes
extreme_magnitudes = MagnitudeFamily(decades=300.0, steps=2000)
extreme_twins = dataclasses.replace(extreme_magnitudes, twins=True)


def document(scenario, field=None) -> dict:
    """The scenario file of a constant-velocity ``scenario`` and a linear ``field`` (None: the target's velocity)."""
    doc = {"schema_version": 1, "scenario": {
        "r0": scenario.r0.tolist(), "target": {"type": "constant", "velocity": scenario.program.vector.tolist()},
        "pursuer_speed": scenario.v_m, "dt": scenario.dt, "hit_radius": scenario.hit_radius, "t_max": scenario.t_max}}
    if field is not None:
        doc["metric"] = {"field": {"type": "linear", "base": field.base.tolist(), "gradient": field.gradient.tolist()}}
    return doc
