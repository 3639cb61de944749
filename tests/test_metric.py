"""Navigation metric: values, domain, fundamental tensor, Matsumoto form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parnav import (
    ConstantField,
    InvalidInputError,
    LinearField,
    NavMetric,
    NavMetricParams,
    OutOfDomainError,
    as_field,
    numdiff,
)
from tests.draws import shoot_shear

ORIGIN = np.zeros(2)


def _metric(v_m=2.0, delta=0.0, v_t=(0.3, 0.1)) -> NavMetric:
    return NavMetric(NavMetricParams(v_m, delta), ConstantField(v_t))


# in-domain guaranteed whenever |v_t| < v_m cos(delta); keep draws well inside
coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def test_stationary_value_is_speed_over_vm():
    m = _metric(v_m=200.0, v_t=(0.0, 0.0))
    assert m.F(ORIGIN, np.array([0.0, 1.0])) == pytest.approx(1.0 / 200.0, rel=1e-15)
    assert m.F(ORIGIN, np.array([3.0, 4.0])) == pytest.approx(5.0 / 200.0, rel=1e-15)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        NavMetricParams(-1.0, 0.0)
    with pytest.raises(InvalidInputError):
        NavMetricParams(1.0, math.pi / 2.0)
    p = NavMetricParams(2.0, 0.5)
    assert p.cos_delta == pytest.approx(math.cos(0.5), rel=1e-15)


def test_out_of_domain_value():
    # target outruns the pursuer along +x: denominator 1*1 - 2 = -1
    m = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([2.0, 0.0]))
    v = m.value(ORIGIN, np.array([1.0, 0.0]))
    assert not v.in_domain
    assert v.denominator == pytest.approx(-1.0, rel=1e-15)
    assert math.isnan(v.value)
    with pytest.raises(OutOfDomainError):
        m.F(ORIGIN, np.array([1.0, 0.0]))


def test_zero_velocity_rejected():
    with pytest.raises(InvalidInputError):
        _metric().value(ORIGIN, np.zeros(2))


def test_f_many_matches_scalar():
    m = _metric()
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    Y = rng.normal(size=(40, 2)) * 2.0
    F = m.F_many(X, Y)
    for i in range(40):
        assert F[i] == pytest.approx(m.F(X[i], Y[i]), rel=1e-14)


def test_value_many_lead_angles_per_row_and_as_table():
    m = _metric()
    X = np.zeros((3, 2))
    Y = np.array([[1.0, 0.0], [0.0, -2.0], [0.3, 0.1]])  # the last row follows v_T
    deltas = np.array([0.0, 0.7, 1.5])
    table, den = m.value_many(X, Y, deltas[None, :])
    assert table.shape == den.shape == (3, 3)
    for j, d in enumerate(deltas):
        per_row, _ = m.value_many(X, Y, np.full(3, d))
        np.testing.assert_array_equal(table[:, j], per_row)
        for i in range(3):
            mv = m.with_delta(d).value(X[i], Y[i])
            assert mv.in_domain == (den[i, j] > 0.0)
            assert table[i, j] == pytest.approx(mv.value, rel=1e-14, nan_ok=True)
    assert np.isnan(table[2, 2])  # cos(1.5) v_M < |v_T|: no closing along the field
    with pytest.raises(OutOfDomainError):
        m.F_many(X, Y, deltas[None, :])
    with pytest.raises(InvalidInputError):
        m.value_many(X, Y, np.array([0.0, 0.0, math.pi / 2.0]))


def test_f_many_raises_on_any_bad_row():
    m = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([2.0, 0.0]))
    X = np.zeros((2, 2))
    Y = np.array([[0.0, 1.0], [1.0, 0.0]])  # second row leaves the domain
    with pytest.raises(OutOfDomainError):
        m.F_many(X, Y)


@given(y1=coords, y2=coords, c=st.floats(1e-3, 1e3))
def test_positive_homogeneity(y1, y2, c):
    y = np.array([y1, y2])
    if np.linalg.norm(y) < 1e-6:
        return
    m = _metric()
    assert m.F(ORIGIN, c * y) == pytest.approx(c * m.F(ORIGIN, y), rel=1e-12)


@settings(max_examples=25)
@given(y1=coords, y2=coords)
def test_euler_identity(y1, y2):
    """g_ij y^i y^j = F^2 for a 1-homogeneous norm."""
    y = np.array([y1, y2])
    if np.linalg.norm(y) < 1e-3:
        return
    m = _metric(delta=0.1)
    g = m.fundamental_tensor(ORIGIN, y)
    F2 = m.F(ORIGIN, y) ** 2
    assert float(y @ g @ y) == pytest.approx(F2, rel=1e-6)
    assert np.array_equal(g, g.T)


@settings(max_examples=100)
@given(draw=shoot_shear.strategy(), x=st.tuples(*[st.floats(-2.0, 2.0)] * 2), angle=st.floats(-math.pi, math.pi))
def test_reversed_velocity_against_or_with_the_field(draw, x, angle):
    """F(x, -y) != F(x, y) wherever <y, v_T(x)> != 0: the velocity going with the field takes longer, since
    F = |y|^2 / (c |y| - <y, v_T>).  Below 8 ulps of c |y| the two denominators may round alike."""
    scenario, field = draw  # |v_T| <= 0.22 + 0.6 |x| < v_M = 2 on the square: both directions are in the domain
    metric = NavMetric(NavMetricParams(scenario.v_m), field)
    y = np.array([math.cos(angle), math.sin(angle)])
    forward, backward = metric.F_many(np.array([x, x]), np.array([y, -y]))
    yv = float(np.einsum("i,i->", y, field(np.array(x))))
    if abs(yv) > 8.0 * np.finfo(float).eps * scenario.v_m:
        assert forward > backward if yv > 0.0 else forward < backward


@given(v=st.tuples(*[st.floats(-1.0, 1.0, width=32)] * 2), scale=st.integers(-30, 30))
def test_reversed_velocity_across_the_field(v, scale):
    """F(x, -y) == F(x, y) where <y, v_T(x)> = 0; float32 components make the products, and so the sum, exact."""
    metric = NavMetric(NavMetricParams(2.0), ConstantField(v))
    y = 2.0**scale * (np.array([-v[1], v[0]]) if any(v) else np.array([1.0, 0.0]))
    forward, backward = metric.F_many(np.zeros((2, 2)), np.array([y, -y]))
    assert forward == backward


def test_stationary_tensor_is_scaled_identity():
    # F = |y|/2, so F^2/2 is quadratic and g = I/4 exactly
    m = _metric(v_m=2.0, v_t=(0.0, 0.0))
    g = m.fundamental_tensor(ORIGIN, np.array([0.7, -1.3]))
    np.testing.assert_allclose(g, np.eye(2) / 4.0, atol=1e-8)


def test_unit_vector():
    m = _metric(v_m=2.0, v_t=(0.0, 0.0))
    u = m.unit_vector(ORIGIN, np.array([0.0, 3.0]))
    np.testing.assert_allclose(u, [0.0, 2.0], rtol=1e-12)
    m2 = _metric(delta=0.2)
    u2 = m2.unit_vector(ORIGIN, np.array([1.0, -2.0]))
    assert m2.F(ORIGIN, u2) == pytest.approx(1.0, rel=1e-12)


def test_with_delta_keeps_field():
    m = _metric(delta=0.0)
    m2 = m.with_delta(0.3)
    assert m2.params.delta == 0.3
    assert m2.params.v_m == m.params.v_m
    y = np.array([1.0, 1.0])
    assert m2.F(ORIGIN, y) >= m.F(ORIGIN, y)


# --- Matsumoto form ----------------------------------------------------------


@settings(max_examples=50)
@given(y1=coords, y2=coords)
def test_matsumoto_form_reproduces_navigation_metric(y1, y2):
    y = np.array([y1, y2])
    if np.linalg.norm(y) < 1e-6:
        return
    # F = alpha^2 / (c (alpha - beta)) with alpha = |y|, beta = <y, v_T / c>, c = v_M cos(delta)
    c, v_t = 2.0 * math.cos(0.15), np.array([0.3, -0.2])
    val = NavMetric(NavMetricParams(2.0, 0.15), ConstantField(v_t)).value(ORIGIN, y)
    alpha, beta = math.hypot(y1, y2), float(y @ v_t) / c
    if val.in_domain:
        assert alpha**2 / (c * (alpha - beta)) == pytest.approx(val.value, rel=1e-12)


def test_tensor_positive_definite_inside_margin():
    m = _metric(v_m=2.0, delta=0.1, v_t=(0.3, 0.1))
    assert math.hypot(0.3, 0.1) < 0.5 * 2.0 * math.cos(0.1)  # |v_T| < v_M cos(delta) / 2: strongly convex
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(size=2) * 3.0
        if np.linalg.norm(y) < 1e-3:
            continue
        g = m.fundamental_tensor(rng.normal(size=2), y)
        assert np.linalg.eigvalsh(g).min() > 0.0


unit = st.floats(-1.0, 1.0)


@settings(max_examples=40)
@given(
    dim=st.sampled_from([2, 3]),
    v_m=st.floats(1.5, 3.0),
    delta=st.floats(-0.6, 0.6),
    field=st.lists(unit, min_size=12, max_size=12),
    rows=st.lists(st.lists(unit, min_size=6, max_size=6), min_size=1, max_size=5),
)
def test_gradients_many_rows_match_single_row_and_finite_differences(dim, v_m, delta, field, rows):
    f = LinearField(0.3 * np.array(field[:dim]), 0.3 * np.reshape(field[3 : 3 + dim * dim], (dim, dim)))
    m = NavMetric(NavMetricParams(v_m, delta), f)
    X = 2.0 * np.array([r[:dim] for r in rows])
    Y = 2.0 * np.array([r[3 : 3 + dim] for r in rows])
    # strongly convex rows stay well inside the domain, where differences are accurate
    keep = [
        k for k in range(len(rows))
        if np.linalg.norm(Y[k]) > 1e-2 and np.linalg.norm(f(X[k])) < 0.45 * v_m * math.cos(delta)
    ]
    if not keep:
        return
    X, Y = X[keep], Y[keep]
    batched = m.gradients_many(X, Y)
    for k, (x, y) in enumerate(zip(X, Y)):
        for a, b in zip(batched, m.gradients_many(x[None], y[None])):
            assert np.array_equal(a[k], b[0])
        F, dFdy, dFdx = (a[k] for a in batched)
        g = m.fundamental_tensor(x, y)
        # scales: |dF/dy| ~ F/|y|, |dF/dx| <= F^2 |J| / |y|, |g| ~ (F/|y|)^2; numdiff's
        # steps put the worst of 3000 draws at 4e-9, 1.3e-6 and 1.7e-7 of these
        s = F / np.linalg.norm(y)
        assert np.linalg.norm(dFdy - numdiff.y_gradient(m.F_many, x, y)) <= 1e-7 * s
        assert np.linalg.norm(dFdx - numdiff.x_gradient(m.F_many, x, y)) <= 1e-5 * s * F * np.linalg.norm(f.gradient)
        assert np.linalg.norm(g - numdiff.y_hessian(lambda X_, Y_: 0.5 * m.F_many(X_, Y_) ** 2, x, y)) <= 1e-6 * s * s


def test_gradients_many_gates_the_domain():
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField([2.0, 0.0], np.eye(2)))
    with pytest.raises(OutOfDomainError):
        m.gradients_many(np.zeros((2, 2)), np.array([[-1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        m.gradients_many(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(OutOfDomainError):
        m.fundamental_tensor(ORIGIN, np.array([1.0, 0.0]))
    flat = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([0.5, 0.0]))
    _, _, dFdx = flat.gradients_many(np.ones((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(dFdx, np.zeros((2, 2)))


# --- velocity fields --------------------------------------------------------


def test_linear_field():
    f = LinearField([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]])
    np.testing.assert_allclose(f(np.array([3.0, 2.0])), [0.1 + 0.9, 0.0], rtol=1e-15)
    X = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 3.0]])
    np.testing.assert_allclose(f.many(X), np.stack([f(x) for x in X]), rtol=1e-15)


def test_as_field_coercions():
    f = as_field([1.0, 2.0])
    np.testing.assert_allclose(f(np.zeros(2)), [1.0, 2.0])
    g = as_field(ConstantField([0.0, 1.0]))
    assert isinstance(g, ConstantField)
    with pytest.raises(InvalidInputError, match="not a callable"):
        as_field(lambda x: np.array([x[1], 0.0]))
