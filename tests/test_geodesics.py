"""The planar geodesic flow: spray and Berwald coefficients, integration, action and EL residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parnav import (
    ConstantField,
    CurveRecord,
    InvalidInputError,
    LinearField,
    NavMetric,
    NavMetricParams,
    OutOfDomainError,
    PartialCurveError,
    action_integral,
    berwald_coefficients,
    curve_from_arrays,
    euler_lagrange_residual,
    integrate_geodesic,
    numdiff,
    optimal,
    spray_coefficients,
)
from parnav.geodesics import _PlanarFlow, _covariant_rate
from tests.draws import convex_shear
from tests.reference import rk4_step, spray_many


def _fd_spray(metric, x, y):
    """Finite-difference spray ``1/4 g^{-1} (d2E/dydx y - dE/dx)``, the oracle for the closed form."""
    def energy(X, Y):
        return metric.F_many(X, Y) ** 2

    g = metric.fundamental_tensor(x, y)
    mixed = numdiff.xy_mixed(energy, x, y)
    dEdx = numdiff.x_gradient(energy, x, y)
    return 0.25 * np.linalg.solve(g, mixed @ y - dEdx)


def test_curve_record_validation(shear_metric):
    t = np.array([0.0, 0.1, 0.2])
    pos = np.zeros((3, 2))
    vel = np.ones((3, 2))
    with pytest.raises(InvalidInputError):
        CurveRecord(t, pos[:2], vel, np.ones(3))
    with pytest.raises(InvalidInputError):
        CurveRecord(np.array([0.0, 0.2, 0.1]), pos, vel, np.ones(3))
    c = CurveRecord(t, pos, vel, np.ones(3))
    assert c.n_nodes == 3 and c.dim == 2


def test_curve_from_arrays_rejects_out_of_domain():
    m = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([2.0, 0.0]))
    t = np.array([0.0, 1.0])
    pos = np.zeros((2, 2))
    vel = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(OutOfDomainError):
        curve_from_arrays(m, t, pos, vel)


def test_spray_vanishes_for_constant_field(example_metric):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=2) * 300.0
        y = rng.normal(size=2) * 100.0
        np.testing.assert_allclose(spray_coefficients(example_metric, x, y), 0.0, atol=1e-10)
        np.testing.assert_allclose(berwald_coefficients(example_metric, x, y), 0.0, atol=1e-10)


def test_spray_second_order_homogeneity(shear_metric):
    x = np.array([-1.2, 0.7])
    y = shear_metric.unit_vector(x, np.array([1.0, -0.4]))
    G1 = spray_coefficients(shear_metric, x, y)
    G2 = spray_coefficients(shear_metric, x, 2.0 * y)
    # doubling y scales every intermediate by a power of two: measured error 0
    np.testing.assert_allclose(G2, 4.0 * G1, rtol=0.0, atol=0.0)


# (v_M, delta, base, gradient, x, y, G) with G from exact symbolic derivatives of
# E = F^2 in G = 1/4 g^{-1} (d2E/dydx y - dE/dx) (sympy 1.14, inputs taken as
# their exact binary values, evaluated with mpmath at 50 digits, kept to 40)
_SHEAR = ([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]])
_SKEW = ([0.12, -0.05], [[0.1, -0.2], [0.25, -0.05]])
_FIELD3 = ([0.1, -0.2, 0.05], [[0.05, 0.2, -0.1], [-0.15, 0.0, 0.3], [0.1, -0.25, 0.05]])
SPRAY_REFERENCE = [
    (2.0, 0.0, *_SHEAR, [-1.2, 0.7], [0.9, -0.35],
     ["-0.08993483005034563180008859301252722643732", "-0.1557812429767427844931202459672291623302"]),
    (2.0, 0.0, *_SHEAR, [0.3, -0.8], [-0.4, 1.1],
     ["0.1762934475870433932071246108675080353349", "0.03306365173264487343028785950515659413685"]),
    (2.0, 0.0, *_SHEAR, [-1.6, 0.9], [1.7, -0.2],
     ["-0.1023364049108366804898779490493255541964", "-0.6567767258438062759773564914994801398136"]),
    (2.0, 0.3, *_SKEW, [0.5, 0.4], [-1.0, 0.3],
     ["-0.05772978909152452711410676950621245802352", "-0.1054960213539614351730338352628965165693"]),
    (2.0, 0.3, *_SKEW, [-0.9, 1.3], [0.2, -0.7],
     ["0.08168110928196405701729598813619941883197", "0.01557010376522990162948252641133674595528"]),
    (2.0, 0.3, *_SKEW, [1.1, -0.6], [-2.5, 1.5],
     ["-0.5900707237230584847783010481459100822091", "-0.5444513944749273747029871636631623592911"]),
    (3.0, -0.2, *_FIELD3, [0.4, -0.7, 0.9], [-0.6, 1.0, -0.8],
     ["0.1050072474886046680788552130892989566613", "-0.03901128968716129238422163796739474859225",
      "-0.1553376234127061326058545772284350551454"]),
    (3.0, -0.2, *_FIELD3, [-1.2, 0.3, 0.5], [1.4, 0.2, -0.3],
     ["0.06120796418239173794582453257516774131552", "-0.1652477599415379453588402662367613285829",
      "0.03646152381915900117398707764754674033490"]),
]


# B^1_11, B^1_12, B^1_22, B^2_11, B^2_12 and B^2_22 at the planar points of SPRAY_REFERENCE, in its order: exact
# symbolic second y-derivatives of the same G (sympy 1.14, exact binary inputs, evaluated at 50 digits, kept to 40)
BERWALD_REFERENCE = [
    ["-0.001432889911457626078700037933837407914144", "0.2785952351296839695429998805564347006760",
     "-0.02607364196497708422039863862067147755465", "-0.3848167588512657006535937762057628482782",
     "-0.0001308033507955211426675579576058178533082", "0.0004627151431713111350541776113372710926401"],
    ["0.2420064027095112731559996058199056941278", "-0.06647717798194205090329317413784159513645",
     "0.2110462430714511771953145384724799547574", "0.2923098630921838654347472065504679047261",
     "0.02666739632723965188849587035871822167164", "0.03539259019711670507625654886130794751577"],
    ["0.000002738711793646195867970820048649909818322", "0.3010397685263358217467471377424470203903",
     "0.0006579474787841578862111840370796141228912", "-0.4545292161786935042876488036901824573942",
     "0.0001886340820458215374485128021055641314966", "0.004106356115069135951846788357309433756333"],
    ["-0.05958174622253744169281993873222197318260", "0.08037275685055160959577433402375513830857",
     "-0.08504642055756276810095188463717771487173", "-0.2124408990626552342716833051436152604038",
     "-0.02582729897292814651633972156833607633393", "-0.1560835892113836050048058411378469947894"],
    ["0.1887247498863250580233862074859006797731", "0.07156150999473890156078485073889992459055",
     "0.3588784721775551540123256393589839668082", "-0.07391810689280698932225520091995466729994",
     "-0.1521279496860456801315779280644044165001", "-0.01734468184881777146386605169214005323430"],
    ["-0.08688540820907547841800490865289843717775", "0.02045532836091670554193659367005973002995",
     "-0.2149745259700088612797986509714475363700", "-0.1526833878043107102595170608357318317575",
     "-0.01072513845138278285091090166874586796672", "-0.09558673491479274740703309316381990215463"],
]


@pytest.mark.parametrize("v_m, delta, base, gradient, x, y, expected", SPRAY_REFERENCE)
def test_spray_matches_symbolic_reference(v_m, delta, base, gradient, x, y, expected):
    m = NavMetric(NavMetricParams(v_m, delta), LinearField(base, gradient))
    # the numpy reference is the float flow's oracle (test_planar_flow_matches_spray_many): pin it too
    sprays = [spray_many(m, np.array([x]), np.array([y]))[0]]
    if len(x) == 2:
        sprays.append(spray_coefficients(m, np.array(x), np.array(y)))
    else:  # the geodesic flow is planar
        with pytest.raises(InvalidInputError, match="2-d constant or linear field"):
            spray_coefficients(m, np.array(x), np.array(y))
    ref = np.array([float(v) for v in expected])
    for G in sprays:
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


# (dF/dy, dF/dx, g_ij row-major) at the SPRAY_REFERENCE points, from exact symbolic
# derivatives of F and F^2/2 (sympy 1.14, inputs taken as their exact binary values,
# evaluated at 60 digits, kept to 25)
GRADIENT_REFERENCE = [
    (["0.5986784443041598107127646", "-0.1708057183739897119698873"], ["0.0", "0.1556212401569390647015134"],
     ["0.3976689473554888408705763", "-0.001321242003149241676701534", "-0.001321242003149241676701534",
     "0.2887254899324570744622239"]),
    (["-0.2416866595955822046473756", "0.4688810235124547461362306"], ["0.0", "-0.04928155561898089341418586"],
     ["0.2968870049596829835390268", "-0.02660426521749658990508626", "-0.02660426521749658990508626",
     "0.2513832407929912256053828"]),
    (["0.6658517182115564341353062", "-0.05187592788983498954961707"], ["0.0", "0.3406996897587894478310429"],
     ["0.4474223530674987502644261", "9.848695773341072719198781E-7", "9.848695773341072719198781E-7",
     "0.2963037268995948208793213"]),
    (["-0.4777380601908533253764607", "0.1642149952588913927975320"], ["-0.006369993049279088347959813",
     "0.04713794856466524083293592"], ["0.2500859335129100473701108", "-0.005610822095930771925682053",
     "-0.005610822095930771925682053", "0.2697696686455516574066176"]),
    (["0.05530003692757230623237237", "-0.6156833824636196684522991"], ["-0.05714467619969700270057923",
     "-0.001843376651603131017392138"], ["0.3141944252083587866095240", "0.05484878082097434092214127",
     "0.05484878082097434092214127", "0.4044649116152452444646604"]),
    (["-0.3648999095988748393588776", "0.3264610504366104607914191"], ["0.02890352276271116635662692",
     "0.09827197739321798197810334"], ["0.2038316007217539493097912", "-0.001326179964394677911305629",
     "-0.001326179964394677911305629", "0.3029091971646387835276744"]),
    (["-0.1558036629814823613032249", "0.2411833987126083858327261", "-0.1590258309533010253666696"],
     ["-0.02773405938479333620975810", "0.008533556733782565807496344", "0.03413422693513025790077534"],
     ["0.1158124813558736806009092", "-0.004658314020591827407143007", "-0.002727789310426584287432282",
     "-0.004658314020591827407143007", "0.1138324613620192560523082", "0.006535189330036999425377037",
     "-0.002727789310426584287432282", "0.006535189330036999425377037", "0.1020296367746701077350429"]),
    (["0.3351876675388730574527243", "0.06302123812830884243523407", "-0.08529107236461830627585850"],
     ["0.001232104643712660569822874", "0.04373971485179945689727787", "-0.01170499411527027712320598"],
     ["0.1198137772964640300010682", "0.005009397824272907252697364", "-0.004504189077898502087730253",
     "0.005009397824272907252697364", "0.1213690001960460774135223", "-0.002311471771540571801484385",
     "-0.004504189077898502087730253", "-0.002311471771540571801484385", "0.1217105423046924577511086"]),
]


@pytest.mark.parametrize("point, expected", zip(SPRAY_REFERENCE, GRADIENT_REFERENCE))
def test_gradients_and_tensor_match_symbolic_reference(point, expected):
    v_m, delta, base, gradient, x, y, _ = point
    m = NavMetric(NavMetricParams(v_m, delta), LinearField(base, gradient))
    _, dFdy, dFdx = m.gradients_many(np.array([x]), np.array([y]))
    g = m.fundamental_tensor(np.array(x), np.array(y))
    for got, values in zip((dFdy[0], dFdx[0], g.ravel()), expected):
        ref = np.array([float(v) for v in values])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


unit = st.floats(-1.0, 1.0)


@settings(max_examples=40)
@given(
    v_m=st.floats(1.5, 3.0),
    delta=st.floats(-0.6, 0.6),
    field=st.lists(unit, min_size=6, max_size=6),
    rows=st.lists(st.lists(unit, min_size=4, max_size=4), min_size=1, max_size=5),
)
def test_spray_many_rows_match_single_row_and_finite_differences(v_m, delta, field, rows):
    f = LinearField(0.3 * np.array(field[:2]), 0.3 * np.reshape(field[2:], (2, 2)))
    m = NavMetric(NavMetricParams(v_m, delta), f)
    X = 2.0 * np.array([r[:2] for r in rows])
    Y = 2.0 * np.array([r[2:] for r in rows])
    # keep strongly convex rows: the oracle inverts the fundamental tensor
    keep = [
        k for k in range(len(rows))
        if np.linalg.norm(Y[k]) > 1e-2 and np.linalg.norm(f(X[k])) < 0.45 * v_m * math.cos(delta)
    ]
    if not keep:
        return
    X, Y = X[keep], Y[keep]
    c = v_m * math.cos(delta)
    for x, y, g in zip(X, Y, spray_many(m, X, Y)):
        G = spray_coefficients(m, x, y)
        # each term of the closed form is of size |y|^2 |dv_T/dx| / c
        scale = max(np.linalg.norm(g), float(y @ y) * np.linalg.norm(f.gradient) / c)
        assert np.linalg.norm(G - g) <= 1e-12 * scale
        assert np.linalg.norm(G - _fd_spray(m, x, y)) <= 1e-4 * scale


def test_spray_of_linear_field_calls_no_finite_difference(shear_metric, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form spray must not difference")

    for name in numdiff.__all__:
        if callable(getattr(numdiff, name)):
            monkeypatch.setattr(numdiff, name, forbidden)
    x = np.array([-1.2, 0.7])
    y = np.array([0.9, -0.35])
    assert np.all(np.isfinite(spray_coefficients(shear_metric, x, y)))


def test_spray_many_gates_the_domain():
    # the numpy reference raises where the float flow must: its gate is the oracle's
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField([2.0, 0.0], np.eye(2)))
    with pytest.raises(OutOfDomainError):
        spray_many(m, np.zeros((2, 2)), np.array([[-1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        spray_many(m, np.zeros((1, 2)), np.zeros((1, 2)))
    flat = NavMetric(NavMetricParams(1.0, 0.0), ConstantField([0.5, 0.0]))
    assert np.array_equal(spray_many(flat, np.ones((2, 2)), np.array([[0.0, 1.0], [-1.0, 0.0]])), np.zeros((2, 2)))
    # and so does the package's spray
    with pytest.raises(OutOfDomainError):
        spray_coefficients(m, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        spray_coefficients(m, np.zeros(2), np.zeros(2))
    assert np.array_equal(spray_coefficients(flat, np.ones(2), np.array([0.0, 1.0])), np.zeros(2))


@pytest.mark.parametrize("reference, expected", zip([r for r in SPRAY_REFERENCE if len(r[4]) == 2], BERWALD_REFERENCE))
def test_berwald_matches_symbolic_reference(reference, expected):
    v_m, delta, base, gradient, x, y, _ = reference
    m = NavMetric(NavMetricParams(v_m, delta), LinearField(base, gradient))
    B = berwald_coefficients(m, np.array(x), np.array(y))
    ref = np.array([float(v) for v in expected])
    # measured: 6.1e-16 of the largest entry
    assert np.max(np.abs(B[:, [0, 0, 1], [0, 1, 1]].ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_berwald_symmetry_and_contraction(shear_metric):
    """G^i_jk is exactly symmetric in (j, k) and 1/2 B:y:y recovers the spray."""
    x = np.array([-1.0, 0.5])
    y = shear_metric.unit_vector(x, np.array([0.9, -0.3]))
    B = berwald_coefficients(shear_metric, x, y)
    np.testing.assert_array_equal(B, np.swapaxes(B, 1, 2))
    G = spray_coefficients(shear_metric, x, y)
    np.testing.assert_allclose(0.5 * np.einsum("ijk,j,k->i", B, y, y), G, rtol=1e-14, atol=0.0)


@settings(max_examples=60)
@given(draw=convex_shear.strategy(), where=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi),
       speed=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
def test_berwald_contracts_to_the_spray_over_convex_shear(draw, where, phi, speed):
    # Euler's identity for the 2-homogeneous spray, 1/2 B:y:y = G, relative to the contraction's size max |B| |y|^2
    # (G itself can cancel to near zero): measured 7.6e-16 over 5,000 seeded draws.  |v_T| <= 0.9 < c on the start
    # disk, so every velocity there is in the strongly convex domain
    sc, field = draw
    m = NavMetric(NavMetricParams(sc.v_m), field)
    x, y = where * sc.r0, speed * np.array([math.cos(phi), math.sin(phi)])
    B = berwald_coefficients(m, x, y)
    defect = np.max(np.abs(0.5 * np.einsum("ijk,j,k->i", B, y, y) - spray_coefficients(m, x, y)))
    assert defect <= 1e-14 * np.max(np.abs(B)) * (y @ y)


def test_covariant_derivative_flat_reduces_to_plain_derivative(example_metric):
    t = np.linspace(0.0, 1.0, 41)
    pos = np.stack([-1000.0 + 120.0 * t, 40.0 * t], axis=1)
    vel = np.repeat(np.array([[120.0, 40.0]]), t.size, axis=0)
    curve = curve_from_arrays(example_metric, t, pos, vel)
    Y = np.stack([np.sin(t), np.cos(2.0 * t)], axis=1)
    expected = np.gradient(Y, t, axis=0, edge_order=2)
    for variant in ("quadratic", "affine"):
        got = _covariant_rate([example_metric] * curve.n_nodes, curve, Y, variant)
        np.testing.assert_allclose(got, expected, atol=1e-9)
    with pytest.raises(InvalidInputError):
        _covariant_rate([example_metric] * curve.n_nodes, curve, Y, "other")


def test_integrate_geodesic_conserves_f(shear_metric, shear_start):
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=5e-3)
    assert curve.n_nodes == 401
    assert float(np.max(np.abs(curve.F_values - 1.0))) < 1e-7


@pytest.mark.parametrize(
    "horizon, step",
    [(1.0, 0.3), (1e-9, 0.3e-9), (math.nan, 1e-2), (1.0, math.nan), (math.inf, 1e-2), (1.0, math.inf)],
)
def test_integrate_geodesic_rejects_bad_horizon_or_step(shear_metric, shear_start, horizon, step):
    # 0.3 does not divide 1.0 at any scale; NaN and infinite values are not positive finite numbers
    x0, y0 = shear_start
    with pytest.raises(InvalidInputError):
        integrate_geodesic(shear_metric, x0, y0, horizon=horizon, step=step)


def test_rk4_step_is_the_fourth_order_taylor_step_on_linear_systems():
    A = np.array([[0.0, 1.0, 0.0], [-2.0, -0.3, 0.5], [0.1, 0.0, -1.0]])
    z = np.array([0.7, -1.2, 0.4])
    h = 0.25

    def f(zz):
        return A @ zz

    hA = h * A
    taylor = z + hA @ z + hA @ hA @ z / 2.0 + hA @ hA @ hA @ z / 6.0 + hA @ hA @ hA @ hA @ z / 24.0
    np.testing.assert_allclose(rk4_step(f, z, h), taylor, rtol=0.0, atol=1e-15)


def test_integrate_geodesic_short_horizon(shear_metric, shear_start):
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=0.5, step=1e-2)
    assert curve.n_nodes == 51
    np.testing.assert_allclose(curve.positions[0], x0)


def test_partial_curve_on_domain_exit():
    # the rotating field v_T = 4 (x2, -x1) outruns the pursuer outside |x| = 1/4;
    # on the coarse step the course spirals in and an RK4 stage of step 4 stops closing
    m = NavMetric(NavMetricParams(1.0, 0.0), LinearField([0.0, 0.0], [[0.0, 4.0], [-4.0, 0.0]]))
    x0 = np.array([-1.0, 0.0])
    y0 = m.unit_vector(x0, -x0)
    with pytest.raises(PartialCurveError, match="during step 4") as exc_info:
        integrate_geodesic(m, x0, y0, horizon=5.0, step=0.5)
    partial = exc_info.value.partial
    assert partial is not None
    np.testing.assert_array_equal(partial.times, np.arange(5) * 0.5)
    # the prefix is the course the completed steps integrate to
    prefix = integrate_geodesic(m, x0, y0, horizon=2.0, step=0.5)
    np.testing.assert_array_equal(partial.positions, prefix.positions)
    np.testing.assert_array_equal(partial.velocities, prefix.velocities)


def _step_lands_outside_the_domain():
    """A metric and start ``(x0, y0)`` whose geodesic's step 1 of 0.5 completes outside the domain."""
    field = LinearField(
        [-0.1122950392032509, -0.4519825765820963],
        [[1.8029114663218433, 1.5018035747708627], [3.3862139859998583, 2.120214740918297]],
    )
    m = NavMetric(NavMetricParams(1.0, 0.0), field)
    x0 = np.array([0.3126756136731912, -0.9762293199416299])
    y0 = m.unit_vector(x0, np.array([math.cos(0.32925720094492933), math.sin(0.32925720094492933)]))
    return m, x0, y0


def test_partial_curve_when_a_completed_step_lands_outside_the_domain():
    # step 1 completes outside the domain and step 2 fails on its starting node,
    # which the partial curve leaves out
    m, x0, y0 = _step_lands_outside_the_domain()
    with pytest.raises(PartialCurveError, match="during step 2") as exc_info:
        integrate_geodesic(m, x0, y0, horizon=20.0, step=0.5)
    partial = exc_info.value.partial
    assert partial is not None
    np.testing.assert_array_equal(partial.times, [0.0, 0.5])
    np.testing.assert_array_equal(partial.positions[0], x0)
    assert np.all(np.isfinite(partial.F_values))
    m.F_many(partial.positions, partial.velocities)  # every node is in the domain


def test_partial_curve_when_the_last_step_lands_outside_the_domain():
    # the course above over two steps only: the last step completes outside the domain, and the error
    # keeps the same in-domain prefix as the longer horizon does
    m, x0, y0 = _step_lands_outside_the_domain()
    errors = []
    for horizon in (1.0, 20.0):
        with pytest.raises(PartialCurveError) as exc_info:
            integrate_geodesic(m, x0, y0, horizon=horizon, step=0.5)
        errors.append(exc_info.value)
    last, longer = errors
    assert last.partial is not None
    assert str(last) == str(longer)
    np.testing.assert_array_equal(last.partial.times, [0.0, 0.5])
    for name in ("positions", "velocities", "F_values"):
        np.testing.assert_array_equal(getattr(last.partial, name), getattr(longer.partial, name))


@pytest.mark.parametrize(
    "x0, y0",
    [([math.nan, 0.9], [0.3, -0.2]), ([-1.6, 0.9], [math.inf, -0.2]), ([-1.6, 0.9, 0.0], [0.3, -0.2])],
)
def test_integrate_geodesic_rejects_bad_start(shear_metric, x0, y0):
    with pytest.raises(InvalidInputError, match="finite 2-vector"):
        integrate_geodesic(shear_metric, x0, y0, horizon=1.0, step=0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda m, x, y: spray_coefficients(m, x, y),
        lambda m, x, y: berwald_coefficients(m, x, y),
        lambda m, x, y: integrate_geodesic(m, x, y, horizon=1.0, step=0.1),
    ],
    ids=["spray", "berwald", "integrate"],
)
def test_geodesic_flow_takes_only_planar_constant_or_linear_fields(call):
    m = NavMetric(NavMetricParams(3.0, -0.2), LinearField(*_FIELD3))
    with pytest.raises(InvalidInputError, match="2-d constant or linear field"):
        call(m, np.array([0.4, -0.7, 0.9]), np.array([-0.6, 1.0, -0.8]))


def test_integrate_geodesic_steps_the_shooters_flow(shear_metric):
    # one shot of the shear course, aimed at the origin: the same full-step states, bit for bit
    x0 = np.array([-1.6, 0.9])
    step = shear_metric.F(x0, -x0) / 512.0
    flow = _PlanarFlow(shear_metric)
    shot = optimal._shoot(shear_metric, flow, x0, math.atan2(-x0[1], -x0[0]), step, 2000, 0.05)
    n = len(shot.states) - 2  # the last node is the bisected end point, inside the last step
    assert n > 100
    curve = integrate_geodesic(shear_metric, x0, np.array(shot.states[0][2:]), horizon=n * step, step=step)
    Z = np.array(shot.states[:-1])
    np.testing.assert_array_equal(curve.times, shot.times[:-1])
    np.testing.assert_array_equal(curve.positions, Z[:, :2])
    np.testing.assert_array_equal(curve.velocities, Z[:, 2:])


def test_action_integral_of_unit_curve_is_elapsed_time(shear_metric, shear_start):
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    assert action_integral(curve) == pytest.approx(2.0, abs=1e-6)


def test_el_residual_separates_geodesics_from_perturbations(shear_metric, shear_start):
    x0, y0 = shear_start
    curve = integrate_geodesic(shear_metric, x0, y0, horizon=2.0, step=1e-2)
    base = euler_lagrange_residual(shear_metric, curve)
    assert float(np.max(base)) < 1e-4

    bump = 0.02 * np.sin(math.pi * curve.times / 2.0) ** 2
    dbump = 0.02 * math.pi * np.sin(math.pi * curve.times / 2.0) * np.cos(math.pi * curve.times / 2.0)
    pos = curve.positions.copy()
    vel = curve.velocities.copy()
    pos[:, 0] += bump
    vel[:, 0] += dbump
    wiggled = curve_from_arrays(shear_metric, curve.times, pos, vel)
    ratio = float(np.max(euler_lagrange_residual(shear_metric, wiggled))) / float(np.max(base))
    assert ratio > 10.0
