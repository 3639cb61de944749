"""Shared fixtures: the r0=1000 reference engagement and the shear-field metric, and a per-test time limit."""

import math
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from parnav import (
    ConstantField,
    LinearField,
    NavMetric,
    NavMetricParams,
    Scenario,
)

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI also runs the suite with ``--hypothesis-profile=explore --hypothesis-seed=N``: other draws than the one
# derandomized stream, kept nowhere
settings.register_profile("explore", settings.get_profile("repo"), derandomize=False, database=None)
settings.load_profile("repo")

TEST_SECONDS = 60.0  # per-test time limit, far above the slowest test (about 3 s)


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_SECONDS``; not an ``Exception``, so that neither the code
    under test nor hypothesis (which would replay and shrink the hanging example) catches it."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past ``TEST_SECONDS`` with its traceback, instead of hanging the suite."""
    if not hasattr(signal, "setitimer"):  # no interval timer on this platform: no limit
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TEST_SECONDS:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# Reference engagement: r0 = 1000, v_T = 100, K = 2, theta0 = 60 deg.
# sin(delta0) = sin(theta0)/K = sqrt(3)/4, so cos(delta0) = sqrt(13)/4 and the
# range shrinks at 200*sqrt(13)/4 - 100/2 = 50*(sqrt(13) - 1).
THETA0 = math.pi / 3.0
DELTA0 = math.asin(math.sqrt(3.0) / 4.0)
CLOSING = 50.0 * (math.sqrt(13.0) - 1.0)
TF_ORIGIN = 1000.0 / CLOSING
TF_SPHERE = (1000.0 - 0.5) / CLOSING  # simulation stops on the default hit sphere


@pytest.fixture(scope="session")
def example_scenario() -> Scenario:
    return Scenario.nonmaneuvering(1000.0, 100.0, THETA0, ratio=2.0)


@pytest.fixture(scope="session")
def example_metric(example_scenario) -> NavMetric:
    return NavMetric(
        NavMetricParams(example_scenario.v_m, 0.0),
        ConstantField(example_scenario.program.vector),
    )


@pytest.fixture(scope="session")
def shear_metric() -> NavMetric:
    """Pursuer speed 2 in a weak shear: v_T = (0.1 + 0.45*x2, 0)."""
    return NavMetric(
        NavMetricParams(2.0, 0.0),
        LinearField([0.1, 0.0], [[0.0, 0.45], [0.0, 0.0]]),
    )


@pytest.fixture(scope="session")
def shear_start(shear_metric):
    """Start point and unit initial velocity aimed at the origin."""
    x0 = np.array([-1.6, 0.9])
    return x0, shear_metric.unit_vector(x0, -x0)
