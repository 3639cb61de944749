"""Finite-difference helpers checked against polynomials with exact derivatives."""

import subprocess
import sys

import numpy as np

from parnav import numdiff


def _quadratic_energy(A):
    def energy_many(X, Y):
        return np.einsum("ij,jk,ik->i", Y, A, Y)

    return energy_many


def test_y_hessian_exact_on_quadratic():
    A = np.array([[2.0, 0.7], [0.7, 1.3]])
    E = _quadratic_energy(A)
    H = numdiff.y_hessian(E, np.zeros(2), np.array([0.8, -0.5]))
    np.testing.assert_allclose(H, A + A.T, rtol=1e-7)


def test_y_gradient_on_quartic():
    def E(X, Y):
        return np.linalg.norm(Y, axis=1) ** 4

    y = np.array([1.2, -0.4])
    grad = numdiff.y_gradient(E, np.zeros(2), y)
    np.testing.assert_allclose(grad, 4.0 * np.dot(y, y) * y, rtol=1e-6)


def test_x_gradient_on_bilinear():
    a = np.array([0.3, -1.1])

    def E(X, Y):
        return (X @ a) ** 2

    x = np.array([2.0, 0.5])
    grad = numdiff.x_gradient(E, x, np.ones(2))
    np.testing.assert_allclose(grad, 2.0 * (x @ a) * a, rtol=1e-7)


def test_xy_mixed_layout():
    """M[l, k] must be d2 E / dy_l dx_k."""
    a = np.array([0.7, -0.2])
    b = np.array([1.5, 0.4])

    def E(X, Y):
        return (X @ a) * (Y @ b)

    M = numdiff.xy_mixed(E, np.array([0.3, 0.9]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(M, np.outer(b, a), rtol=1e-7, atol=1e-10)


def test_relative_steps_track_scale():
    """The y-step is relative, so conditioning survives large magnitudes."""
    A = np.eye(2)
    E = _quadratic_energy(A)
    for scale in (1e-2, 1.0, 1e4):
        H = numdiff.y_hessian(E, np.zeros(2), np.array([scale, 0.5 * scale]))
        np.testing.assert_allclose(H, 2.0 * np.eye(2), rtol=1e-6)


def test_importing_the_package_loads_no_finite_differences():
    # a fresh interpreter: this test session has imported numdiff already
    code = "import sys, parnav, parnav.cli; print('parnav.numdiff' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
