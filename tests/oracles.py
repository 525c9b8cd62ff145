"""Reference quadratures the kernel tests compare against.

Each is the plainest form of one integral on a `cnls.grid.RadialGrid`,
one profile at a time, with fresh temporaries: the package's kernels
(`action_parts_raw`, `neg_lap_plus_raw`, `operator_tridiag`) must agree
with them.  `fsum_dot` is the reference of the BLAS kernel `dot`.  No
package code calls them.
"""

import math

import numpy as np


def ball_volume(N, R):
    """Volume of the radius-R ball in R^N (the half-line doubled for N = 1)."""
    if N == 1:
        return 2.0 * R
    if N == 2:
        return math.pi * R**2
    return 4.0 / 3.0 * math.pi * R**3


def fsum_dot(a, b):
    """sum_j a_j b_j of two 1-D arrays: each product rounded once, their sum
    exact and then rounded (math.fsum)."""
    return math.fsum(x * y for x, y in zip(a.tolist(), b.tolist()))


def wdot(grid, a, b):
    """Weighted L^2 pairing sum_j w_j a_j b_j."""
    return float(np.dot(grid.weights, a * b))


def h1_sq_raw(grid, values, lam):
    """Discrete integral of |u'|^2 + lam*u^2 (weighted by s_N r^(N-1))."""
    du = values[1:] - values[:-1]
    stiff = float(np.dot(grid.conductance, du * du))
    mass = float(np.dot(grid.weights, values * values))
    return stiff + lam * mass


def l4_raw(grid, values):
    """Discrete integral of u^4."""
    v2 = values * values
    return float(np.dot(grid.weights, v2 * v2))
