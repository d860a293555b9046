"""The 4-sphere: Einstein property from the exact derivatives of the metric
and the radial solutions of the Laplace-Beltrami equation.
"""

import math
from fractions import Fraction

import numpy as np

from qflag.s4lb import (angular_jet, einstein_check, fs_metric,
                        lb_radial_residual, make_f0, make_gl,
                        random_chart_points, weighted_absolute_integral)

rng = np.random.default_rng(4)

print("metric at the chart origin:\n", fs_metric(np.zeros(4)))
rep = einstein_check(random_chart_points(rng, 10))
print(f"\nEinstein constant on the y-chart: lambda = {rep['lambda']:.6f} "
      f"(spread {rep['relative_spread']:.1e})")

ang = einstein_check(
    [np.array([1.1, 0.9, 1.0, 2.0]), np.array([2.0, 1.7, 0.3, 4.0])],
    metric_fn=angular_jet)
print(f"polar chart (metric scaled by 4): lambda = {ang['lambda']:.6f}; "
      "Ricci is scale invariant, so 4x this matches the y-chart value")

f0 = make_f0()
print("\nstatic potential f0 = -cot w / sin w + log tan(w/2):")
print("  value at the equator:", f0.value(math.pi / 2))
grid = np.linspace(0.1, math.pi - 0.1, 7)
print("  residuals:", [f"{lb_radial_residual(f0, w):.1e}" for w in grid])

print("\npolynomial family g_l (frequency-shifted equation):")
for ell, big_n in ((1, 0), (Fraction(3, 2), 0), (2, 1)):
    sol = make_gl(ell, big_n)
    worst = max(abs(lb_radial_residual(sol, w))
                for w in np.linspace(0.3, math.pi - 0.3, 25))
    print(f"  l={ell}, N={big_n}: theta^2={sol.theta_sq}, "
          f"coefficients={[f'{c:.4g}' for c in sol.coeffs]}, "
          f"residual={worst:.1e}, integrable={sol.integrable}")

print("\nvolume-weighted integrability (shrinking the pole cutoff):")
for eps in (0.1, 0.01, 0.001):
    print(f"  eps={eps:6g}: f0 -> {weighted_absolute_integral(f0, eps):8.4f}, "
          f"g_1 -> {weighted_absolute_integral(make_gl(1, 0), eps):9.2f}")
print("the static solution stays bounded; l > 1/2 diverges at the source")
