"""The Grassmannian coset: exponential coordinates, the fractional action,
projective identities, and the invariant metric.

The quotient of the rank-4 group by its 2+2 block subgroup carries 2x2
quaternion coordinates X; group elements act by Y = (AX+B)(CX+D)^{-1}.
"""

import numpy as np

from qflag import (GrassmannPoint, coset_element, cross_ratio, expm,
                   lft_apply, lft_apply_second_form, metric_form,
                   metric_form_expanded, transport_identities)
from qflag.coset import (coset_generator, inversion_invariance_residual,
                         metric_invariance_residual)
from qflag.quatmat import random_group_element, random_quatmat

rng = np.random.default_rng(2)

xi = random_quatmat(rng, 2, 2, 0.5)
closed = coset_element(xi)
print("closed-form coset element vs exponential:",
      (closed.m - expm(coset_generator(xi))).max_abs())

g = random_group_element(rng, 4)
x = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
y = lft_apply(g, x)
y2 = lft_apply_second_form(g, x)
print("the two faces of the fractional action agree:",
      (y.x - y2.x).max_abs())

g2 = random_group_element(rng, 4)
law = (lft_apply(g2, y).x - lft_apply(g2 @ g, x).x).max_abs()
print("composition law g2 (g1 x) = (g2 g1) x:", law)

xb = GrassmannPoint(random_quatmat(rng, 2, 2, 0.5))
print("\ntransport identities (max residual per identity):")
for name, res in transport_identities(g, x, xb).items():
    print(f"  {name:22s} {res:.2e}")

pts = [GrassmannPoint(random_quatmat(rng, 2, 2, 0.5)) for _ in range(4)]
before = cross_ratio(*pts)
after = cross_ratio(*[lft_apply(g, p) for p in pts])
print(f"\ncross-ratio before/after the action: {before:.12f} "
      f"/ {after:.12f}")

dx = random_quatmat(rng, 2, 2)
print("\nline element, two equivalent forms:",
      metric_form(x, dx), metric_form_expanded(x, dx))
print("invariance under the action (exact tangent transport):",
      metric_invariance_residual(g, x, dx))

q, dq = random_quatmat(rng, 1, 1), random_quatmat(rng, 1, 1)
print("rank-one inversion invariance X -> X^{-1}:",
      inversion_invariance_residual(GrassmannPoint(q), dq))
