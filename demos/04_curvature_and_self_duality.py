"""Connection blocks, the structure equation, curvature pieces, and the
self-dual split of quaternion area elements.
"""

import numpy as np

from qflag import curvature_blocks, dY_wedge, hodge_star
from qflag.coset import GrassmannPoint, curvature_det, curvature_trace
from qflag.forms import connection_blocks, maurer_cartan_residual
from qflag.quaternion import Quaternion
from qflag.quatmat import random_quatmat, random_skew_adjoint

rng = np.random.default_rng(3)

gen = random_skew_adjoint(rng, 4)
# connection g* dg along g(t) = exp(t gen), differentiated exactly
w11, w12, w21, w22 = connection_blocks(gen, 0.3, 2, 2)
print("connection is skew: ||w21 + w12*|| =", (w21 + w12.adjoint()).max_abs())

iso = random_skew_adjoint(rng, 4)
iso.a[:2, 2:, :] = 0.0
iso.a[2:, :2, :] = 0.0
_, w12i, _, _ = connection_blocks(iso, 0.3, 2, 2)
print("inside the block subgroup the off-diagonal block vanishes:",
      w12i.max_abs())

g1, g2 = random_skew_adjoint(rng, 3), random_skew_adjoint(rng, 3)
print("structure equation d w + w ^ w = 0 on exp(s g1 + t g2), residual:",
      maurer_cartan_residual(g1, g2, 0.1, -0.2))

x = GrassmannPoint(random_quatmat(rng, 1, 1, 0.5))
u, v = random_quatmat(rng, 1, 1), random_quatmat(rng, 1, 1)
blocks = curvature_blocks(x, u, v)
print("\ntwo-particle curvature pieces (equal magnitude):",
      blocks["r11"].norm(), blocks["r22"].norm())

print("\nself-dual / anti-self-dual split of dY ^ dY* and dY* ^ dY:")
sd, asd = dY_wedge()
for r, s in zip(*np.triu_indices(4, 1)):
    print(f"  dx{r}^dx{s}: sd={Quaternion.from_array(sd[r, s])}, "
          f"asd={Quaternion.from_array(asd[r, s])}")

# the star acts on each quaternion component on its own
star_plus = np.abs(hodge_star(sd) - sd).max()
star_minus = np.abs(hodge_star(asd) + asd).max()
print("Hodge eigenvalues: +1 sector residual =", star_plus,
      ", -1 sector residual =", star_minus)

q = random_quatmat(rng, 2, 5, 0.8)
lhs, rhs = curvature_trace(q)
print("\nmetric-tensor trace identity: lhs =", lhs, " rhs =", rhs)
print("metric-tensor determinant |1+QQ*|^-(k+n) =", curvature_det(q))
