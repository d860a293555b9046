"""Quaternion arithmetic and the 2x2 complex picture.

Walks through the basis rules, the norm as a determinant, and the almost
complex structure that conjugates the embedding.
"""

import numpy as np

from qflag import I, J, K, Quaternion, from_m2c, j_conjugate, to_m2c
from qflag.quaternion import random_quaternion

rng = np.random.default_rng(0)

print("basis products: ij =", I * J, " jk =", J * K, " ki =", K * I)
print("squares:        ii =", I * I, " jj =", J * J, " kk =", K * K)

q = Quaternion(1.0, 2.0, -0.5, 0.25)
print("\nq            =", q)
print("conjugate    =", q.conj())
print("|q|^2        =", q.norm_sq())
print("q qbar       =", q * q.conj(), " (norm times the identity)")

m = to_m2c(q)
print("\n2x2 image of q:\n", m)
print("det(image)   =", np.linalg.det(m).real, " equals |q|^2")
print("round trip   =", from_m2c(m))

print("\nthe embedding is a ring homomorphism:")
a, b = random_quaternion(rng), random_quaternion(rng)
gap = np.abs(to_m2c(a * b) - to_m2c(a) @ to_m2c(b)).max()
print("  |m(ab) - m(a)m(b)| =", gap)

print("\nj' m j inverts the complex units (entrywise conjugation):")
print("  residual =", np.abs(j_conjugate(m) - m.conj()).max())
print("  applying it twice returns m:",
      np.abs(j_conjugate(j_conjugate(m)) - m).max())
