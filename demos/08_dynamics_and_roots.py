"""Evolution under the skew algebra, exchange channels, geodesic blocks,
and the root-system particle labels.
"""

import math

import numpy as np

from qflag import euler_characteristic, expm, generate, particle_label
from qflag.dynamics import (cocycle_residual, evolve, geodesic_block,
                            geodesic_generator, random_state,
                            time_reversal_residual, transition_split)
from qflag.quaternion import random_unit_quaternion, sq_norms
from qflag.quatmat import random_skew_adjoint

rng = np.random.default_rng(6)

gen = random_skew_adjoint(rng, 3)
psi = random_state(rng, 3, 1)
times = np.array([0.0, 2.5, 5.0, 10.0])
print("norm of the state along the flow (conserved):")
for t, norm_sq in zip(times, evolve(gen, psi, times).norm_sq()):
    print(f"  t={t:5.1f}: |psi|^2 = {norm_sq:.12f}")

print("\ncocycle g(t) = g(t - t0) g(t0):",
      cocycle_residual(gen, 2.7, 1.3))
print("time reversal + conjugation is the identity:",
      time_reversal_residual(gen, 3.0))

split = transition_split(gen, psi)
print("\nexchange channels at t=0:")
print("  into the system  :",
      [f"{q:.3f}" for q in np.sqrt(sq_norms(split.exchange_in))])
print("  out to surroundings:",
      [f"{q:.3f}" for q in np.sqrt(sq_norms(split.exchange_out))])

u = random_unit_quaternion(rng).to_array()
omega = 1.3
blk = geodesic_block(u, omega, 0.8)
ex = expm(geodesic_generator(u) * (omega * 0.8))
print("\ngeodesic block equals the exponential:", (blk.m - ex).max_abs())
period = 2 * math.pi / omega
drift = (geodesic_block(u, omega, 0.8 + period).m - blk.m).max_abs()
print("periodicity 2 pi / omega:", drift)

print("\nroot systems (count is twice the squared rank):")
for n in range(1, 5):
    print(f"  rank {n}: {len(generate(n).roots)} roots")

print("\nparticle labels from weight terms:")
print("  [2 L1]              ->", particle_label([((2, 0, 0, 0), None)]))
print("  [L1, L2]            ->",
      particle_label([((1, 0, 0, 0), None), ((0, 1, 0, 0), None)]).label)
print("  [-L1, L2]           ->",
      particle_label([((-1, 0, 0, 0), None), ((0, 1, 0, 0), None)]).label)
proton_like = particle_label([((1, 0, 0, 0), "i"), ((1, 0, 0, 0), "j"),
                              ((0, 1, 0, 0), "k")])
print("  [L1 i, L1 j, L2 k]  ->", proton_like.label,
      f"({proton_like.classification}, colours "
      f"{[t for _, t in proton_like.terms]})")

print("\nEuler characteristic of even spheres:",
      [euler_characteristic(d) for d in (2, 4, 8, 12)])
