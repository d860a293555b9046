"""The generator calculus: exact commutators, ladder shifts, and the
Laplace-Beltrami composite.

Everything here is symbolic with exact rational coefficients, so the
printed residuals are exact integers (term counts), not floats.
"""

from qflag.liealg import (PolyFunction, commutator, gen_H, gen_h, gen_p,
                          gen_pbar, ladder_check, laplace_beltrami, linear_part,
                          verify_commutation_table)

k, n = 1, 2
print(f"partition k={k}, n={n}: matrix entries are 2k x 2(n-k) = "
      f"{2 * k} x {2 * (n - k)}")

p = gen_p(0, 0, k, n)
print("\none off-diagonal generator:")
print("  p[0,0] =", p)
print("  linear part (near the origin):", linear_part(p))
print("  conjugate pbar[0,0] =", gen_pbar(0, 0, k, n))

print("\n[pbar, p] closes back onto the diagonal generators:")
bracket = commutator(gen_pbar(0, 0, k, n), gen_p(0, 0, k, n))
closure = gen_H(0, 0, k, n) + gen_h(0, 0, k, n)
print("  [pbar_00, p_00] == H_00 + h_00 :", bracket == closure)

report = verify_commutation_table(k, n)
print("\nfull commutation table:")
for family, entry in report["families"].items():
    print(f"  {family:9s} cases={entry['cases']:3d} passed={entry['passed']}")
print("  all passed:", report["all_passed"])

print("\nladder action on an eigen-monomial:")
vec = PolyFunction.z(0, 0)
rep = ladder_check(k, n, vec)
print(f"  eigenvalue {rep['H_eigenvalue']} -> raised to {rep['raised']}, "
      f"h-eigenvalue {rep['h_eigenvalue']} -> lowered to {rep['lowered']}")

lap = laplace_beltrami(k, n)
print("\nLaplace-Beltrami composite:")
print("  order:", lap.order())
print("  kills constants:", lap.apply(PolyFunction.constant(1)).is_zero())
print("  J-conjugation invariant:", lap.conjugate() == lap)
h00 = gen_h(0, 0, k, n)
print("  commutes with a Cartan generator:",
      lap.compose(h00) == h00.compose(lap))
