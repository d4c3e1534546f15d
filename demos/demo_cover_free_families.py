# Polynomial point sets over a prime field make a cover-free family: the set
# of a degree-<=d polynomial meets any other in at most d points, so no small
# group of sets can bury another one.  These families drive the deterministic
# coloring pipeline.

from genlabel import PolyFamily, residual_elements, smallest_prime_geq, verify_cover_free

q = smallest_prime_geq(5)
family = PolyFamily(q=q, d=2)
print(f"field GF({q}), degree <= 2: {family.family_size} sets over a ground "
      f"set of {q * q} points, each of size {q}")

# The set of a polynomial g is {(a, g(a))}; index 0 is the zero polynomial.
print("set of the zero polynomial:", sorted(family.set_elements(0)))

# Two quadratics agree on at most 2 abscissas, so 2 other sets can cover at
# most 4 of the 5 points of any set: at least one point always survives.
leftovers = residual_elements(family, s0=7, others=[30, 88], rho=0)
print("elements of set 7 untouched by sets 30 and 88:", leftovers)

# Brute-force certification, first exhaustively on the line family (d=1)...
lines = PolyFamily(q=5, d=1)
verdict = verify_cover_free(lines, delta=4, rho=0, mode="exhaustive")
print(f"lines over GF(5), delta=4: cover-free={verdict.ok} "
      f"({verdict.tuples_checked} tuples checked)")

# ...then by sampling on the quadratic family.
sampled = verify_cover_free(family, delta=2, rho=0, mode="sampled", trials=20000)
print(f"quadratics over GF(5), delta=2: cover-free={sampled.ok} "
      f"({sampled.tuples_checked} sampled tuples)")

# Push delta past the guarantee and a covering tuple exists: q parallel
# constant-lines can blanket any line.
broken = verify_cover_free(lines, delta=5, rho=0, mode="sampled", trials=20000)
print(f"delta=5 exceeds the guarantee: cover-free={broken.ok}, "
      f"counterexample={broken.counterexample}")
