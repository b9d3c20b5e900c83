"""Counting ways to write a weight as a sum of positive roots, graded by parts.

kostant_q returns the generating polynomial in q where the q^k coefficient
counts decompositions using exactly k roots. Interval roots (consecutive
runs of simple roots) have the closed form q(1+q)^(height-1) no matter
where the run sits. A slow enumeration oracle double-checks the DP.
"""

from math import comb

from kostant import (
    RootInterval,
    Weight,
    highest_root,
    interval_root,
    kostant_q,
    kostant_q_oracle,
)

print("A3, weight alpha_1 + 2 alpha_2 + alpha_3:")
w = Weight(3, (1, 2, 1))
poly = kostant_q(3, w)
print(f"  dp:     {poly.pretty()}   ({poly.evaluate(1)} decompositions)")
print(f"  oracle: {kostant_q_oracle(3, w).pretty()}")
print()

print("interval roots all look like q(1+q)^(s-1), s = number of consecutive terms:")
for rank, i, j in [(4, 1, 2), (4, 2, 3), (4, 3, 4), (6, 2, 5), (9, 4, 8)]:
    iv = RootInterval(rank, i, j)
    got = kostant_q(rank, interval_root(iv))
    print(f"  rank {rank}, [{i},{j}] (s={iv.height}):  {got.pretty()}")
    assert got.coeffs == (0,) + tuple(comb(iv.height - 1, y) for y in range(iv.height))
print()

print("a weight with a negative coordinate has no decomposition at all:")
print(f"  A2, (-1, 2): {kostant_q(2, Weight(2, (-1, 2))).pretty()}")
print()

# binomial row hiding inside: coefficients of q(1+q)^4, from the highest root of A5
print("coefficient row for s = 5:", list(kostant_q(5, highest_root(5)).coeffs))
