"""The q-multiplicity of an interval weight in the adjoint representation.

Three independent routes give the same answer:
  1. the full alternating sum over all (r+1)! Weyl group elements, found
     by a pruned search that visits only the nonzero terms,
  2. a per-survivor closed form q^a (1+q)^b summed over the alternation set,
  3. the prediction: the single monomial q^(rank - height).
Route 2 counts instead of searching the group, so it has no rank cap and
reaches ranks far beyond route 1's. At q = 1 every answer collapses to multiplicity 1; at the zero
weight the q-multiplicity is instead q + q^2 + ... + q^rank.
"""

from kostant import (
    RootInterval,
    closed_form_term,
    highest_root,
    interval_root,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
    zero_weight,
)

iv = RootInterval(5, 2, 3)
lam = highest_root(5)
mu = interval_root(iv)
print(f"rank 5, mu = [2, 3] (height {iv.height}):")
full = q_multiplicity(5, lam, mu)
print(f"  full sum over 720 elements: {full.q_multiplicity.pretty()}"
      f"  ({full.term_count} nonzero terms)")
print(f"  closed route:               {q_multiplicity_closed(iv).pretty()}")
print(f"  predicted q^(5-2):          {predicted_q_multiplicity(iv).pretty()}")
print()

print("the per-element terms that cancel down to q^3:")
from kostant import alt_set_characterized

for sigma in alt_set_characterized(iv):
    word = " ".join(f"s{x}" for x in sigma.reduced_word()) or "e"
    term = closed_form_term(iv, sigma)
    print(f"  sign {sigma.sign:+d}  {word:<8} {term.pretty()}")
print()

print("closed route far beyond enumeration range:")
for rank, i, j in [(12, 4, 7), (20, 3, 18), (25, 10, 12)]:
    poly = q_multiplicity_closed(RootInterval(rank, i, j))
    print(f"  rank {rank}, [{i},{j}]: {poly.pretty()}")
print()

print("zero weight instead of an interval:")
for r in range(1, 6):
    rep = q_multiplicity(r, highest_root(r), zero_weight(r))
    print(f"  rank {r}: {rep.q_multiplicity.pretty()}")
