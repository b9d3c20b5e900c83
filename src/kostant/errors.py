"""Every limit of the package, and the exception raised when one is hit.

No flag raises any of them; only the enumeration oracle, a checking tool,
takes a per-call override (its max_height), and only from the library.
"""

# The literal scan of all (rank+1)! elements: rank 8 is 362,880 of them.
# No CLI subcommand runs it; tests and perfbench keep it as the pruned search's reference.
DEFAULT_BRUTE_RANK_CAP = 8
# The enumeration oracle for partition polynomials, by height.
DEFAULT_ORACLE_HEIGHT_CAP = 24
# Free letters on one side of a characterized alternation set; the set is
# refused when it would hold more than F_(cap+2) = 196,418 elements.
DEFAULT_SUBSET_GROUND_CAP = 25
# Nodes (permutation prefixes) the pruned survivor search may enter. For
# lam = highest root it enters 24,475 at mu = 0, rank 20; 14,222 at
# mu = -[1, 12], rank 12; and 3,010,348 at mu = 0, rank 30. When lam - mu
# >= 0 the identity's path alone enters rank + 1 nodes, so from rank
# 2^17 on such a search is refused before anything as long as the rank
# is built.
SEARCH_NODE_BUDGET = 2**17
# Block-boundary states the partition DP keeps between calls, all ranks
# together; past it the memo is flushed wholesale.
PARTITION_MEMO_BOUND = 2**16
# Rows of `kostant identity`: n = 1000 takes about 2 s, n = 2000 about 27 s,
# and past n = 20,576 Python refuses to print F_(n+2)'s more than 4,300 digits.
IDENTITY_MAX_N = 1000


class CapacityError(RuntimeError):
    """A computation was asked to exceed one of the limits above.

    Distinct from ValueError: the request is mathematically valid, just too big.
    The message names the limit and says that no flag raises it; the
    oracle's also names its max_height.
    """
