"""Capacity caps and the exception raised when a brute-force size limit is hit."""

DEFAULT_BRUTE_RANK_CAP = 8
DEFAULT_ORACLE_HEIGHT_CAP = 24
DEFAULT_SUBSET_GROUND_CAP = 25


class CapacityError(RuntimeError):
    """A brute-force enumeration was asked to exceed its configured cap.

    Distinct from ValueError: the request is mathematically valid, just too big
    for exhaustive enumeration. The message always names the cap and how to
    raise it.
    """

