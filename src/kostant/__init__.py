"""Weyl alternation sets, Kostant partition q-analogs, and q-weight
multiplicities for the adjoint representation of sl(r+1).

Everything is exact integer arithmetic; see the individual modules for the
conventions (simple-root coordinates, one-line permutations, rightmost
letter first).
"""

from .alternation import (
    AlternationSet,
    alt_cardinality,
    alt_set_bruteforce,
    alt_set_characterized,
    count_by_length,
    max_length,
)
from .combinatorics import (
    binomial_safe,
    fib_identity_check,
    fibonacci,
    nonconsecutive_count_k,
    nonconsecutive_subsets,
)
from .errors import CapacityError
from .multiplicity import (
    MultiplicityReport,
    closed_form_term,
    predicted_q_multiplicity,
    q_multiplicity,
    q_multiplicity_closed,
)
from .partition import (
    QPolynomial,
    consecutive_closed_form,
    clear_partition_memo,
    kostant_q,
    kostant_q_oracle,
)
from .weights import (
    RootInterval,
    Weight,
    as_interval,
    height,
    highest_root,
    interval_root,
    simple_root,
    two_rho,
    zero_weight,
)
from .weyl import (
    WeylElement,
    apply,
    enumerate_all,
    from_nonconsecutive_letters,
    from_word,
    identity,
    shifted_action,
    simple_reflection,
)

__version__ = "0.1.0"

__all__ = [
    "AlternationSet",
    "CapacityError",
    "MultiplicityReport",
    "QPolynomial",
    "RootInterval",
    "Weight",
    "WeylElement",
    "alt_cardinality",
    "alt_set_bruteforce",
    "alt_set_characterized",
    "apply",
    "as_interval",
    "binomial_safe",
    "clear_partition_memo",
    "closed_form_term",
    "consecutive_closed_form",
    "count_by_length",
    "enumerate_all",
    "fib_identity_check",
    "fibonacci",
    "from_nonconsecutive_letters",
    "from_word",
    "height",
    "highest_root",
    "identity",
    "interval_root",
    "kostant_q",
    "kostant_q_oracle",
    "max_length",
    "nonconsecutive_count_k",
    "nonconsecutive_subsets",
    "predicted_q_multiplicity",
    "q_multiplicity",
    "q_multiplicity_closed",
    "shifted_action",
    "simple_reflection",
    "simple_root",
    "two_rho",
    "zero_weight",
]
