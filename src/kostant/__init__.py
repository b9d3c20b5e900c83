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
)
from .combinatorics import (
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
    kostant_q,
    kostant_q_oracle,
)
from .weights import (
    RootInterval,
    Weight,
    height,
    highest_root,
    interval_root,
    zero_weight,
)
from .weyl import (
    WeylElement,
    apply,
    enumerate_all,
    from_nonconsecutive_letters,
    from_word,
    shifted_action,
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
    "closed_form_term",
    "enumerate_all",
    "fibonacci",
    "from_nonconsecutive_letters",
    "from_word",
    "height",
    "highest_root",
    "interval_root",
    "kostant_q",
    "kostant_q_oracle",
    "nonconsecutive_count_k",
    "nonconsecutive_subsets",
    "predicted_q_multiplicity",
    "q_multiplicity",
    "q_multiplicity_closed",
    "shifted_action",
    "zero_weight",
]
