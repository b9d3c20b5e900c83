"""The package's immutable records: the value semantics of a frozen dataclass, without one.

Each record is checked against a frozen dataclass with the same fields, made
here: equality, hash and repr text must match it exactly, and assigning a
field must raise AttributeError. The package itself never imports
`dataclasses`, so a fresh interpreter that imports it must not load it.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path

import pytest

from kostant import (
    AlternationSet,
    MultiplicityReport,
    QPolynomial,
    RootInterval,
    Weight,
    from_word,
    highest_root,
    shifted_action,
)
from kostant.acceptance import CriterionResult


RECORDS = [
    (Weight, (3, (1, -2, 0))),
    (RootInterval, (5, 2, 4)),
    (AlternationSet, (frozenset([from_word(2, ())]),)),
    (MultiplicityReport, (QPolynomial((0, 1, 1)), 2)),
    (CriterionResult, ("fibonacci", True, "F_1..F_30", 0.25)),
]


def _dataclass_twin(cls):
    """A frozen dataclass named like cls, with its fields."""
    return make_dataclass(cls.__name__, [(name, object) for name in cls._fields], frozen=True)


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_eq_hash_and_repr_match_a_frozen_dataclass(cls, args):
    value, twin = cls(*args), _dataclass_twin(cls)(*args)
    assert repr(value) == repr(twin)
    assert hash(value) == hash(twin) == hash(args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != twin  # like a dataclass, only the same class compares equal
    assert value != args
    for k, name in enumerate(cls._fields):
        assert getattr(value, name) == args[k]
        with pytest.raises(AttributeError):
            setattr(value, name, args[k])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_the_cached_epsilon_vector_stays_out_of_eq_hash_and_repr():
    lam = highest_root(4)
    before = (repr(lam), hash(lam))
    shifted_action(from_word(4, ()), lam)
    assert lam._shift is not None  # filled by the first shifted action
    fresh = Weight(4, lam.coords)
    assert fresh._shift is None
    assert lam == fresh and (repr(lam), hash(lam)) == before == (repr(fresh), hash(fresh))
    with pytest.raises(AttributeError):
        lam._shift = None


def test_importing_the_package_loads_no_dataclasses():
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, kostant, kostant.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
