"""The package's public names, and README's library example run as a REPL would run it."""

import ast
import contextlib
import io
import re
from pathlib import Path

import kostant

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_exactly_the_public_surface():
    # a name added or removed here is a deliberate change to the library's surface
    assert kostant.__all__ == [
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
    assert all(hasattr(kostant, name) for name in kostant.__all__)


def test_readme_library_example_runs_and_prints_what_its_comments_say():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    # each top-level statement compiled as at a prompt, so a bare expression prints its value
    tree = ast.parse(block)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(ast.Interactive(body=tree.body), "README.md", "single"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 6 + 2
    assert lines[0] == "() 1"  # the identity comes first
    assert lines[6:] == ["QPolynomial(q + q^2)", "QPolynomial(q^5)"]


def test_each_value_is_asked_one_way():
    # each removed member was a second spelling of a question another one answers
    assert not hasattr(kostant.weyl, "identity")  # from_word(rank, ())
    assert not hasattr(kostant.QPolynomial, "is_zero")  # a zero polynomial is falsy
    assert not hasattr(kostant.MultiplicityReport, "multiplicity_at_one")  # .evaluate(1)
    assert "__contains__" not in vars(kostant.AlternationSet)  # `in set.elements`
