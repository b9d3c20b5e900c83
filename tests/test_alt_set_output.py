"""alt-set's rows, glued from side factors, against an element-by-element renderer.

The golden file stops at rank 7. Here every interval at ranks 8-12, a
seeded sample at ranks 13-22 and three intervals at ranks 100-110, where
perm entries reach three digits, are rendered in json, csv and table by the
CLI and by `_reference_stdouts`, which walks the elements of the characterized
set one by one, rebuilds each from its one-line notation alone, sorts them
and formats them the way the CLI formatted one element at a time. A sample
at ranks 9-12, where perm entries reach two digits, is checked the same way
for `--method brute` and `both`, whose brute set the reference takes from
`pruned_survivors`; there the JSON text of `both`, two word lists spliced
into one envelope, is also checked against json.dumps of its own parse.
The counter tests pin that a theorem query glues no element per product.
"""

import csv
import functools
import io
import json
import random

import pytest

import kostant.alternation as alternation
import kostant.weyl as weyl
from kostant import (
    RootInterval,
    WeylElement,
    alt_cardinality,
    alt_set_characterized,
    fibonacci,
    from_word,
    highest_root,
    interval_root,
)
from kostant import cli
from kostant.alternation import characterized_sides, pruned_survivors
from kostant.cli import EXIT_OK, run

FORMATS = ("json", "csv", "table")
PROVENANCE = {"brute": "brute_force", "theorem": "characterized"}


def _reference_stdouts(iv: RootInterval, method: str = "theorem") -> dict[str, str]:
    """What `alt-set --method <method>` prints for iv in each format, one element at a time."""
    r = iv.rank
    perms = {}
    if method in ("brute", "both"):
        perms["brute"] = [s.perm for s, _ in pruned_survivors(highest_root(r), interval_root(iv))]
    if method in ("theorem", "both"):
        perms["theorem"] = [el.perm for el in alt_set_characterized(iv).elements]
    # word, length and sign re-derived from the perm, nothing taken from the gluing
    sets = {
        name: sorted((WeylElement(r, p) for p in ps),
                     key=lambda el: (el.length, el.reduced_word()))
        for name, ps in perms.items()
    }
    verdict = None
    if method == "both":
        verdict = "pass" if set(perms["brute"]) == set(perms["theorem"]) else "fail"
    return {fmt: _render(iv, method, sets, verdict, fmt) for fmt in FORMATS}


def _render(iv: RootInterval, method: str, sets: dict, verdict: str | None, fmt: str) -> str:
    r = iv.rank
    if fmt == "json":
        result = {
            name: {
                "rank": r,
                "mu": [iv.i, iv.j],
                "count": len(elements),
                "elements": [list(el.reduced_word()) for el in elements],
                "provenance": PROVENANCE[name],
            }
            for name, elements in sets.items()
        }
        envelope = {
            "query": {"command": "alt-set", "rank": r, "mu": [iv.i, iv.j], "method": method},
            "result": {"sets": result, "predicted_count": alt_cardinality(iv)},
            "verdict": verdict,
        }
        return json.dumps(envelope, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "word", "perm", "length", "sign"])
        for name, elements in sets.items():
            for el in elements:
                writer.writerow([name, " ".join(map(str, el.reduced_word())),
                                 " ".join(map(str, el.perm)), el.length, el.sign])
        return buf.getvalue()
    lines = [
        f"alternation set, rank {r}, interval weight [{iv.i}, {iv.j}]",
        f"predicted count: {alt_cardinality(iv)}",
    ]
    for name, elements in sets.items():
        lines.append(f"{name}: {len(elements)} elements")
        for el in elements:
            word = " ".join(f"s{x}" for x in el.reduced_word()) or "e"
            lines.append(f"  {word:<20} perm {el.perm}")
    if verdict is not None:
        lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _cli_stdout(capsys, iv: RootInterval, fmt: str, method: str = "theorem") -> str:
    argv = ["alt-set", "--rank", str(iv.rank), "--mu", f"{iv.i}..{iv.j}",
            "--method", method, "--format", fmt]
    assert run(argv) == EXIT_OK
    return capsys.readouterr().out


def _assert_same_text(got: str, expected: str, where) -> None:
    """got == expected, or a failure naming the line counts and the first differing line.

    The outputs run to half a megabyte, which pytest's own diff of two
    strings takes minutes over.
    """
    if got == expected:
        return
    # line ends kept, so the lines differ wherever the texts do
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    n = next((n for n, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
             min(len(got_lines), len(expected_lines)))
    pytest.fail(
        f"{where}: {len(got_lines)} lines, expected {len(expected_lines)}; first difference "
        f"at line {n + 1}: {got_lines[n:n + 1]} != {expected_lines[n:n + 1]}",
        pytrace=False,
    )


def _intervals(r):
    return [RootInterval(r, i, j) for i in range(1, r + 1) for j in range(i, r + 1)]


def _sample_13_to_22():
    rng = random.Random(22013)
    sample = []
    for r in range(13, 23):
        # both ends (an empty side) at every rank, and two drawn intervals
        sample += [RootInterval(r, 1, rng.randint(1, r)), RootInterval(r, rng.randint(1, r), r)]
        i = rng.randint(1, r)
        sample.append(RootInterval(r, i, rng.randint(i, r)))
    return sample


def test_theorem_rows_equal_the_element_renderer_at_ranks_8_to_12(capsys):
    for r in range(8, 13):
        for iv in _intervals(r):
            for fmt, expected in _reference_stdouts(iv).items():
                _assert_same_text(_cli_stdout(capsys, iv, fmt), expected, (iv, fmt))


@pytest.mark.parametrize("iv", _sample_13_to_22(), ids=str)
def test_theorem_rows_equal_the_element_renderer_at_ranks_13_to_22(capsys, iv):
    for fmt, expected in _reference_stdouts(iv).items():
        _assert_same_text(_cli_stdout(capsys, iv, fmt), expected, fmt)


@pytest.mark.parametrize(
    "iv",
    [
        # 2 * 89 = 178 elements; letter 99 turns the fields "99 100" into "100 99"
        RootInterval(100, 3, 90),
        # 21 elements: the left swaps sit ahead of the two- and three-digit fields
        RootInterval(101, 8, 100),
        # 5 * 89 = 445 elements: the right swaps sit among three-digit fields only
        RootInterval(110, 5, 100),
    ],
    ids=str,
)
def test_theorem_rows_equal_the_element_renderer_with_three_digit_entries(capsys, iv):
    assert alt_cardinality(iv) == {100: 178, 101: 21, 110: 445}[iv.rank]
    for fmt, expected in _reference_stdouts(iv).items():
        _assert_same_text(_cli_stdout(capsys, iv, fmt), expected, fmt)


def _sample_9_to_12():
    rng = random.Random(9012)
    sample = []
    for r in range(9, 13):
        # the two largest sets, [1, 1] and [r, r], and three drawn intervals
        sample += [RootInterval(r, 1, 1), RootInterval(r, r, r)]
        for _ in range(3):
            i = rng.randint(1, r)
            sample.append(RootInterval(r, i, rng.randint(i, r)))
    return sample


@pytest.mark.parametrize("method", ("brute", "both"))
def test_brute_rows_equal_the_element_renderer_at_ranks_9_to_12(capsys, method):
    for iv in _sample_9_to_12():
        for fmt, expected in _reference_stdouts(iv, method).items():
            _assert_same_text(_cli_stdout(capsys, iv, fmt, method), expected, (iv, fmt))


def test_both_json_is_the_stdlib_text_with_two_spliced_word_lists(capsys):
    # two word lists in one envelope, each spliced in at its indent
    for iv in _sample_9_to_12():
        text = _cli_stdout(capsys, iv, "json", "both")
        _assert_same_text(text, json.dumps(json.loads(text), indent=2) + "\n", iv)
        sets = json.loads(text)["result"]["sets"]
        expected = json.loads(_reference_stdouts(iv, "both")["json"])["result"]["sets"]
        assert set(sets) == {"brute", "theorem"}
        for name, got in sets.items():
            assert got["elements"] == expected[name]["elements"], (iv, name)


def _sides_through_rank_22():
    """Intervals of rank <= 22 whose sides are every side of every interval there.

    A side's texts depend only on its letters and the entries it spans: the
    left side of [i, j] on (i, j), the right side on (j, r). Each j pairs
    its left sides i = 1..j with its right sides r = j..22.
    """
    return [
        RootInterval(min(k + j, 22), min(k + 1, j), j)
        for j in range(1, 23)
        for k in range(max(j, 23 - j))
    ]


def test_recurrence_texts_equal_joined_words_and_element_perms_through_rank_22():
    # each text from the side's recurrence, against its word joined letter by
    # letter and the perm of the element built from its letters; the words at
    # rank 22 hold every letter of a rank <= 22 side, and an entry past the
    # rank stays put, so perm[:r + 1] is the perm at rank r
    perms = {}

    def perm(word):
        if word not in perms:
            perms[word] = from_word(22, word).perm
        return perms[word]

    @functools.cache  # a side's words do not depend on the entries it spans
    def joins(words, sep, letter):
        return [sep.join(map((letter + "{}").format, w)) for w in words]

    covered = set()
    for iv in _sides_through_rank_22():
        left, right = map(tuple, characterized_sides(iv))
        covered |= {("left", iv.i, iv.j), ("right", iv.j, iv.rank)}
        for sep, perm_sep, letter in ((",\n      ", "", ""), (" ", " ", ""), (" ", ", ", "s")):
            _, lengths, (bare, joined), lperms, _, words, rperms = cli._texts(
                iv, left, right, sep, perm_sep, letter)
            assert lengths == list(map(len, left))
            expected = [joins(words, sep, letter) for words in (left, right)]
            assert bare == expected[0], iv
            assert joined == [t + sep if t else t for t in expected[0]], iv
            assert words == expected[1], iv
            if not perm_sep:
                assert lperms is rperms is None
                continue
            assert lperms == [perm_sep.join(map(str, perm(w)[:iv.j])) for w in left], iv
            assert rperms == [
                perm_sep + perm_sep.join(map(str, perm(w)[iv.j:iv.rank + 1])) for w in right
            ], iv
    assert covered == {(side, a, b) for side in ("left", "right")
                       for a in range(1, 23) for b in range(a, 23)}


@pytest.fixture
def counters(monkeypatch):
    """Counts of theorem products built, side factors built and WeylElement.__init__ calls."""
    counts = {"glued": 0, "factors": [], "init": 0}
    glue, side_factors, init = (
        alternation.from_nonconsecutive_letters,
        alternation.nonconsecutive_choices,
        WeylElement.__init__,
    )

    def counted_glue(*args):
        counts["glued"] += 1
        return glue(*args)

    def counted_factors(*args):
        factors = side_factors(*args)
        counts["factors"].append(len(factors))
        return factors

    def counted_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(alternation, "from_nonconsecutive_letters", counted_glue)
    monkeypatch.setattr(alternation, "nonconsecutive_choices", counted_factors)
    monkeypatch.setattr(weyl.WeylElement, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_theorem_query_glues_only_the_spot_check(capsys, counters, fmt):
    # sizes 5168, 1 (i = 1, j = r: both sides empty), 6, 2584 (i = 1) and 3 * 89 = 267
    for r, i, j in ((20, 3, 3), (12, 1, 12), (7, 3, 4), (18, 1, 1), (14, 4, 4)):
        counters.update(glued=0, factors=[], init=0)
        assert run(["alt-set", "--rank", str(r), "--mu", f"{i}..{j}", "--format", fmt]) == EXIT_OK
        capsys.readouterr()
        size = alt_cardinality(RootInterval(r, i, j))
        assert counters["glued"] == min(8, size)
        assert counters["factors"] == [fibonacci(i), fibonacci(r - j + 1)]
        assert counters["init"] == 0  # no element is built from a perm either


def test_method_both_builds_the_theorem_side_once(capsys, counters):
    assert run(["alt-set", "--rank", "7", "--mu", "3..4", "--method", "both"]) == EXIT_OK
    assert "verdict: pass" in capsys.readouterr().out
    assert counters["factors"] == [fibonacci(3), fibonacci(4)]
    assert counters["glued"] == 6  # the spot check of a 6-element set
