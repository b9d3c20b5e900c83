"""Command-line front end: single queries, comparison tables, verification.

Every subcommand prints to stdout (or ``--out FILE``) in one of three
formats. Table output is for reading, CSV for spreadsheets, JSON for
machines; the JSON envelope is always ``{"query": ..., "result": ...,
"verdict": "pass" | "fail" | null}`` where the verdict is null unless the
subcommand compared independent routes.

The CLI is the package's only writer: the library returns values and
prints nothing. ``run`` opens the output once, before the handler runs,
as a shell redirection would, so a call that fails leaves ``--out``
empty and an unwritable ``--out`` exits 2 before any work. Each
subcommand handler takes the parsed args and that stream, validates and
computes, then returns ``(query, verdict, view)``, with the view built for
the requested format only: the JSON result dict, a CSV ``(header, rows)``
pair, or the table's lines. ``_render`` writes the envelope, the CSV or
the lines (plus a ``verdict:`` line when there is a verdict) to the stream
and maps the verdict to the exit code. CSV rows go through csv.writer,
except ``alt-set``'s: there the rows are the body's lines as text, in an
iterator. csv.writer quotes only a field holding a comma, a
quote or a line break, and an alt-set field is a set's name, digits and
spaces, or an int, so those lines are the bytes the writer would write.
``verify`` writes its table itself,
one line per criterion as ``acceptance.run_all`` yields its result and
then the summary line, so its table view is None. The envelope is
``json.dumps(..., indent=2)``'s text; a callable in a view, as alt-set's
word lists, is spliced in as its own text at the indent of its line
(``_json_text``). ``alt-set`` rows come in the
alternation set's canonical order (by length, then by reduced word) and
are joined from text rendered once per factor, after every route has
returned, so a refused query renders none. The row order lives here:
``_row_order`` computes it once per set and call from the factors' words,
each word's length read once, as the left factors' lengths, the right
factors' positions grouped by length and one run per total length, the
left factors that reach the length. Each side's word and perm texts are
kept in plain lists read by position (``_texts``), and each format builds
its rows in one comprehension over the runs: the left factors of a run,
each with the right factors of the rest. The theorem route takes the side
words of ``characterized_sides`` for the order and never builds the set;
its texts come from the Fibonacci recurrence that builds the words
(``_side_texts``): ``nonconsecutive_choices`` folds each text as one piece
joined to its tail's, "letter x sep" for a word, "y + 1, y" for a perm
that takes letter y and "y" for one that skips it. A brute-force element,
a member by the sign test read off ``pruned_survivors`` (no subcommand
runs the literal scan of the group), is a left factor with an empty right
factor, its texts joined from its word and perm. The JSON word lists, the
CSV word and perm fields and the table's word and ``perm (...)`` text are
each a left factor's text then a right factor's. ``--method both`` passes
when the two routes print the same CSV rows, in order and field for field
(word, perm, length, sign): the survivors' rows and the theorem's. Each
route's rows are rendered once, without the method field, and ``--format
csv`` prints those same rows, each after its method.

Exit codes: 0 success or all-pass, 1 a comparison or verification failed
(or stdout closed before the output was written, as under ``| head``), 2
usage error (including an ``--out`` that cannot be written), 3 a capacity
cap was hit. Every cap is fixed, and its message, raised where the limit
lives, says that no flag raises it: the node budget of the pruned search
behind ``alt-set --method brute`` and ``qmult --method kwmf``, which
refuses before it builds any element, the cap on
the theorem's alternation sets (25 free letters a side, so at most F_27 =
196418 elements), the height cap of ``partition --oracle`` and the
``identity`` table's cap of n = 1000; see ``errors``.

The parsers are built once per process and reused by every ``run`` call,
and each call parses once, into a fresh Namespace: a known command's own
parser parses the arguments after its name, and the top-level parser
handles only -h, a missing or unknown command, and reports the arguments
the command's parser does not know, in the words of its own full parse.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from itertools import chain

from .acceptance import DEFAULT_CLOSED_RANK, run_all
from .alternation import alt_cardinality, characterized_sides, pruned_survivors, sides
from .combinatorics import fibonacci, nonconsecutive_choices, nonconsecutive_count_k
from .errors import IDENTITY_MAX_N, CapacityError
from .multiplicity import predicted_q_multiplicity, q_multiplicity, q_multiplicity_closed
from .partition import kostant_q, kostant_q_oracle
from .weights import RootInterval, Weight, highest_root, interval_root, zero_weight

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

FORMATS = ("json", "csv", "table")


class UsageError(ValueError):
    """Bad flag combination, malformed value or unwritable --out; exit code 2."""


def _int_at_least(low: int):
    """An argparse type for integers >= low, so a bad value exits 2 at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_mu(text: str, rank: int) -> RootInterval | None:
    """The interval i..j, or None for the zero-weight token 0."""
    if text.strip() == "0":
        return None
    head, sep, tail = text.partition("..")
    if not sep:
        raise UsageError(f"--mu expects i..j (or the token 0), got {text!r}")
    try:
        i, j = int(head), int(tail)
    except ValueError:
        raise UsageError(f"--mu expects integer endpoints, got {text!r}") from None
    return RootInterval(rank, i, j)


def _cmd_alt_set(args, out):
    iv = _parse_mu(args.mu, args.rank)
    if iv is None:
        raise UsageError("--mu 0 is only supported by qmult with --method kwmf")
    sets = {}  # name -> (provenance, count, its `_row_order`, the `_texts` of its factors)
    if args.method in ("brute", "both"):
        lam, mu = highest_root(args.rank), interval_root(iv)
        # each member's (word, perm), in the canonical order: by length, then by word
        found = sorted(((s.reduced_word(), s.perm) for s, _ in pruned_survivors(lam, mu)),
                       key=lambda f: (len(f[0]), f[0]))
        sets["brute"] = ("brute_force", len(found), _row_order([w for w, _ in found], [()]),
                         functools.partial(_texts, None, found))
    if args.method in ("theorem", "both"):
        left, right = characterized_sides(iv)
        sets["theorem"] = ("characterized", len(left) * len(right), _row_order(left, right),
                           functools.partial(_texts, iv, None))
    rows = {}  # each route's CSV rows without the method field, rendered once
    if args.format == "csv" or args.method == "both":
        rows = {name: _csv_rows(*order, texts) for name, (_, _, order, texts) in sets.items()}
    verdict = None
    if args.method == "both":  # the rows each route prints, in order
        verdict = rows["brute"] == rows["theorem"]
    query = {"command": "alt-set", "rank": args.rank, "mu": [iv.i, iv.j], "method": args.method}
    if args.format == "json":
        view = {
            "sets": {
                name: {"rank": args.rank, "mu": [iv.i, iv.j], "count": count,
                       "elements": functools.partial(_json_words, *order, texts),
                       "provenance": provenance}
                for name, (provenance, count, order, texts) in sets.items()
            },
            "predicted_count": alt_cardinality(iv),
        }
    elif args.format == "csv":
        view = (["method", "word", "perm", "length", "sign"],
                chain.from_iterable(map(f"{name},".__add__, body) for name, body in rows.items()))
    else:
        view = [
            f"alternation set, rank {args.rank}, interval weight [{iv.i}, {iv.j}]",
            f"predicted count: {alt_cardinality(iv)}",
        ]
        for name, (_, count, order, texts) in sets.items():
            view.append(f"{name}: {count} elements")
            view += _table_lines(*order, texts)
    return query, verdict, view


def _row_order(left: list, right: list):
    """A set's row order from its factors' words: (lengths, groups, runs).

    The rows come in the canonical order, by length, then by reduced word.
    `lengths` holds each left word's length, `groups` the positions of the
    right words of each length (entry n lists those of length n, in order)
    and `runs` one (n, run) per total length n: the positions, in order, of
    the left words that reach n with some right word. The rows of length n
    are then left[p] + right[q] for p in the run and q in
    groups[n - lengths[p]], in that order. That holds for a theorem set,
    whose left words come in post-order and right words of one length
    lexicographically (`characterized_sides`), and for sorted words with
    one empty right word, as a brute-force set's. Each word's length is
    read once, and each run is built from the left words grouped by length,
    so nothing is built or resumed per left word.
    """
    lengths = list(map(len, left))
    at, groups = _by_length(lengths), _by_length(list(map(len, right)))
    width = len(groups)
    runs = [(n, sorted(chain.from_iterable(at[max(0, n - width + 1):n + 1])))
            for n in range(len(at) + width - 1)]
    return lengths, groups, runs


def _by_length(lengths: list[int]) -> list[list[int]]:
    """The positions of each length, in order: entry n lists those of length n."""
    groups = [[] for _ in range(max(lengths) + 1)]
    for q, n in enumerate(lengths):
        groups[n].append(q)
    return groups


def _texts(iv, found, sep: str, perm_sep: str, letter: str = ""):
    """A set's factors' texts in plain lists read by position: bare, joined, perms, words, rperms.

    Each left factor's word text bare and ending in `sep` (a row takes the
    second when both its words have letters) and its perm text; the right
    factors' word and perm texts. A word's text is its letters after
    `letter` joined by `sep`, a perm's its entries joined by `perm_sep`, a
    right factor's after a leading one; with `perm_sep` empty the perm
    texts are None. A brute-force set (iv None) has its `found` (word, perm)
    elements as left factors, each joined on its own, and one empty right
    factor. A theorem set's texts are its sides' `_side_texts`, in the
    order of its words.
    """
    if iv is None:
        word_text = (letter + "{}").format
        # every row pairs with the one empty right factor, so none reads a joined text
        joined = bare = [sep.join(map(word_text, w)) for w, _ in found]
        perms = [perm_sep.join(map(str, p)) for _, p in found] if perm_sep else None
        return bare, joined, perms, [""], [""]
    lside, rside = sides(iv)
    joined, perms = _side_texts(lside.letters, iv.j, sep, perm_sep, letter)
    rjoined, rperms = _side_texts(rside.letters, iv.rank + 1, sep, perm_sep, letter)
    bare, words = ([t[:-len(sep)] for t in texts] for texts in (joined, rjoined))
    if perm_sep:  # entry 1 comes first, and no free letter moves it
        perms = ["1" + t for t in perms]
    return bare, joined, perms, words, rperms


def _side_texts(letters: range, last: int, sep: str, perm_sep: str, letter: str):
    """A theorem side's word texts and perm texts, each from the recurrence of its words.

    `nonconsecutive_choices` folds the texts over the side's free letters,
    so they come in the order of its words, each a piece joined to its
    tail's text. A word's text ends in `sep` unless it is empty, a piece
    being `letter`, the letter and `sep`. A perm text holds the entries at
    letters.start..last, each after `perm_sep`: a choice that takes y puts
    "y + 1" then "y" at y and y + 1, one that skips it "y" at y, and the
    entries past the last letter stay put. The perm texts are None when
    `perm_sep` is empty.
    """
    words = nonconsecutive_choices(letters, lambda x: f"{letter}{x}{sep}", None, ("", ""))
    if not perm_sep:
        return words, None
    fixed = [f"{perm_sep}{v}" for v in range(letters.start + len(letters), last + 1)]
    perms = nonconsecutive_choices(
        letters, lambda y: f"{perm_sep}{y + 1}{perm_sep}{y}", lambda y: f"{perm_sep}{y}",
        ("".join(fixed[1:]), "".join(fixed)),
    )
    return words, perms


def _json_words(lengths, groups, runs, texts, pad: str) -> str:
    """The JSON list of the element words, as json.dumps(..., indent=2) writes it.

    `pad` is the newline and indent of the line the list starts on.
    """
    inner, deeper = pad + "  ", pad + "    "
    bare, joined, _, words, _ = texts("," + deeper, "")
    items = [
        f"[{deeper}{h}{words[q]}{inner}]" if n else "[]"
        for n, run in runs
        for p in run
        for h in [joined[p] if n > lengths[p] else bare[p]]
        for q in groups[n - lengths[p]]
    ]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _csv_rows(lengths, groups, runs, texts) -> list[str]:
    """A set's CSV lines without the method field (word, perm, length, sign), as csv.writer would.

    No field needs quoting (see the module docstring), and each line ends
    in the writer's line terminator, \\r\\n.
    """
    bare, joined, perms, words, rperms = texts(" ", " ")
    return [
        f"{h}{words[q]},{perms[p]}{rperms[q]}{end}"
        for n, run in runs
        for end in [f",{n},{-1 if n % 2 else 1}\r\n"]
        for p in run
        for h in [joined[p] if n > lengths[p] else bare[p]]
        for q in groups[n - lengths[p]]
    ]


def _table_lines(lengths, groups, runs, texts) -> list[str]:
    """The table lines (word, then `perm (...)`) of one set."""
    bare, joined, perms, words, rperms = texts(" ", ", ", "s")
    return [
        f"  {h + words[q] or 'e':<20} perm ({perms[p]}{rperms[q]})"
        for n, run in runs
        for p in run
        for h in [joined[p] if n > lengths[p] else bare[p]]
        for q in groups[n - lengths[p]]
    ]


def _cmd_qmult(args, out):
    iv = _parse_mu(args.mu, args.rank)
    if iv is None and args.method != "kwmf":
        raise UsageError("--mu 0 requires --method kwmf")
    mu_label = 0 if iv is None else [iv.i, iv.j]
    routes = {}  # name -> (polynomial, method tag, term count or None)
    if args.method in ("kwmf", "all"):  # the one route that reads mu as a weight
        mu = zero_weight(args.rank) if iv is None else interval_root(iv)
        rep = q_multiplicity(args.rank, highest_root(args.rank), mu)
        routes["kwmf"] = (rep.q_multiplicity, "kwmf_full", rep.term_count)
    if args.method in ("closed", "all"):
        routes["closed"] = (q_multiplicity_closed(iv), "closed_form", alt_cardinality(iv))
    if args.method in ("predicted", "all"):
        routes["predicted"] = (predicted_q_multiplicity(iv), "predicted", None)
    verdict = None
    if args.method == "all":
        verdict = len({poly.coeffs for poly, _, _ in routes.values()}) == 1
    query = {"command": "qmult", "rank": args.rank, "mu": mu_label, "method": args.method}
    if args.format == "json":
        view = {
            "routes": {
                name: {
                    "coeffs": list(poly.coeffs),
                    "pretty": poly.pretty(),
                    "multiplicity_at_one": poly.evaluate(1),
                    "method": method,
                    "term_count": terms,
                }
                for name, (poly, method, terms) in routes.items()
            }
        }
    elif args.format == "csv":
        rows = [
            [name, poly.pretty(), poly.evaluate(1), "" if terms is None else terms,
             " ".join(map(str, poly.coeffs))]
            for name, (poly, _, terms) in routes.items()
        ]
        view = (["route", "polynomial", "at_one", "term_count", "coeffs"], rows)
    else:
        view = [f"q-multiplicity, rank {args.rank}, highest root at mu = {mu_label}"]
        for name, (poly, _, terms) in routes.items():
            extra = "" if terms is None else f" ({terms} nonzero terms)"
            view.append(f"{name:<10} {poly.pretty()}   at q=1: {poly.evaluate(1)}{extra}")
    return query, verdict, view


def _cmd_partition(args, out):
    try:
        coords = tuple(int(x) for x in args.weight.split(","))
    except ValueError:
        raise UsageError(f"--weight expects comma-separated integers, got {args.weight!r}") from None
    if len(coords) != args.rank:
        raise UsageError(f"--weight has {len(coords)} coordinates for rank {args.rank}")
    w = Weight(args.rank, coords)
    sources = {"dp": kostant_q(args.rank, w)}
    verdict = None
    if args.oracle:
        sources["oracle"] = kostant_q_oracle(args.rank, w)
        verdict = sources["oracle"] == sources["dp"]
    query = {"command": "partition", "rank": args.rank, "weight": list(coords)}
    if args.format == "json":
        view = {
            name: {"coeffs": list(p.coeffs), "pretty": p.pretty(), "count": p.evaluate(1)}
            for name, p in sources.items()
        }
    elif args.format == "csv":
        rows = [
            [name, p.pretty(), p.evaluate(1), " ".join(map(str, p.coeffs))]
            for name, p in sources.items()
        ]
        view = (["source", "polynomial", "count", "coeffs"], rows)
    else:
        view = [f"partition polynomial, rank {args.rank}, weight {list(coords)}"]
        view += [f"{name:<8} {p.pretty()}   count: {p.evaluate(1)}" for name, p in sources.items()]
    return query, verdict, view


def _cmd_identity(args, out):
    if args.max_n > IDENTITY_MAX_N:
        raise CapacityError(
            f"the identity table to n = {args.max_n} is past its cap of n = {IDENTITY_MAX_N}; "
            f"the cap is fixed and no flag raises it"
        )
    rows = []
    for n in range(args.max_n + 1):
        total = sum(nonconsecutive_count_k(n, k) for k in range(n + 2))
        fib = fibonacci(n + 2)
        rows.append({"n": n, "binomial_sum": total, "fibonacci": fib, "equal": total == fib})
    verdict = all(r["equal"] for r in rows)
    query = {"command": "identity", "max_n": args.max_n}
    if args.format == "json":
        view = {"rows": rows}
    elif args.format == "csv":
        table = [[r["n"], r["binomial_sum"], r["fibonacci"], r["equal"]] for r in rows]
        view = (["n", "binomial_sum", "fibonacci", "equal"], table)
    else:
        view = [f"{'n':>4} {'binomial_sum':>14} {'fibonacci':>11}  equal"]
        view += [
            f"{r['n']:>4} {r['binomial_sum']:>14} {r['fibonacci']:>11}  {r['equal']}"
            for r in rows
        ]
    return query, verdict, view


def _cmd_verify(args, out):
    query = {"command": "verify", "max_closed_rank": args.max_closed_rank}
    results = []
    for res in run_all(args.max_closed_rank):
        results.append(res)
        if args.format == "table":  # each line as soon as its criterion returns
            mark = "PASS" if res.passed else "FAIL"
            print(f"{mark}  {res.name:<36} {res.seconds:7.2f}s  {res.detail}", file=out)
    failed = sum(not r.passed for r in results)
    if args.format == "table":
        print(f"{failed} of {len(results)} criteria FAILED" if failed
              else f"all {len(results)} criteria passed", file=out)
        return query, not failed, None
    if args.format == "json":
        crits = [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ]
        view = {"criteria": crits}
    else:
        rows = [[r.name, r.passed, f"{r.seconds:.2f}", r.detail] for r in results]
        view = (["criterion", "passed", "seconds", "detail"], rows)
    return query, not failed, view


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or the --out file; an OSError while opening or writing it is a usage error.

    The file is opened, and so emptied, before the command runs, as a shell
    redirection would open it.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


def _json_text(envelope) -> str:
    """json.dumps(envelope, indent=2), with each callable's own text where it lands.

    A callable is not JSON data: json.dumps's `default` hook writes a
    marker string in its place, and each marker is then replaced by the
    callable's text, called with the newline and indent of the line it
    lands on, as alt-set's word lists are. A string of the envelope that
    encodes like the marker would add a match, so the marker is lengthened
    until it matches once per callable.
    """
    calls, marker = [], "\0"

    def place(render):
        calls.append(render)
        return marker

    while True:
        parts = json.dumps(envelope, indent=2, default=place).split(json.dumps(marker))
        if len(parts) == len(calls) + 1:
            break
        calls.clear()
        marker += "\0"
    pieces = []
    for render, before in zip(calls, parts):
        line = before[before.rfind("\n") + 1:]
        pieces += [before, render("\n" + " " * (len(line) - len(line.lstrip(" "))))]
    pieces.append(parts[-1])
    return "".join(pieces)


def _render(args, out, query: dict, verdict: bool | None, view) -> int:
    """Write one handler's view in args.format to out and return the exit code."""
    if args.format == "json":
        v = None if verdict is None else ("pass" if verdict else "fail")
        print(_json_text({"query": query, "result": view, "verdict": v}), file=out)
    elif args.format == "csv":
        header, rows = view
        writer = csv.writer(out)
        writer.writerow(header)
        if isinstance(rows, list):
            writer.writerows(rows)
        else:  # alt-set's rows, already CSV text
            out.writelines(rows)
    elif view is not None:  # verify has written its table already
        if verdict is not None:
            view.append(f"verdict: {'pass' if verdict else 'fail'}")
        print("\n".join(view), file=out)
    return EXIT_FAIL if verdict is False else EXIT_OK


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=FORMATS, default="table")
    sp.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own, built once per process.

    Each parse fills a fresh Namespace.
    """
    p = argparse.ArgumentParser(
        prog="kostant",
        description="Alternation sets, partition polynomials, and q-multiplicities "
        "for the adjoint representation in type A.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    positive = _int_at_least(1)

    alt = sub.add_parser("alt-set", help="alternation set for an interval weight")
    alt.add_argument("--rank", type=positive, required=True)
    alt.add_argument("--mu", required=True, help="interval i..j")
    alt.add_argument("--method", choices=("brute", "theorem", "both"), default="theorem")
    _add_output_flags(alt)
    alt.set_defaults(handler=_cmd_alt_set)

    qm = sub.add_parser("qmult", help="q-multiplicity of the highest root at a weight")
    qm.add_argument("--rank", type=positive, required=True)
    qm.add_argument("--mu", required=True, help="interval i..j, or 0 for the zero weight")
    qm.add_argument("--method", choices=("kwmf", "closed", "predicted", "all"), default="closed")
    _add_output_flags(qm)
    qm.set_defaults(handler=_cmd_qmult)

    pa = sub.add_parser("partition", help="partition polynomial of a weight")
    pa.add_argument("--rank", type=positive, required=True)
    pa.add_argument("--weight", required=True, help="comma-separated coordinates c1,...,cr")
    pa.add_argument("--oracle", action="store_true", help="also run the enumeration oracle")
    _add_output_flags(pa)
    pa.set_defaults(handler=_cmd_partition)

    idn = sub.add_parser("identity", help="Fibonacci vs binomial-sum table")
    idn.add_argument("--max-n", type=_int_at_least(0), default=16)
    _add_output_flags(idn)
    idn.set_defaults(handler=_cmd_identity)

    ver = sub.add_parser("verify", help="run the full verification suite")
    ver.add_argument("--max-closed-rank", type=positive, default=DEFAULT_CLOSED_RANK)
    _add_output_flags(ver)
    ver.set_defaults(handler=_cmd_verify)

    return p, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed once: a known command's arguments by its own parser, the rest by the top one.

    The top-level parser handles -h, a missing command and an unknown one.
    Arguments the command's parser does not know are reported by the
    top-level parser, as its own parse of the whole argv reports them.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code instead of exiting."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        with _output(args.out) as out:
            return _render(args, out, *args.handler(args, out))
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    """The ``kostant`` script; a stdout closed by its reader ends the run quietly."""
    try:
        code = run()
        sys.stdout.flush()  # a broken pipe raises here, not at interpreter exit
    except BrokenPipeError:  # as the Python docs advise, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAIL
    raise SystemExit(code)
