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
except ``alt-set``'s: there the rows are a callable that returns the
body's lines as text. csv.writer quotes only a field holding a comma, a
quote or a line break, and an alt-set field is a set's name, digits and
spaces, or an int, so those lines are the bytes the writer would write.
``verify`` writes its table itself,
one line per criterion as ``acceptance.run_all`` yields its result and
then the summary line, so its table view is None. The envelope is
``json.dumps(..., indent=2)``'s text; a callable in a view, as alt-set's
word lists, is spliced in as its own text at the indent of its line
(``_json_text``). ``alt-set`` rows come in the
alternation set's canonical order (by length, then by reduced word) and
are joined from text rendered once per factor, through a table of each
value's digits built once per call, after every route has returned, so a
refused query builds none. The theorem route takes the side words of
``characterized_sides``, never builds the set, and grows each factor's
perm text from its parent's by one splice (``_blocks``, ``_grown``). A
brute-force element, a member by the sign test read off
``pruned_survivors`` (no subcommand runs the literal scan of the group),
is a left factor with an empty right factor. The JSON word lists, the CSV
word and perm fields and the table's word and ``perm (...)`` text are each
a left factor's text then a right factor's. ``--method both`` passes when
the two routes give the same words: the survivors' reduced words and the
theorem's left word then right word, which is what each route prints.

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

The parser is built once per process and reused by every ``run`` call;
each call parses into a fresh Namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from itertools import accumulate, repeat

from .acceptance import DEFAULT_CLOSED_RANK, run_all
from .alternation import alt_cardinality, canonical_blocks, characterized_sides, pruned_survivors
from .combinatorics import fibonacci, nonconsecutive_count_k
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
    sets = {}  # name -> (provenance, count, the (iv, left, right) factors of its `_blocks`)
    if args.method in ("brute", "both"):
        lam, mu = highest_root(args.rank), interval_root(iv)
        # each member's (word, perm), in the canonical order: by length, then by word
        found = sorted(((s.reduced_word(), s.perm) for s, _ in pruned_survivors(lam, mu)),
                       key=lambda f: (len(f[0]), f[0]))
        sets["brute"] = ("brute_force", len(found), (None, found, None))
    if args.method in ("theorem", "both"):
        left, right = characterized_sides(iv)
        sets["theorem"] = ("characterized", alt_cardinality(iv), (iv, left, right))
    verdict = None
    if args.method == "both":  # the words each route prints, as multisets
        verdict = sorted(w for w, _ in found) == sorted(lw + rw for lw in left for rw in right)
    # built only once both routes have returned, so a refused query builds no table
    names = [str(v) for v in range(args.rank + 2)]  # every letter and perm entry, as text
    sets = {name: (provenance, count, functools.partial(_blocks, *factors, names))
            for name, (provenance, count, factors) in sets.items()}
    query = {"command": "alt-set", "rank": args.rank, "mu": [iv.i, iv.j], "method": args.method}
    if args.format == "json":
        view = {
            "sets": {
                name: {"rank": args.rank, "mu": [iv.i, iv.j], "count": count,
                       "elements": functools.partial(_json_words, blocks),
                       "provenance": provenance}
                for name, (provenance, count, blocks) in sets.items()
            },
            "predicted_count": alt_cardinality(iv),
        }
    elif args.format == "csv":
        view = (["method", "word", "perm", "length", "sign"], functools.partial(_csv_lines, sets))
    else:
        view = [
            f"alternation set, rank {args.rank}, interval weight [{iv.i}, {iv.j}]",
            f"predicted count: {alt_cardinality(iv)}",
        ]
        for name, (_, count, blocks) in sets.items():
            view.append(f"{name}: {count} elements")
            view += _table_lines(blocks)
    return query, verdict, view


def _blocks(iv, left, right, names: list[str], sep: str, perm_sep: str, letter: str = ""):
    """(length, word head, perm head, right group) for each block of a set, in order.

    Each factor is rendered once as (word, word text, perm text): letters
    after `letter` joined by `sep`, and entries joined by `perm_sep`, a
    right factor's after a leading one. A brute-force set (iv None) has its
    (word, perm) elements as left factors and one empty right factor. A
    theorem set's perm texts, none when `perm_sep` is empty, grow by
    `_grown` from the identity's, letter y swapping the fields "y" and
    "y + 1": as "y + 1" then "y" spans exactly their characters, every
    other field keeps its offset. A row is its block's heads, the word head
    ending in `sep` only when both words have letters, then a right factor's texts.
    """
    word_text, perm_text = [letter + v for v in names].__getitem__, names.__getitem__
    if iv is None:
        left, right = [(w, sep.join(map(word_text, w)), perm_sep.join(map(perm_text, p)))
                       for w, p in left], [((), "", "")]
    else:
        sides = []
        for words, lo, hi, lead in ((left, 1, iv.j, ""), (right, iv.j + 1, iv.rank + 1, perm_sep)):
            perms = repeat("")
            if perm_sep:
                at = accumulate((len(v) + len(perm_sep) for v in names[lo:hi]), initial=len(lead))
                pieces = {y: (a, f"{y + 1}{perm_sep}{y}") for y, a in zip(range(lo, hi), at)}
                perms = _grown(words, lead + perm_sep.join(names[lo:hi + 1]), pieces)
            sides.append([(w, sep.join(map(word_text, w)), p) for w, p in zip(words, perms)])
        left, right = sides
    for length, (lw, lws, lps), group in canonical_blocks(left, right):
        yield length, lws + sep if lw and length > len(lw) else lws, lps, group


def _grown(words: list[tuple[int, ...]], root: str, pieces: dict) -> list[str]:
    """Each word's text, grown from its parent's by one splice, in the order of `words`.

    `words` is a post-order, so reversed a pre-order: a word's parent, the
    word less its last letter y, is the last word seen one shorter, kept on
    a depth stack. The empty word's text is `root`, a child's, with
    (a, piece) = pieces[y], parent[:a] + piece + parent[a + len(piece):].
    """
    stack, values = [root] * (max(map(len, words)) + 1), []
    for w in reversed(words):
        d = len(w)
        if d:
            a, piece = pieces[w[-1]]
            parent = stack[d - 1]
            stack[d] = parent[:a] + piece + parent[a + len(piece):]
        values.append(stack[d])
    return values[::-1]


def _json_words(blocks, pad: str) -> str:
    """The JSON list of the element words, as json.dumps(..., indent=2) writes it.

    `pad` is the newline and indent of the line the list starts on.
    """
    inner, deeper = pad + "  ", pad + "    "
    items = [
        f"[{deeper}{head}{rws}{inner}]" if length else "[]"
        for length, head, _, group in blocks("," + deeper, "")
        for _, rws, _ in group
    ]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _csv_lines(sets: dict) -> list[str]:
    """The CSV lines (method, word, perm, length, sign) of every set, as csv.writer writes them.

    No field needs quoting (see the module docstring), and each line ends
    in the writer's line terminator, \\r\\n.
    """
    lines = []
    for name, (_, _, blocks) in sets.items():
        for length, head, lps, group in blocks(" ", " "):
            end = f",{length},{-1 if length % 2 else 1}\r\n"
            lines += [f"{name},{head}{rws},{lps}{rps}{end}" for _, rws, rps in group]
    return lines


def _table_lines(blocks) -> list[str]:
    """The table lines (word, then `perm (...)`) of one set."""
    return [
        f"  {head + rws or 'e':<20} perm ({lps}{rps})"
        for _, head, lps, group in blocks(" ", ", ", "s")
        for _, rws, rps in group
    ]


def _cmd_qmult(args, out):
    iv = _parse_mu(args.mu, args.rank)
    if iv is None:
        if args.method != "kwmf":
            raise UsageError("--mu 0 requires --method kwmf")
        mu_weight, mu_label = zero_weight(args.rank), 0
    else:
        mu_weight, mu_label = interval_root(iv), [iv.i, iv.j]
    routes = {}  # name -> (polynomial, method tag, term count or None)
    if args.method in ("kwmf", "all"):
        rep = q_multiplicity(args.rank, highest_root(args.rank), mu_weight)
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
        if callable(rows):  # lines the view renders itself, as alt-set's
            out.writelines(rows())
        else:
            writer.writerows(rows)
    elif view is not None:  # verify has written its table already
        if verdict is not None:
            view.append(f"verdict: {'pass' if verdict else 'fail'}")
        print("\n".join(view), file=out)
    return EXIT_FAIL if verdict is False else EXIT_OK


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=FORMATS, default="table")
    sp.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse fills a fresh Namespace."""
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

    return p


def run(argv=None) -> int:
    """Parse argv and execute; returns the exit code instead of exiting."""
    try:
        args = _build_parser().parse_args(argv)
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
