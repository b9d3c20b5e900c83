"""Independent references for every benchmark answer.

Nothing here calls the package except ``kostant_q_oracle``, the package's
own slow enumeration, which the partition checks use on the small weights
it can finish. Everything else is recomputed from the mathematics:

* the alternation set by a literal scan of all permutations, keeping sigma
  when sigma(lam + rho) - rho - mu >= 0 coordinatewise (in type A the simple
  roots are positive roots, so that is exactly a nonzero partition count);
* its size F_i * F_(r-j+1) and its reduced words, the nonconsecutive subsets
  of {2..i-1} and {j+1..r-1}, for lam the highest root and mu = [i, j];
* q^(r - height) for an interval weight and q + ... + q^r for the zero
  weight (Harris-Insko-Williams), and q(1+q)^(s-1) for the partition
  polynomial of a height-s interval root;
* any other partition polynomial by a flow count: a Kostant partition of xi
  is an integer flow on the complete DAG on r+1 vertices whose net outflow
  at vertex v is c_v - c_(v-1), and q counts the total flow.

``status`` compares one query's outcome with these and returns "ok",
"wrong", "refused" (a CapacityError, or exit code 3 from the CLI) or
"error" (any other exception or exit code, or unparsable output).
"""

import random
from functools import lru_cache
from itertools import permutations
from math import comb

from session import hash_words

ORACLE_MAX_HEIGHT = 16  # the oracle takes ~0.1 s at height 16 and 14 s at 24
ORACLE_RANK7_SAMPLE = 8
ORACLE_RANK7_MAX_HEIGHT = 14


@lru_cache(maxsize=None)
def fib(n):
    return 1 if n <= 2 else fib(n - 1) + fib(n - 2)


def monomial(d):
    return [0] * d + [1]


def pretty_monomial(d):
    return "1" if d == 0 else "q" if d == 1 else f"q^{d}"


def interval_of(coords):
    """(i, j) if coords is a 0/1 vector with one run of ones, else None."""
    ones = [k for k, c in enumerate(coords, start=1) if c]
    if not ones or any(c not in (0, 1) for c in coords) or ones[-1] - ones[0] + 1 != len(ones):
        return None
    return ones[0], ones[-1]


def consecutive_q(s):
    """q(1+q)^(s-1), the partition polynomial of a height-s interval root."""
    return [0] + [comb(s - 1, y) for y in range(s)]


def _sign(perm):
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def literal_scan(rank, lam, mu):
    """[(perm, sign, xi)] for every sigma with sigma(lam+rho) - rho - mu >= 0.

    Done on doubled weights in epsilon coordinates: 2(lam+rho) has epsilon
    entries e_x = d_x - d_(x-1); sigma moves the entry in slot x to slot
    sigma(x); prefix sums return to simple-root coordinates.
    """
    n = rank + 1
    two_rho = [k * (n - k) for k in range(1, n)]
    d = [0] + [2 * c + t for c, t in zip(lam, two_rho)] + [0]
    eps = [d[x] - d[x - 1] for x in range(1, n + 1)]
    kept = []
    for perm in permutations(range(1, n + 1)):
        moved = [0] * n
        for x, target in enumerate(perm):
            moved[target - 1] = eps[x]
        acc, xi = 0, []
        for k in range(rank):
            acc += moved[k]
            v = acc - two_rho[k] - 2 * mu[k]
            if v < 0:
                break
            xi.append(v // 2)
        else:
            kept.append((perm, _sign(perm), tuple(xi)))
    return kept


def flow_q(coords):
    """The partition polynomial of coords (coefficient list), by counting flows."""
    r = len(coords)
    c = (0,) + tuple(coords) + (0,)
    net = [c[v] - c[v - 1] for v in range(1, r + 2)]
    if any(x < 0 for x in coords):
        return []
    memo = {}

    def spread(amount, parts):
        if parts == 1:
            yield (amount,)
            return
        for a in range(amount + 1):
            for rest in spread(amount - a, parts - 1):
                yield (a,) + rest

    def count(v, pending):
        # pending[k]: flow already routed into vertex v + k.
        key = (v, pending)
        if key in memo:
            return memo[key]
        out = pending[0] + net[v]
        res = {}
        if out >= 0 and v == r:
            res = {0: 1} if out == 0 else {}
        elif out >= 0:
            for share in spread(out, r - v):
                sub = count(v + 1, tuple(a + b for a, b in zip(pending[1:], share)))
                for deg, n in sub.items():
                    res[deg + out] = res.get(deg + out, 0) + n
        memo[key] = res
        return res

    res = count(0, (0,) * (r + 1))
    return [res.get(deg, 0) for deg in range(max(res) + 1)] if res else []


def partition_q(coords):
    iv = interval_of(coords)
    if iv is not None:
        return consecutive_q(iv[1] - iv[0] + 1)
    return flow_q(coords)


def kwmf_q(rank, lam, mu):
    """(coefficients, nonzero terms) of the alternating sum, from the literal scan."""
    total = {}
    for _, sign, xi in literal_scan(rank, lam, mu):
        for deg, n in enumerate(partition_q(xi)):
            total[deg] = total.get(deg, 0) + sign * n
    coeffs = [total.get(deg, 0) for deg in range(max(total, default=-1) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs, len(literal_scan(rank, lam, mu))


def alt_words(rank, i, j):
    """Sorted reduced words of the characterized set of [i, j] (increasing letters)."""
    def side(lo, hi):
        if lo > hi:
            return [()]
        without = side(lo + 1, hi)
        with_lo = [(lo,) + rest for rest in side(lo + 2, hi)]
        return without + with_lo

    return sorted(left + right for left in side(2, i - 1) for right in side(j + 1, rank - 1))


def expected_group(q):
    """The reference answer for an alt_brute or qmult_full query.

    For lam the highest root this also pins the counts to the mathematics:
    F_i * F_(r-j+1) terms and q^(r-h) for mu = [i, j], q + ... + q^r for 0.
    """
    kind, r, lam, mu = q
    if kind == "alt_brute":
        return sorted(list(p) for p, _, _ in literal_scan(r, lam, mu))
    iv = interval_of(mu) if lam == (1,) * r else None
    if iv is not None:
        return [monomial(r - (iv[1] - iv[0] + 1)), fib(iv[0]) * fib(r - iv[1] + 1)]
    if lam == (1,) * r and not any(mu):
        return [[0] + [1] * r, len(literal_scan(r, lam, mu))]
    return list(kwmf_q(r, lam, mu))


def _alt_size_ok(q, got):
    """For lam the highest root and mu = [i, j]: |set| = F_i * F_(r-j+1)."""
    kind, r, lam, mu = q
    iv = interval_of(mu) if lam == (1,) * r else None
    return kind != "alt_brute" or iv is None or len(got) == fib(iv[0]) * fib(r - iv[1] + 1)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def expected_cli(argv):
    """The digest a correct `kostant` CLI call produces (see session.cli_digest)."""
    fmt = _flag(argv, "--format", "table")
    r = int(_flag(argv, "--rank"))
    if argv[0] == "alt-set":
        i, j = (int(x) for x in _flag(argv, "--mu").split(".."))
        size = fib(i) * fib(r - j + 1)
        words = hash_words(alt_words(r, i, j))
        if fmt == "json":
            body = {"count": size, "predicted": size, "words": words}
            return [0, {"verdict": None, "body": body}]
        if fmt == "csv":
            return [0, {"rows": size, "words": words}]
        return [0, {"count": [size], "predicted": [size], "lines": size + 3}]
    if argv[0] == "qmult":
        i, j = (int(x) for x in _flag(argv, "--mu").split(".."))
        method = _flag(argv, "--method", "closed")
        routes = ["kwmf", "closed", "predicted"] if method == "all" else [method]
        d = r - (j - i + 1)
        verdict = "pass" if method == "all" else None
        if fmt == "json":
            return [0, {"verdict": verdict, "body": {k: monomial(d) for k in routes}}]
        if fmt == "csv":
            return [0, {k: monomial(d) for k in routes}]
        return [0, {k: pretty_monomial(d) for k in routes}]
    coeffs = partition_q(tuple(int(x) for x in _flag(argv, "--weight").split(",")))
    if fmt == "json":
        return [0, {"verdict": None, "body": {"dp": coeffs}}]
    if fmt == "csv":
        return [0, {"dp": coeffs}]
    return [0, {"count": sum(coeffs)}]


def status(q, outcome):
    """Classify one query's outcome against the reference."""
    kind, value = outcome
    if kind in ("refused", "error"):
        return kind
    if q[0] == "cli":
        argv, expected_exit = q[1], q[2]
        code = value[0]
        if expected_exit != 0:
            return "ok" if code == expected_exit and value[1] is None else "error"
        if code == 3:
            return "refused"
        if code != 0:
            return "error"
        return "ok" if value == expected_cli(argv) else "wrong"
    if q[0] in ("alt_brute", "qmult_full"):
        ok = value == expected_group(q) and _alt_size_ok(q, value)
        return "ok" if ok else "wrong"
    if q[0] == "closed":
        _, r, i, j = q
        return "ok" if value == monomial(r - (j - i + 1)) else "wrong"
    if q[0] == "kostant_q":
        return "ok" if value == partition_q(q[2]) else "wrong"
    return "error"


def oracle_checks(qs, outcomes, seed):
    """Compare kostant_q answers with the package's enumeration oracle.

    Every distinct rank <= 6 weight up to height ORACLE_MAX_HEIGHT, and a
    seeded sample of rank-7 weights up to height ORACLE_RANK7_MAX_HEIGHT.
    Returns (weights checked, weights that disagree).
    """
    from kostant.partition import kostant_q_oracle
    from kostant.weights import Weight

    answers = {}
    for q, (kind, value) in zip(qs, outcomes):
        if q[0] == "kostant_q" and kind == "ok":
            answers[(q[1], q[2])] = value
    small = sorted(k for k in answers if k[0] <= 6 and sum(k[1]) <= ORACLE_MAX_HEIGHT)
    rank7 = sorted(k for k in answers if k[0] == 7 and sum(k[1]) <= ORACLE_RANK7_MAX_HEIGHT)
    rank7 = random.Random(f"oracle:{seed}").sample(rank7, min(ORACLE_RANK7_SAMPLE, len(rank7)))
    bad = 0
    for r, coords in small + rank7:
        oracle = kostant_q_oracle(r, Weight(r, coords), max_height=64)
        if list(oracle.coeffs) != answers[(r, coords)]:
            bad += 1
    return len(small) + len(rank7), bad
