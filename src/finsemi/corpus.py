"""Exhaustive enumeration of small semigroups up to isomorphism.

Tables are generated orderly: a backtracking search fills cells in
row-major order with incremental associativity pruning, and drops a
partial table as soon as some relabeling provably makes it
lexicographically smaller.  Every table that survives is the canonical
form (the lexicographically minimal flattened table over all
relabelings) of its class, so each class is generated exactly once, in
ascending order.  Exact for orders <= 5; larger orders raise
BudgetExceeded.

Corpora are keyed by isomorphism, not anti-isomorphism, so a semigroup
and its dual occur as distinct entries whenever they are not isomorphic.

Enumerations are cached per process and returned as tuples.  Corpus
objects are shared per process: every caller of `enumerate_semigroups`
or `all_semigroups_upto`, whatever its order, gets the same
`FiniteSemigroup` object for each class, so the derived data cached on
it (Green's relations, idempotents) is computed once per process.
"""

import json
from collections import Counter
from functools import cache
from itertools import permutations

from . import semigroups as sg
from .errors import BudgetExceeded

EXACT_MAX_ORDER = 5


def _check_exact(max_order):
    """Raise BudgetExceeded before any enumeration past the exact cap."""
    if max_order > EXACT_MAX_ORDER:
        raise BudgetExceeded(
            f"exact enumeration limited to order <= {EXACT_MAX_ORDER}")


def _assoc_ok_after(table, n, i, j):
    """Check every associativity triple decided by the newly set cell (i, j).

    The cell can participate as (xy), as (yz), as the outer left lookup
    ((xy) z with xy = i, z = j), or as the outer right lookup
    (x (yz) with x = i, yz = j)."""
    v = table[i][j]
    # triple (i, j, z): (ij)z vs i(jz)
    for z in range(n):
        p = table[v][z]
        q = table[j][z]
        if p is not None and q is not None:
            r = table[i][q]
            if r is not None and p != r:
                return False
    # triple (x, i, j): (xi)j vs x(ij)
    for x in range(n):
        p = table[x][i]
        if p is not None:
            lhs = table[p][j]
            rhs = table[x][v]
            if lhs is not None and rhs is not None and lhs != rhs:
                return False
    for x in range(n):
        row = table[x]
        for y in range(n):
            # triple (x, y, j) with xy = i: (xy)j = v vs x(yj)
            if row[y] == i:
                q = table[y][j]
                if q is not None:
                    r = table[x][q]
                    if r is not None and v != r:
                        return False
            # triple (i, x, y) with xy = j: (ix)y vs i(xy) = v
            if row[y] == j:
                p = table[i][x]
                if p is not None:
                    lhs = table[p][y]
                    if lhs is not None and lhs != v:
                        return False
    return True


def _canonical_tables(n):
    """The flattened canonical forms of all associative n x n tables, in
    ascending order (orderly generation, after McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).

    A relabeling pi sends the table T to T^pi with
    T^pi[pi a][pi b] = pi T[a][b].  Cells are filled in row-major order,
    so after cell k the first k + 1 entries of T are fixed, and so is
    each entry of T^pi whose source cell is among them.  Each live pi
    keeps the position up to which T^pi equals T.  Where they first
    differ with both entries fixed, T^pi < T prunes the branch (no
    completion of T is canonical) and T^pi > T retires pi for the whole
    subtree; an unfixed entry of T^pi leaves pi live."""
    size = n * n
    table = [[None] * n for _ in range(n)]
    flat = [None] * size
    identity = tuple(range(n))
    live = []
    for perm in permutations(range(n)):
        if perm != identity:
            src = [0] * size
            for a in range(n):
                for b in range(n):
                    src[perm[a] * n + perm[b]] = a * n + b
            live.append((perm, src, 0))
    out = []

    def rec(k, live):
        if k == size:
            out.append(tuple(flat))
            return
        i, j = divmod(k, n)
        row = table[i]
        for v in range(n):
            row[j] = flat[k] = v
            if not _assoc_ok_after(table, n, i, j):
                continue
            still = []
            for perm, src, p in live:
                while p <= k:
                    w = flat[src[p]]
                    if w is None:
                        break
                    w = perm[w]
                    if w != flat[p]:
                        break
                    p += 1
                if p > k or w is None:
                    still.append((perm, src, p))
                elif w < flat[p]:
                    break
            else:
                rec(k + 1, still)
        row[j] = flat[k] = None

    rec(0, live)
    return out


def _unflatten(flat, n):
    return tuple(tuple(flat[x * n + y] for y in range(n)) for x in range(n))


@cache
def enumerate_semigroups(n):
    """All semigroups of order n up to isomorphism, one FiniteSemigroup
    per class with its canonical table, in ascending order of that table.
    Exact for n <= EXACT_MAX_ORDER (orderly generation, no
    canonicalization afterwards); larger orders raise BudgetExceeded."""
    _check_exact(n)
    if n <= 0:
        return ()
    return tuple(sg.FiniteSemigroup(_unflatten(flat, n), check=False)
                 for flat in _canonical_tables(n))


def naive_enumerate(n):
    """Independent brute-force enumerator for cross-checking (n <= 3):
    filter all n^(n^2) tables by associativity, dedup by canonical form."""
    if n > 3:
        raise BudgetExceeded("naive enumeration limited to order <= 3")
    from itertools import product
    canon_set = set()
    rng = range(n)
    for flat in product(rng, repeat=n * n):
        table = _unflatten(flat, n)
        if all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in rng for y in rng for z in rng):
            canon_set.add(sg.canonical_form(table))
    return sorted(canon_set)


@cache
def all_semigroups_upto(max_order):
    """FiniteSemigroup objects for every iso class of order <= max_order,
    shared by every caller in the process: the corpus of a smaller order
    is a prefix of this one, made of the same objects."""
    _check_exact(max_order)
    if max_order < 1:
        return ()
    return all_semigroups_upto(max_order - 1) + enumerate_semigroups(max_order)


def _flags(S):
    g = S.green()
    return {
        "monoid": S.is_monoid(),
        "regular": len(g.regular_j) == len(g.j_classes),
        "aperiodic": all(S.index_period(x)[1] == 1 for x in range(S.order)),
    }


def write_jsonl(semigroups, path):
    """One JSON line per semigroup, derived as it is written: the id
    S<order>_<i> for the i-th semigroup of its order, the table, the
    flags and the provenance."""
    count = Counter()
    with open(path, "w") as fh:
        for S in semigroups:
            fh.write(json.dumps({
                "id": f"S{S.order}_{count[S.order]}", "order": S.order,
                "table": [list(r) for r in S.table],
                "flags": _flags(S), "provenance": "enumerated",
            }, sort_keys=True) + "\n")
            count[S.order] += 1
