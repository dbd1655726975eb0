"""Exhaustive enumeration of small semigroups up to isomorphism.

Tables are searched by backtracking over cells with incremental
associativity pruning, then deduplicated by canonical form (the
lexicographically minimal table over all relabelings).  Exact for
orders <= 4; larger orders raise BudgetExceeded.

Corpora are keyed by isomorphism, not anti-isomorphism, so a semigroup
and its dual occur as distinct entries whenever they are not isomorphic.

Enumerations are cached per process and returned as tuples.  Corpus
objects are shared per process: every caller of `all_semigroups_upto`,
whatever its max_order, gets the same `FiniteSemigroup` object for each
class, so the derived data cached on it (Green's relations, idempotents)
is computed once per process.
"""

import json
from dataclasses import dataclass, field
from functools import cache

from . import semigroups as sg
from .errors import BudgetExceeded


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


def _labeled_tables(n):
    """All associative n x n tables, by backtracking with pruning."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[None] * n for _ in range(n)]
    out = []

    def rec(k):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[k]
        for v in range(n):
            table[i][j] = v
            if _assoc_ok_after(table, n, i, j):
                rec(k + 1)
        table[i][j] = None

    rec(0)
    return out


def _unflatten(flat, n):
    return tuple(tuple(flat[x * n + y] for y in range(n)) for x in range(n))


@dataclass
class CorpusEntry:
    id: str
    order: int
    table: tuple
    flags: dict = field(default_factory=dict)
    provenance: str = "enumerated"

    def semigroup(self):
        return sg.FiniteSemigroup(self.table, check=False)

    def to_json(self):
        return json.dumps({
            "id": self.id, "order": self.order,
            "table": [list(r) for r in self.table],
            "flags": self.flags, "provenance": self.provenance,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(d["id"], d["order"], tuple(tuple(r) for r in d["table"]),
                   d.get("flags", {}), d.get("provenance", "imported"))


def _flags(S):
    g = S.green()
    return {
        "monoid": S.is_monoid(),
        "regular": len(g.regular_j) == len(g.j_classes),
        "aperiodic": all(S.index_period(x)[1] == 1 for x in range(S.order)),
    }


@cache
def enumerate_semigroups(n):
    """All semigroups of order n up to isomorphism, exact for n <= 4;
    larger orders raise BudgetExceeded."""
    if n <= 0:
        return ()
    if n > 4:
        raise BudgetExceeded("exact enumeration limited to order <= 4")
    canon_set = {sg.canonical_form(table) for table in _labeled_tables(n)}
    entries = []
    for i, flat in enumerate(sorted(canon_set)):
        table = _unflatten(flat, n)
        S = sg.FiniteSemigroup(table, check=False)
        entries.append(CorpusEntry(f"S{n}_{i}", n, table, _flags(S)))
    return tuple(entries)


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
    if max_order < 1:
        return ()
    return all_semigroups_upto(max_order - 1) + tuple(
        e.semigroup() for e in enumerate_semigroups(max_order))


def corpus_entries_upto(max_order):
    out = []
    for n in range(1, max_order + 1):
        out.extend(enumerate_semigroups(n))
    return out


def write_jsonl(entries, path):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(e.to_json() + "\n")


def read_jsonl(path):
    with open(path) as fh:
        return [CorpusEntry.from_json(line) for line in fh if line.strip()]
