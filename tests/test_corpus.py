import json
from itertools import permutations
from math import factorial

import pytest

from finsemi import corpus as cp
from finsemi import semigroups as sg
from finsemi.errors import BudgetExceeded


def test_counts_up_to_isomorphism():
    assert len(cp.enumerate_semigroups(1)) == 1
    assert len(cp.enumerate_semigroups(2)) == 5
    assert len(cp.enumerate_semigroups(3)) == 24
    assert len(cp.enumerate_semigroups(4)) == 188
    assert len(cp.enumerate_semigroups(5)) == 1915  # OEIS A027851


def test_naive_cross_check():
    for n in (1, 2, 3):
        assert len(cp.naive_enumerate(n)) == len(cp.enumerate_semigroups(n))
    with pytest.raises(BudgetExceeded):
        cp.naive_enumerate(4)


def test_entries_are_canonical_and_distinct():
    for n in (3, 5):
        corpus = cp.enumerate_semigroups(n)
        canons = set()
        for S in corpus:
            flat = tuple(v for row in S.table for v in row)
            assert sg.canonical_form(S.table) == flat  # canonical form is idempotent
            canons.add(flat)
        assert len(canons) == len(corpus)


def _labeled_tables(n):
    """All associative n x n tables, by backtracking with pruning: the
    reference that orderly generation is compared against."""
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
            if cp._assoc_ok_after(table, n, i, j):
                rec(k + 1)
        table[i][j] = None

    rec(0)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderly_generation_matches_labeled_search(n):
    # reference: every labeled table, canonicalized and deduplicated
    ref = sorted({sg.canonical_form(t) for t in _labeled_tables(n)})
    assert cp._canonical_tables(n) == ref
    assert [S.table for S in cp.enumerate_semigroups(n)] == [cp._unflatten(f, n) for f in ref]


def _automorphisms(table):
    n = len(table)
    return sum(all(p[table[a][b]] == table[p[a]][p[b]]
                   for a in range(n) for b in range(n))
               for p in permutations(range(n)))


@pytest.mark.parametrize("n,labeled", [(4, 3492), (5, 183732)])
def test_classes_account_for_every_labeled_table(n, labeled):
    # a class with automorphism group A has n!/|A| labeled tables (OEIS A023814)
    total = sum(factorial(n) // _automorphisms(S.table)
                for S in cp.enumerate_semigroups(n))
    assert total == labeled


def test_corpus_contains_duals_distinctly():
    # left_zero(2) and right_zero(2) are anti-isomorphic but not isomorphic,
    # and both appear in the order-2 corpus
    tables = {S.table for S in cp.enumerate_semigroups(2)}
    lz = sg.canonical_form(sg.catalog("left_zero", 2).table)
    rz = sg.canonical_form(sg.catalog("right_zero", 2).table)
    assert lz != rz
    assert cp._unflatten(lz, 2) in tables and cp._unflatten(rz, 2) in tables


def test_flags():
    by_canon = {S.table: S for S in cp.enumerate_semigroups(2)}
    u1 = cp._unflatten(sg.canonical_form(sg.catalog("U1").table), 2)
    c2 = cp._unflatten(sg.canonical_form(sg.catalog("cyclic", 2).table), 2)
    assert cp._flags(by_canon[u1]) == {"monoid": True, "regular": True, "aperiodic": True}
    assert cp._flags(by_canon[c2]) == {"monoid": True, "regular": True, "aperiodic": False}


def test_order_six_exceeds_budget():
    with pytest.raises(BudgetExceeded):
        cp.enumerate_semigroups(6)


def test_order_past_the_cap_raises_before_any_enumeration():
    # the caches are shared with the other tests, so they are read, not
    # cleared: a call that enumerated first would count hits or misses
    before = cp.enumerate_semigroups.cache_info()
    with pytest.raises(BudgetExceeded):
        cp.all_semigroups_upto(cp.EXACT_MAX_ORDER + 1)
    assert cp.enumerate_semigroups.cache_info() == before


def test_jsonl_round_trip(tmp_path):
    corpus = cp.all_semigroups_upto(2)
    path = tmp_path / "c.jsonl"
    cp.write_jsonl(corpus, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ('{"flags": {"aperiodic": true, "monoid": true, "regular": true}, '
                        '"id": "S1_0", "order": 1, "provenance": "enumerated", "table": [[0]]}')
    back = [json.loads(line) for line in lines]
    assert [d["id"] for d in back] == ["S1_0", *(f"S2_{i}" for i in range(5))]
    assert [tuple(map(tuple, d["table"])) for d in back] == [S.table for S in corpus]
    assert [d["flags"] for d in back] == [cp._flags(S) for S in corpus]


def test_suite_determinism(monkeypatch, run_suite):
    from finsemi import suites
    monkeypatch.setattr(suites, "DUALITY_INSTANCES", 300)
    monkeypatch.setattr(suites, "DUALITY_MU_SAMPLES", 20)
    r1 = run_suite("duality", {"seed": 7})
    r2 = run_suite("duality", {"seed": 7})
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("wall_ms"), d2.pop("wall_ms")
    assert d1 == d2
