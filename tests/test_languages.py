import random
from itertools import product

import pytest

from finsemi import languages as lg
from finsemi import malcev as mv
from finsemi import semigroups as sg
from finsemi.errors import OutOfRangeEntry, RegexSyntaxError
from finsemi.pseudovarieties import member


def words_upto(alphabet, n):
    for ln in range(n + 1):
        for w in product(alphabet, repeat=ln):
            yield "".join(w)


def accepts(d, word):
    """Whether the DFA d accepts word: the oracle the predicates are checked against."""
    q = d.initial
    for ch in word:
        q = d.delta[q][d.alphabet.index(ch)]
    return q in d.finals


def test_parse_regex_basics():
    d = lg.parse_regex("(ab)+")
    assert d.states == 4  # 3 live states plus sink
    assert accepts(d, "abab") and not accepts(d, "ba") and not accepts(d, "")
    with pytest.raises(RegexSyntaxError):
        lg.parse_regex("")
    with pytest.raises(RegexSyntaxError):
        lg.parse_regex("(a")


def test_minimize_idempotent_and_presentation_independent():
    d1 = lg.parse_regex("(ab)+")
    d2 = lg.parse_regex("ab(ab)*")
    assert d1 == d2  # canonical minimal DFA
    assert lg.minimize(d1) == d1
    one = lg.Dfa(("a",), ((0,),), 0, frozenset({0}))  # a+, one final state
    assert lg.minimize(one) == one
    assert lg.minimize(lg.Dfa(("a",), ((1,), (0,)), 0, frozenset({0, 1}))) == one
    # states 2 and 3 are unreachable, and 3 accepts what 1 accepts
    padded = lg.Dfa(("a",), ((1,), (1,), (0,), (1,)), 0, frozenset({1, 2, 3}))
    assert lg.minimize(padded) == lg.Dfa(("a",), ((1,), (1,)), 0, frozenset({1}))
    s1 = lg.syntactic_semigroup(lg.parse_regex("a(ba)*b|ab(ab)*"))
    s2 = lg.syntactic_semigroup(d1)
    assert sg.is_isomorphic(s1.semigroup, s2.semigroup)


def test_syntactic_semigroup_examples():
    assert sg.is_isomorphic(
        lg.syntactic_semigroup(lg.parse_regex("(ab)+")).semigroup,
        sg.catalog("B2"))
    assert lg.syntactic_semigroup(lg.parse_regex("a+")).semigroup.order == 1
    d = lg.parse_regex("(a|b)*a(a|b)*", alphabet="ab")
    assert member(lg.syntactic_semigroup(d).semigroup, "Sl")


def test_syntactic_eval_is_homomorphism():
    syn = lg.syntactic_semigroup(lg.parse_regex("(ab)+"))
    rng = random.Random(0)
    for _ in range(200):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        assert syn.semigroup.table[syn.eval(u)][syn.eval(v)] == syn.eval(u + v)
    # acceptance through the syntactic semigroup matches the DFA
    d = lg.parse_regex("(ab)+")
    for w in words_upto("ab", 6):
        if w:
            assert (syn.eval(w) in syn.accepting) == accepts(d, w)


def test_language_variety_member():
    def syntactic_member(d, V):
        return member(lg.syntactic_semigroup(d).semigroup, V)

    assert not syntactic_member(lg.parse_regex("(ab)+"), "DS")
    d = lg.parse_regex("(a|b)*a(a|b)*", alphabet="ab")
    assert syntactic_member(d, "Sl")
    assert syntactic_member(lg.parse_regex("(a|b)+"), "I")


def test_marked_product_language():
    d1 = lg.parse_regex("b+", alphabet="ab")
    d2 = lg.parse_regex("b+", alphabet="ab")
    p = lg.marked_product(d1, "a", d2)
    for w in words_upto("ab", 7):
        want = any(w[:i] and set(w[:i]) == {"b"} and w[i] == "a"
                   and w[i + 1:] and set(w[i + 1:]) == {"b"}
                   for i in range(len(w)))
        assert accepts(p, w) == want, w


def test_marked_product_empty_language():
    # empty L1 gives the empty product
    nowhere = lg.Dfa(("a", "b"), ((0, 0),), 0, frozenset())
    d2 = lg.parse_regex("b+", alphabet="ab")
    p = lg.marked_product(nowhere, "a", d2)
    assert all(not accepts(p, w) for w in words_upto("ab", 6))


def test_unambiguity_predicate():
    d1 = lg.parse_regex("a+", alphabet="ab")
    d2 = lg.parse_regex("a+", alphabet="ab")
    assert not lg.is_unambiguous(d1, "a", d2)  # aaa = a.a.a two ways
    s1 = lg.parse_regex("a", alphabet="abc")
    s2 = lg.parse_regex("b", alphabet="abc")
    assert lg.is_unambiguous(s1, "c", s2)


def test_unambiguity_needs_a_shared_alphabet():
    d1 = lg.parse_regex("a+", alphabet="ab")
    d2 = lg.parse_regex("a*b", alphabet="ab")
    assert not lg.is_unambiguous(d1, "a", d2)  # aaab = a.a.ab = aa.a.b
    # the same language as d2, its alphabet listed as ("b", "a")
    ba = lg.Dfa(("b", "a"), tuple((b, a) for a, b in d2.delta), d2.initial, d2.finals)
    assert all(accepts(ba, w) == accepts(d2, w) for w in words_upto("ab", 6))
    with pytest.raises(ValueError, match="shared alphabet"):
        lg.is_unambiguous(d1, "a", ba)


def brute_force_factorization_counts(d1, a, d2, alphabet, n=7):
    counts = {}
    for w in words_upto(alphabet, n):
        c = 0
        for i, ch in enumerate(w):
            if ch == a and accepts(d1, w[:i]) and accepts(d2, w[i + 1:]):
                c += 1
        counts[w] = c
    return counts


def brute_force_prefix_counts(d1, a, alphabet, w):
    return sum(1 for i, ch in enumerate(w) if ch == a and accepts(d1, w[:i]))


def test_predicates_against_brute_force():
    pool = ["a", "b", "ab", "(ab)+", "a+", "b+", "(a|b)+", "(a|b)*a", "b*ab*",
            "a(a|b)*"]
    rng = random.Random(4)
    for _ in range(60):
        r1, r2 = rng.choice(pool), rng.choice(pool)
        marker = rng.choice("ab")
        d1 = lg.parse_regex(r1, alphabet="ab")
        d2 = lg.parse_regex(r2, alphabet="ab")
        counts = brute_force_factorization_counts(d1, marker, d2, "ab")
        ambiguous = any(c >= 2 for c in counts.values())
        assert lg.is_unambiguous(d1, marker, d2) == (not ambiguous), (r1, marker, r2)
        p = lg.marked_product(d1, marker, d2)
        twoprefix = any(
            accepts(p, w) and brute_force_prefix_counts(d1, marker, "ab", w) >= 2
            for w in counts
        )
        assert lg.is_left_deterministic(d1, marker, d2) == (not twoprefix), \
            (r1, marker, r2)


def test_right_deterministic_dual():
    d1 = lg.parse_regex("b+", alphabet="ab")
    d2 = lg.parse_regex("b+", alphabet="ab")
    assert lg.is_right_deterministic(d1, "a", d2)
    d2b = lg.parse_regex("(a|b)*a", alphabet="ab")
    # suffixes in a.L2 are not unique when L2 can both end and continue
    prod = lg.marked_product(d1, "a", d2b)
    def suffix_count(w):
        return sum(1 for i, ch in enumerate(w) if ch == "a" and accepts(d2b, w[i+1:]))
    bad = [w for w in words_upto("ab", 7) if accepts(prod, w) and suffix_count(w) >= 2]
    assert lg.is_right_deterministic(d1, "a", d2b) == (not bad)


def test_closure_theorem_construction_direction():
    # sampled pairs with syntactic semigroups in LSl: left-deterministic
    # products land in LR, right-deterministic in LL, unambiguous in LDA
    pool = ["a", "b", "ab", "(ab)+", "a+", "b+", "(a|b)+", "(a|b)*a",
            "b*ab*", "a(a|b)*", "(ba)+", "(a|b)*b"]
    dfas = {r: lg.parse_regex(r, alphabet="ab") for r in pool}
    lsl = {r: d for r, d in dfas.items()
           if mv.lv_member(lg.syntactic_semigroup(d).semigroup, "Sl")}
    assert len(lsl) >= 8
    checked = {"left": 0, "right": 0, "unamb": 0}
    for r1, d1 in lsl.items():
        for r2, d2 in lsl.items():
            for marker in "ab":
                p = lg.marked_product(d1, marker, d2)
                syn = lg.syntactic_semigroup(p).semigroup
                if lg.is_left_deterministic(d1, marker, d2):
                    assert mv.lv_member(syn, "R"), (r1, marker, r2)
                    checked["left"] += 1
                if lg.is_right_deterministic(d1, marker, d2):
                    assert mv.lv_member(syn, "L"), (r1, marker, r2)
                    checked["right"] += 1
                if lg.is_unambiguous(d1, marker, d2):
                    assert mv.lv_member(syn, "DA"), (r1, marker, r2)
                    checked["unamb"] += 1
    assert all(v >= 50 for v in checked.values()), checked


@pytest.mark.parametrize("field, value", [
    ("delta", [[0, 0], [0, 0]]),  # a row longer than the alphabet
    ("delta", [[0], [5]]),  # a target state out of range
    ("initial", 2),
    ("finals", [0, 7]),
])
def test_dfa_rejects_malformed_fields(field, value):
    fields = {"alphabet": ("a",), "delta": ((0,), (1,)), "initial": 0,
              "finals": frozenset({1})}
    lg.Dfa(**fields)
    with pytest.raises(OutOfRangeEntry):
        lg.Dfa(**dict(fields, **{field: value}))


def test_dfa_validation_survives_optimized_mode():
    # python -O strips assert statements; the checks must not be asserts
    import os
    import subprocess
    import sys
    import finsemi
    src = os.path.dirname(os.path.dirname(finsemi.__file__))
    code = ("from finsemi import languages as lg\n"
            "from finsemi.errors import OutOfRangeEntry\n"
            "try:\n"
            "    lg.Dfa(('a',), ((5,),), 0, frozenset({0}))\n"
            "except OutOfRangeEntry:\n"
            "    print('rejected')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "rejected"
