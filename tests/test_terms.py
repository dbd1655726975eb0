import copy
import math
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finsemi import semigroups as sg
from finsemi import suites
from finsemi import terms as tm
from finsemi.errors import TermSyntaxError, UnboundLetter


def T(text):
    return tm.parse_term(text)


def test_parse_basic_forms():
    t = T("x1^w x2")
    assert t == tm.concat(tm.power(tm.Letter("x1"), tm.OMEGA), tm.Letter("x2"))
    t = T("(x1^w x2 x1^w)^(2^w)")
    assert isinstance(t, tm.Power)
    assert t.exp == tm.prime_omega(2)
    assert T("a^(w-1)") == tm.power(tm.Letter("a"), tm.omega(-1))
    assert T("a^(w+3)") == tm.power(tm.Letter("a"), tm.omega(3))
    assert T("a^(3^w+1)") == tm.power(tm.Letter("a"), tm.prime_omega(3, 1))
    assert T("abc") == tm.word_term("abc")


def test_parse_rejects_bad_powers():
    with pytest.raises(TermSyntaxError):
        T("x^0")
    with pytest.raises(TermSyntaxError):
        T("x^1")
    with pytest.raises(TermSyntaxError):
        T("x^")
    with pytest.raises(TermSyntaxError):
        T("(a b")


def test_boolean_exponents_are_rejected():
    a = tm.Letter("a")
    for flag in (True, False):
        for build in (lambda: tm.power(a, flag), lambda: tm.Power(a, flag),
                      lambda: tm.omega(flag), lambda: tm.prime_omega(2, flag),
                      lambda: tm.Exponent("primeomega", flag, 0)):
            with pytest.raises(ValueError):
                build()


def test_invalid_nodes_are_not_interned():
    a = tm.Letter("a")
    aa = tm.Concat([a, a])
    before = tm._concat.cache_info().currsize, tm._power.cache_info().currsize
    for build in (lambda: tm.Concat([a]), lambda: tm.Concat([a, aa]),
                  lambda: tm.Power(a, 1), lambda: tm.Power(a, "w")):
        with pytest.raises(ValueError):
            build()
    assert (tm._concat.cache_info().currsize, tm._power.cache_info().currsize) == before


def test_parse_rejects_non_prime():
    with pytest.raises(ValueError):
        T("a^(4^w)")


def test_concat_flattening():
    t = tm.concat(tm.concat(tm.Letter("a"), tm.Letter("b")), tm.Letter("c"))
    assert isinstance(t, tm.Concat) and len(t.parts) == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=6),
       st.sampled_from([2, 3, tm.OMEGA, tm.omega(-1), tm.omega(2), tm.prime_omega(2, 1)]))
def test_round_trip_words_and_powers(word, exp):
    t = tm.power(tm.word_term(word), exp)
    assert tm.parse_term(tm.term_to_text(t)) == t


def test_evaluate_omega_in_cyclic_group():
    C6 = sg.catalog("cyclic", 6)
    g = 1
    e = tm.evaluate(T("a^w"), C6, {"a": g})
    assert e == 0  # identity of C6


def test_evaluate_omega_of_product_in_b2():
    B2 = sg.catalog("B2")
    v = tm.evaluate(T("(a b)^w"), B2, {"a": 0, "b": 1})
    assert v == 2  # ab is idempotent


def test_evaluate_prime_omega_against_stabilization_oracle():
    # brute force: compute x^(2^(n!)) by binary powering with exact exponents
    C6 = sg.catalog("cyclic", 6)
    g = 1
    vals = [C6.power(g, 2 ** math.factorial(n)) for n in range(1, 7)]
    assert vals[-1] == vals[-2]
    got = tm.evaluate(T("a^(2^w)"), C6, {"a": g})
    assert got == vals[-1]
    # closed form: exponent is 0 mod 2-part of 6, 1 mod 3-part: g^4
    assert got == 4


def test_evaluate_prime_omega_various_elements():
    # In the cyclic group C_n written additively, a^E is (a*E) mod n, so the
    # oracle reduces the exponent p^(m!) modulo n directly.
    for n in (2, 3, 4, 5, 6, 12):
        S = sg.catalog("cyclic", n)
        for x in range(n):
            for p in (2, 3, 5):
                exps = {pow(p, math.factorial(m), n) for m in (max(8, n), max(8, n) + 1)}
                assert len(exps) == 1, "oracle exponent not yet stable"
                brute = (x * exps.pop()) % n
                got = tm.evaluate(tm.power(tm.Letter("a"), tm.prime_omega(p)), S, {"a": x})
                assert got == brute


def test_evaluate_omega_offsets():
    C6 = sg.catalog("cyclic", 6)
    g = 1
    assert tm.evaluate(T("a^(w+1)"), C6, {"a": g}) == 1
    assert tm.evaluate(T("a^(w-1)"), C6, {"a": g}) == 5


def test_evaluate_unbound_letter():
    with pytest.raises(UnboundLetter):
        tm.evaluate(T("a b"), sg.catalog("U1"), {"a": 0})


def test_omega_power_is_idempotent_everywhere():
    rng = random.Random(0)
    pool = [sg.catalog("B2"), sg.catalog("B2_1"), sg.catalog("cyclic", 6),
            sg.catalog("free_band_2"), sg.catalog("U1")]
    t = T("a^w")
    for S in pool:
        for x in range(S.order):
            v = tm.evaluate(t, S, {"a": x})
            assert S.table[v][v] == v
    # exponent arithmetic: x^(w+1) x^(w-1) = x^w
    lhs = tm.parse_term("a^(w+1) a^(w-1)")
    for S in pool:
        for x in range(S.order):
            assert tm.evaluate(lhs, S, {"a": x}) == tm.evaluate(t, S, {"a": x})
    del rng


def test_satisfies_examples():
    U1 = sg.catalog("U1")
    lz2 = sg.catalog("left_zero", 2)
    pi = tm.parse_identity("x1^w = x1^w x2")
    assert not tm.satisfies(U1, pi)
    ok, asg = tm.satisfies(U1, pi, witness=True)
    assert not ok and asg is not None
    assert tm.satisfies(lz2, pi)
    refl = tm.parse_identity("x1^w x2 = x1^w x2")
    assert tm.satisfies(U1, refl)


def test_substitute():
    x1w = T("x1^w")
    assert tm.substitute(x1w, {"x1": x1w}) == tm.power(x1w, tm.OMEGA)
    t = T("x1^w x2")
    u, v = T("a b"), T("c")
    got = tm.substitute(t, {"x1": u, "x2": v})
    assert got == tm.concat(tm.power(u, tm.OMEGA), v)


def test_reverse_chi():
    assert tm.reverse_chi(T("a b c")) == tm.word_term("cba")
    assert tm.reverse_chi(T("x1 x2^(w+1)")) == tm.concat(
        tm.power(tm.Letter("x2"), tm.omega(1)), tm.Letter("x1"))


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    st.sampled_from(list("abc")).map(tm.Letter),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ps: tm.concat(*ps)),
        st.tuples(children, st.sampled_from([2, 3, tm.OMEGA, tm.omega(-1)]))
        .map(lambda be: tm.power(*be)),
    ),
    max_leaves=8,
))
def test_chi_involution(t):
    assert tm.reverse_chi(tm.reverse_chi(t)) == t


def test_lemma_2_1_identity_transport():
    rng = random.Random(7)
    pool = [sg.catalog("B2"), sg.catalog("U1"), sg.catalog("cyclic", 3),
            sg.catalog("left_zero", 2), sg.catalog("free_band_2")]
    bank = ["x1^w = x1^w x2", "x1 x2 = x2 x1", "x1^w x2 x1^w = x1^w",
            "(x1 x2)^w = (x2 x1)^w", "x1^2 = x1", "x1^w = x1^(w+1)",
            "x1 x2 x1 = x1", "(x1 x2)^w x1 = (x1 x2)^w"]
    for _ in range(300):
        S = rng.choice(pool)
        pi = tm.parse_identity(rng.choice(bank))
        dual_pi = tm.pseudo_identity(tm.reverse_chi(pi.lhs), tm.reverse_chi(pi.rhs),
                                     pi.alphabet)
        assert tm.satisfies(S, pi) == tm.satisfies(sg.dual(S), dual_pi)


def test_content():
    assert tm.content(T("(x1^w x2 x1^w)^(2^w)")) == {"x1", "x2"}
    assert tm.content(T("a")) == {"a"}


def test_beta_tau():
    assert tm.beta_k(T("(a b)^w c"), 2) == ("a", "b")
    assert tm.tau_k(T("x1^w x2"), 1) == ("x2",)
    assert tm.beta_k(T("a b^w"), 3) == ("a", "b", "b")
    assert tm.beta_k(T("a b"), 5) == ("a", "b")
    w, exact = tm.prefix_word(T("a b"), 5)
    assert exact and w == ("a", "b")
    w, exact = tm.prefix_word(T("a^w"), 5)
    assert not exact and w == ("a",) * 5
    # suffix of an omega-power tail
    assert tm.tau_k(T("c (a b)^w"), 3) == ("b", "a", "b")


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=10), st.integers(1, 5))
def test_beta_tau_of_words_match_slices(word, k):
    t = tm.word_term(word)
    assert "".join(tm.beta_k(t, k)) == word[:k]
    assert "".join(tm.tau_k(t, k)) == word[-k:] if len(word) >= k else word


def test_left_contour():
    c = tm.left_contour(T("(a b)^w"))
    assert c.kind == "up" and c.prefix == () and c.period == ("a", "b")
    c = tm.left_contour(T("a b (b a)^w c"))
    assert c.kind == "up"
    # ab(ba)^w = abbaba... = prefix 'ab', period 'ba'; normalized form rotates
    # to prefix 'a', period 'bb'? no: abbababa...: minimal prefix 'abb' period 'ab'
    assert c == tm.left_contour(T("a b b (a b)^w"))
    c = tm.left_contour(T("a b c"))
    assert c.kind == "finite" and c.prefix == ("a", "b", "c")


def test_left_contour_normalization():
    # same infinite word written two ways
    c1 = tm.left_contour(T("a (b a)^w"))
    c2 = tm.left_contour(T("(a b)^w"))
    assert c1 == c2
    c3 = tm.left_contour(T("(a b a b)^w"))
    assert c3 == c2


def test_satisfies_invariant_under_renaming():
    B2 = sg.catalog("B2")
    pi = tm.parse_identity("x1^w = x1^w x2")
    renamed = tm.pseudo_identity(
        tm.substitute(pi.lhs, {"x1": tm.Letter("y1"), "x2": tm.Letter("y2")}),
        tm.substitute(pi.rhs, {"x1": tm.Letter("y1"), "x2": tm.Letter("y2")}))
    assert tm.satisfies(B2, pi) == tm.satisfies(B2, renamed)


def _same_structure(s, t):
    """Structural equality written out: node type and fields, recursively."""
    if type(s) is not type(t):
        return False
    if isinstance(s, tm.Letter):
        return s.symbol == t.symbol
    if isinstance(s, tm.Concat):
        return (len(s.parts) == len(t.parts)
                and all(map(_same_structure, s.parts, t.parts)))
    return (type(s.exp) is type(t.exp) and s.exp == t.exp
            and _same_structure(s.base, t.base))


def _rebuild(t):
    """A fresh construction of t, node by node, with lists for parts."""
    if isinstance(t, tm.Letter):
        return tm.Letter(t.symbol)
    if isinstance(t, tm.Concat):
        return tm.Concat([_rebuild(p) for p in t.parts])
    return tm.Power(_rebuild(t.base), t.exp)


def _lemma69_terms(seed, n):
    rng = random.Random(seed)
    return [suites._random_term(rng, "ab") for _ in range(n)]


def test_terms_are_hash_consed():
    terms = _lemma69_terms(0, 150) + _lemma69_terms(1, 150)
    again = _lemma69_terms(0, 150)
    assert all(s is t for s, t in zip(terms, again))
    equal_pairs = 0
    for s in terms:
        for t in terms:
            same = _same_structure(s, t)
            assert (s == t) == same == (s is t)
            if same:
                equal_pairs += 1
                assert hash(s) == hash(t)
    assert equal_pairs > len(terms)  # the sample repeats some terms
    for t in terms:
        assert _rebuild(t) is t
        assert tm.parse_term(tm.term_to_text(t)) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t and copy.copy(t) is t


def test_term_nodes_are_immutable():
    t = T("a (a b)^w")
    power = t.parts[1]
    for node, name in ((t.parts[0], "symbol"), (t, "parts"), (power, "base"),
                       (power, "exp"), (t, "_hash"), (t, "colour")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(AttributeError):
        del power.base


def test_concat_of_a_list_is_hashable():
    a = tm.Letter("a")
    t = tm.Concat([a, a])
    assert t is tm.Concat((a, a)) is T("a a")
    assert {t: 1}[T("a a")] == 1


def test_term_reprs():
    assert repr(T("a b^w")) == (
        "Concat(parts=(Letter('a'), Power(base=Letter('b'), "
        "exp=Exponent(kind='omega', p=None, offset=0))))")
    assert repr(T("(a b)^2")) == (
        "Power(base=Concat(parts=(Letter('a'), Letter('b'))), exp=2)")


def test_term_hashes_do_not_depend_on_addresses():
    # the hash is structural, so sets of terms iterate in the same order
    # in every process with the same PYTHONHASHSEED
    script = (
        "import sys; junk = [object() for _ in range(int(sys.argv[1]))]\n"
        "from finsemi import terms as tm\n"
        "ts = [tm.parse_term(x) for x in ('a', 'a b', 'b^w a', '(a b)^(w-1)', 'b a b')]\n"
        "print([hash(t) for t in ts], [tm.term_to_text(t) for t in set(ts)])\n")
    src = str(Path(tm.__file__).parents[1])
    runs = [subprocess.run([sys.executable, "-c", script, str(n)], check=True,
                           capture_output=True, text=True,
                           env={"PYTHONHASHSEED": "0", "PYTHONPATH": src}).stdout
            for n in (0, 5000)]
    assert runs[0] == runs[1] and runs[0]
