import random

import pytest
from hypothesis import given, settings, strategies as st

from finsemi import dk
from finsemi import factorization as fz
from finsemi import pseudovarieties as pv
from finsemi import suites
from finsemi import terms as tm
from finsemi.pseudovarieties import member, proves_equal_over_S


def T(text):
    return tm.parse_term(text)


def test_lbf_word_examples():
    r = fz.lbf("bacbab")
    assert (r.x, r.a, r.y) == (("b", "a"), "c", ("b", "a", "b"))
    r = fz.lbf("a")
    assert (r.x, r.a, r.y) == ((), "a", ())
    r = fz.lbf("abab")
    assert (r.x, r.a, r.y) == (("a",), "b", ("a", "b"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=10))
def test_lbf_word_unique_against_enumeration(w):
    # the returned split is the only (x, a, y) with a not in c(x), c(xa)=c(w)
    word = tuple(w)
    splits = []
    for i in range(len(word)):
        x, a, y = word[:i], word[i], word[i + 1:]
        if a not in set(x) and set(x) | {a} == set(word):
            splits.append((x, a, y))
    r = fz.lbf(word)
    assert splits == [(r.x, r.a, r.y)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=12))
def test_ilbf_word_recombination(w):
    word = tuple(w)
    res = fz.ilbf(word)
    assert res.outcome == "finite"
    rebuilt = ()
    for (x, a) in res.factors:
        rebuilt += x + (a,)
    rebuilt += res.remainder
    assert rebuilt == word
    # remainder content is strictly smaller
    if word:
        assert set(res.remainder) < set(word) or res.remainder == ()


def test_ilbf_word_examples():
    assert fz.ilbf("abab").length == 2 and fz.ilbf("abab").remainder == ()
    assert fz.ilbf("aaa").length == 3
    res = fz.ilbf("abcab")
    assert res.length == 1 and res.factors[0] == (("a", "b"), "c")
    assert res.remainder == ("a", "b")


def test_lbf_term_examples():
    r = fz.lbf_term(T("(a b)^w"))
    assert tm.term_to_text(r.x) == "a" and r.a == "b"
    rec = tm.concat(r.x, tm.Letter(r.a), r.y)
    assert proves_equal_over_S(rec, T("(a b)^w")).proved
    r = fz.lbf_term(T("a^w b"))
    assert r.x == T("a^w") and r.a == "b" and r.y is None
    r = fz.lbf_term(T("a b c"))
    assert (r.x, r.a, r.y) == (tm.word_term("ab"), "c", None)
    r = fz.lbf_term(T("(a b)^w c"))
    assert r.a == "c" and proves_equal_over_S(r.x, T("(a b)^w")).proved


def test_lbf_term_recombination_certified():
    rng = random.Random(3)
    pool = ["(a b)^w", "a^w b a^w", "(a b c)^w", "b (a c)^w", "(a b)^(w+1) c",
            "a^w b^w", "(a b)^(w-1)", "((a b)^w c)^w", "a b a c"]
    for text in pool:
        t = T(text)
        r = fz.lbf_term(t)
        parts = [p for p in (r.x, tm.Letter(r.a), r.y) if p is not None]
        assert proves_equal_over_S(tm.concat(*parts), t).proved, text
        if r.x is not None:
            assert r.a not in tm.content(r.x)
            assert tm.content(r.x) | {r.a} == tm.content(t)
    del rng


def test_ilbf_term_outcomes():
    assert fz.ilbf_term(T("(a b)^w")).outcome == "infinite"
    assert fz.ilbf_term(tm.word_term("abab")).outcome == "finite"
    assert fz.ilbf_term(T("(a b c)^w a")).outcome == "infinite"
    assert fz.ilbf_term(T("a^w b a^w")).outcome == "finite"
    assert fz.ilbf_term(T("a^w")).outcome == "infinite"
    assert fz.ilbf_term(T("(a^w b)^w")).outcome == "infinite"


def test_a_nonpositive_cap_is_rejected():
    # a cap below 1 tries no factor at all, so it cannot answer unknown
    for cap in (0, -2):
        with pytest.raises(ValueError):
            fz.ilbf_term(T("(a b)^w"), cap=cap)
        with pytest.raises(ValueError):
            fz.ilbf2(T("(a b)^w"), cap=cap)
        with pytest.raises(ValueError):
            fz.ilbf2("abab", cap=cap)
    assert fz.ilbf_term(T("(a b)^w"), cap=1).outcome == "infinite"
    assert fz.ilbf_term(T("a^50"), cap=1).outcome == "unknown"


def test_the_cap_bounds_the_factors_taken():
    # the remainder after the last factor allowed is still examined
    for text, cap in [("a b a b", 2), ("a b", 1)]:
        res = fz.ilbf_term(T(text), cap=cap)
        assert res.outcome == "finite" and len(res.factors) == cap, text
    res = fz.ilbf_term(T("a^50"), cap=3)
    assert res.outcome == "unknown" and len(res.factors) == 3


def test_ilbf2_word_examples():
    res = fz.ilbf2("abab")
    assert res.factors == [("a", "b")] and res.q == ("a", "b")
    res = fz.ilbf2("aa")
    assert res.factors == [("a",)] and res.q == ("a",)
    res = fz.ilbf2("ab")
    assert res.length == 1 and res.factors == [("a",)] and res.q == ("b",)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab", min_size=2, max_size=12))
def test_ilbf2_word_phi_reconstruction(w):
    # phi_1(u) = phi_1(u_1) z_1 phi_1(u_2) z_2 ... phi_1(q), with
    # z_i = tau_1(u_i) beta_1(u_next)
    word = tuple(w)
    res = fz.ilbf2(word)
    assert res.outcome == "finite"
    seq = res.factors + [res.q]
    rebuilt = ()
    for i, u_i in enumerate(seq):
        rebuilt += dk.phi_k(u_i, 1).blocks
        if i + 1 < len(seq):
            z = (u_i[-1], seq[i + 1][0])
            rebuilt += (z,)
    assert rebuilt == dk.phi_k(word, 1).blocks
    # and the factors concatenate back to the word
    assert sum(seq, ()) == word


def test_ilbf2_terms():
    res = fz.ilbf2(T("(a b)^w"))
    assert res.outcome == "infinite"
    # each u_i is the unique preimage of the block [ab], i.e. the word ab
    assert all(proves_equal_over_S(f, T("a b")).proved for f in res.factors)
    res = fz.ilbf2(T("a^w"))
    assert res.outcome == "infinite"
    res = fz.ilbf2(T("a^w b"))
    assert res.outcome == "finite"


def test_ilbf2_cap_in_the_degenerate_case():
    # the window image of a^50 is one block, repeated 49 times: past the
    # cap the factorization is unknown, not infinite
    word = fz.ilbf2("a" * 50)
    assert fz.ilbf2(T("a^50"), cap=40).outcome == "unknown"
    res = fz.ilbf2(T("a^50"), cap=60)
    assert res.outcome == word.outcome == "finite"
    assert res.length == word.length == 49
    assert res.factors == [tm.Letter("a")] * 49 and res.q == tm.Letter("a")


def test_one_block_words_match_the_term_route():
    # a word whose window image is one block is answered without
    # factorizing the image; the term route still factorizes it
    words = [x + y for x in "abc" for y in "abc" if x != y]
    words += [x * n for x in "abc" for n in range(2, 9)]
    for w in words:
        word, term = fz.ilbf2(w), fz.ilbf2(tm.word_term(w))
        assert word.outcome == term.outcome == "finite"
        assert word.factors == [(f.symbol,) for f in term.factors], w
        assert word.q == (term.q.symbol,), w


def bounded_unfolding_regular(t, k):
    """Oracle: replace limit exponents by M in {4, 6, 8}; the term is
    regular iff the ilbf length of the window image keeps growing."""
    def unfold(t, M):
        if isinstance(t, tm.Letter):
            return t
        if isinstance(t, tm.Concat):
            return tm.concat(*[unfold(p, M) for p in t.parts])
        e = t.exp if isinstance(t.exp, int) else M + t.exp.offset
        return tm.power(unfold(t.base, M), e)

    lengths = []
    for M in (4, 6, 8):
        w = tm.is_finite_word(unfold(t, M))
        lengths.append(fz.ilbf(dk.phi_k(w, k).blocks).length)
    if lengths[0] == lengths[1] == lengths[2]:
        return False
    assert lengths[0] < lengths[1] < lengths[2]
    return True


REGULARITY_SUITE = [
    "(a b)^w", "a^w", "(a b c)^w", "(a b)^w a b", "(a b c)^w a",
    "(a a b)^w", "((a b)^w c)^w", "(a b (a b)^w)^w", "(a^w b)^w",
    "(a b)^(w+1)", "(a b)^(w-1)", "(b a)^w b a", "(a b c c)^w",
    "((a b c)^2)^w", "(a b)^w (a b)^w",
    "a^w b a^w", "a^w b", "b a^w", "a^w b^w", "(a b)^w c",
    "c (a b)^w", "a (b c)^w", "(a b)^w a c", "(a b)^w b",
    "a^w b a^w b", "(a a)^w b (b a)^w", "(a b c)^w b a",
    "a^(w+2) b", "(a b)^3 a^w", "b^w a (a b)^w",
]


def test_ds_dk_regularity_against_unfolding_oracle():
    unknowns = 0
    for text in REGULARITY_SUITE:
        t = T(text)
        verdict = fz.ds_dk_regular(t, 1)
        if verdict.unknown:
            unknowns += 1
            continue
        assert verdict.proved == bounded_unfolding_regular(t, 1), text
    assert unknowns <= 2


def test_ds_dk_regular_words_and_short_input():
    assert fz.ds_dk_regular("abab", 1).refuted
    with pytest.raises(ValueError):
        fz.ds_dk_regular("a", 1)


def test_r_equal_examples():
    assert fz.r_equal(T("x^w"), T("x^w x^w")).proved
    assert fz.r_equal(T("(a b)^w"), T("(a b)^w (a b)^w")).proved
    assert fz.r_equal("ab", "ba").refuted
    assert fz.r_equal("ab", "ab").proved
    assert fz.r_equal(T("(a b)^w"), T("(b a)^w")).refuted
    # over four letters the R-corpus search is skipped
    assert fz.r_equal(T("(a b c d)^w a"), T("(a b c d)^w")).proved
    assert fz.r_equal(T("a b c d a"), T("a b c d b")).witness == "contents differ"


def test_r_equal_sound_against_large_r_member():
    S = fz._regressive_monoid(4)
    assert S.order == 24 and member(S, "R")
    pairs = [
        ("(a b)^w", "(a b)^w b (a b)^w"),
        ("a^w (b a^w)^w", "(a^w b)^w a^w"),
        ("(a b)^w", "(a b)^w a"),
        ("(a b)^w", "(a b a)^w"),
        ("a^w b a^w", "a^w b a^w a^w"),
    ]
    for lhs, rhs in pairs:
        verdict = fz.r_equal(T(lhs), T(rhs))
        if verdict.proved:
            pi = tm.pseudo_identity(T(lhs), T(rhs))
            assert tm.satisfies(S, pi), (lhs, rhs)


def test_r_equal_refutations_are_witnessed():
    v = fz.r_equal(T("a b"), T("b a"))
    assert v.refuted


def test_remark_projection_instance():
    # ilbf commutes with sound identifications: certified-equal pairs have
    # matching factorization shapes
    pairs = [("(a b)^w", "(a b)^w (a b)^w"), ("a^w b", "a^w a^w b"),
             ("a b a b", "(a b)^2")]
    for lhs, rhs in pairs:
        u, v = T(lhs), T(rhs)
        assert proves_equal_over_S(u, v).proved
        ru, rv = fz.ilbf_term(u), fz.ilbf_term(v)
        assert ru.outcome == rv.outcome
        if ru.outcome == "finite":
            assert ru.length == rv.length
            for (xu, au), (xv, av) in zip(ru.factors, rv.factors):
                assert au == av


def _lemma69_pairs(seed, count):
    """The lemma69 suite's generator: omega-terms over ab, each with a
    sound variant."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        t = suites._random_term(rng, "ab")
        t2 = suites._sound_variant(rng, t)
        if t2 != t:
            pairs.append((t, t2))
    return pairs


def _factorization_terms():
    """Both sides of the generator's pairs (seeds 0 and 1) and depth-3
    terms, without letters, whose window image is empty."""
    pairs = _lemma69_pairs(0, 150) + _lemma69_pairs(1, 150)
    rng = random.Random(2)
    deep = [suites._random_term(rng, "ab", depth=3) for _ in range(100)]
    terms = [t for pair in pairs for t in pair] + deep
    terms = [t for t in dict.fromkeys(terms) if not isinstance(t, tm.Letter)]
    return pairs, terms


def _decisions(t):
    """ilbf2 and ds_dk_regular at k = 1 as (outcome, length, witness).  An
    infinite factorization's witness is the first recurring signature; it
    is compared with its limit-exponent offsets zeroed, since where a
    cycle is first seen depends on the terms, not only their values."""
    r = fz.ilbf2(t, cap=suites.LEMMA69_CAP)
    witness = fz._zero_offsets(r.witness) if isinstance(r.witness, tm.Term) else r.witness
    g = fz.ds_dk_regular(t, 1)
    return (r.outcome, r.length, witness), (g.status, g.witness and g.witness.length)


def _raw_decisions(t):
    """_decisions(t) by the raw route: the window image of t as written,
    factorized along the remainders cut from it."""
    r = suites._raw_ilbf2(t)
    witness = fz._zero_offsets(r.witness) if isinstance(r.witness, tm.Term) else r.witness
    g = suites._raw_ilbf_term(dk.phi_k_term(t, 1))
    status = {"infinite": "proved", "finite": "refuted", "unknown": "unknown"}[g.outcome]
    return (r.outcome, r.length, witness), (status, g.length)


def test_ilbf_term_matches_the_raw_route():
    pairs, terms = _factorization_terms()
    assert len(terms) >= 500
    new = {t: _decisions(t) for t in terms}
    reference = {t: _raw_decisions(t) for t in terms}
    assert new == reference
    outcomes = [d[0][0] for d in new.values()]
    assert outcomes.count("finite") > 50 and outcomes.count("infinite") > 300
    # Lemma 6.9's invariance on two distinct computations: the raw route on
    # the variant against the normal-form route on the term
    certified = [(t, t2) for t, t2 in pairs
                 if not isinstance(t, tm.Letter) and proves_equal_over_S(t, t2).proved]
    assert len(certified) > 250
    for t, t2 in certified:
        (o1, n1, _), (g1, _) = new[t]
        (o2, n2, _), (g2, _) = reference[t2]
        assert (o1, n1, g1) == (o2, n2, g2), tm.term_to_text(t)


def _clear_memos():
    pv.canon.cache_clear()
    pv._certified_idempotent.cache_clear()
    pv._absorbs.cache_clear()
    fz.term_signature.cache_clear()
    fz.lbf_term.cache_clear()
    fz._zero_offsets.cache_clear()
    fz._lastmap.cache_clear()
    dk.phi_k_term.cache_clear()
    fz._ilbf2_of_normal_form.cache_clear()
    fz._ds_dk_regular_of_normal_form.cache_clear()


def test_factorizations_do_not_depend_on_call_order():
    # both sides of each pair are listed, and most pairs share a normal
    # form, so reversing the order changes which side fills the memos of
    # ilbf2 and ds_dk_regular for the other
    _pairs, terms = _factorization_terms()
    terms = terms[:300]
    _clear_memos()
    forward = [_decisions(t) for t in terms]
    shared = len(terms) - fz._ilbf2_of_normal_form.cache_info().currsize
    _clear_memos()
    backward = [_decisions(t) for t in reversed(terms)]
    _clear_memos()
    assert forward == backward[::-1]
    assert shared > 100


def test_canon_is_idempotent_on_the_generators_terms_and_window_images():
    # term_signature's docstring rests on this measurement: ilbf_term
    # takes the signature of canon(img), which is term_signature(img)
    # where canon is idempotent on img
    terms = [t for seed in (0, 1) for pair in _lemma69_pairs(seed, 3000) for t in pair]
    images = [img for t in terms for k in (1, 2)
              if (img := fz.window_image(t, k)) is not None]
    assert len(terms) == 12000 and len(images) > 20000
    for x in terms + images:
        assert pv.canon(pv.canon(x)) is pv.canon(x), tm.term_to_text(x)


def test_r_equal_proofs_hold_and_refutations_replay():
    pairs = _lemma69_pairs(0, 150)
    rng = random.Random(1)
    pairs += [(suites._random_term(rng, "ab"), suites._random_term(rng, "ab"))
              for _ in range(150)]
    members = fz._r_members()
    larger = fz._regressive_monoid(5)
    assert larger.order == 120 and member(larger, "R")
    verdicts = [fz.r_equal(u, v) for u, v in pairs]
    statuses = [v.status for v in verdicts]
    assert statuses.count("proved") > 100 and statuses.count("refuted") > 100
    past_the_corpus = 0
    for (u, v), verdict in zip(pairs, verdicts):
        pi = tm.pseudo_identity(u, v)
        if verdict.proved:
            assert all(tm.satisfies(S, pi) for S in members), tm.term_to_text(u)
            # a coinductive proof must also hold where the corpus is too small
            # to refute it
            assert pv.canon_equal(u, v) or tm.satisfies(larger, pi), tm.term_to_text(u)
        elif verdict.refuted:
            # every refutation carries a model, the order-120 monoid where
            # the factorization comparison refuted past the corpus
            assert isinstance(verdict.witness, dict), tm.term_to_text(u)
            S, asg = verdict.witness["semigroup"], verdict.witness["assignment"]
            assert tm.evaluate(u, S, asg) != tm.evaluate(v, S, asg)
            assert tm.satisfies(S, pi, witness=True) == (False, asg)
            past_the_corpus += S is larger
    assert past_the_corpus == 3
