import random

import pytest
from hypothesis import given, settings, strategies as st

from finsemi import dk
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import suites
from finsemi import terms as tm
from finsemi.errors import PreconditionViolated, UnsupportedShape

BANK = None

THM61_COMBOS = [("Sl", 1), ("Sl", 2), ("K_2", 1), ("K_2", 2), ("D_2", 1),
                ("D_2", 2), ("N_2", 1), ("N_2", 2)]


def bank():
    global BANK
    if BANK is None:
        BANK = [sg.catalog("U1"), sg.catalog("B2"), sg.catalog("cyclic", 3),
                sg.catalog("cyclic", 4), sg.catalog("left_zero", 2),
                sg.catalog("free_band_2")]
    return BANK


def unfold(t, M):
    """Replace omega+q by M+q and p^omega+q by p^4+q (M a factorial)."""
    if isinstance(t, tm.Letter):
        return t
    if isinstance(t, tm.Concat):
        return tm.concat(*[unfold(p, M) for p in t.parts])
    if isinstance(t.exp, int):
        return tm.power(unfold(t.base, M), t.exp)
    e = M + t.exp.offset
    return tm.power(unfold(t.base, M), e)


def eval_word(word, T, asg):
    acc = None
    for s in word:
        v = asg[s]
        acc = v if acc is None else T.table[acc][v]
    return acc


def assert_image_matches_unfolding(text, k, rng):
    """phi_k_term agrees with phi_k of deep word unfoldings, as evaluated
    in small semigroups at stabilized factorial depths."""
    t = tm.parse_term(text)
    img = dk.phi_k_term(t, k)
    for T in bank():
        ref24 = dk.phi_k(tm.is_finite_word(unfold(t, 24)), k).blocks
        ref120 = dk.phi_k(tm.is_finite_word(unfold(t, 120)), k).blocks
        im24 = tm.is_finite_word(unfold(img, 24)) if img is not None else ()
        im120 = tm.is_finite_word(unfold(img, 120)) if img is not None else ()
        blocks = sorted(set(ref24) | set(ref120) | set(im24) | set(im120))
        for _ in range(10):
            asg = {b: rng.randrange(T.order) for b in blocks}
            r = eval_word(ref24, T, asg)
            assert r == eval_word(ref120, T, asg)
            assert eval_word(im24, T, asg) == eval_word(im120, T, asg)
            assert r == eval_word(im24, T, asg), (text, k, T.order)


def test_phi_k_words():
    assert dk.phi_k("abab", 1).spelled() == ["ab", "ba", "ab"]
    assert dk.phi_k("abc", 2).spelled() == ["abc"]
    assert dk.phi_k("a", 1).blocks == ()
    assert len(dk.phi_k("abcd", 1)) == 3


def test_phi_k_overlap_invariant():
    with pytest.raises(ValueError):
        dk.WindowWord(1, (("a", "b"), ("a", "b"), ("b", "a")))


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=7),
       st.text(alphabet="abc", min_size=1, max_size=7),
       st.integers(1, 2))
def test_phi_product_rule(u, v, k):
    beta = v[:k]
    tau = u[-k:]
    lhs = dk.phi_k(u + v, k).blocks
    assert lhs == dk.phi_k(u + beta, k).blocks + dk.phi_k(v, k).blocks
    assert lhs == dk.phi_k(u, k).blocks + dk.phi_k(tau + v, k).blocks


def test_phi_term_spec_shapes():
    img = dk.phi_k_term(tm.parse_term("(a b)^w"), 1)
    assert tm.term_to_text(img) == "([ab] [ba])^(w-1) [ab]"
    img = dk.phi_k_term(tm.parse_term("a^w"), 1)
    assert tm.term_to_text(img) == "([aa] [aa])^(w-1) [aa]"
    # plain words lift to their window words
    img = dk.phi_k_term(tm.parse_term("a b a b"), 1)
    assert img == tm.word_term(dk.phi_k("abab", 1).blocks)
    assert dk.phi_k_term(tm.parse_term("a b"), 2) is None


def test_phi_term_against_unfolding_oracle():
    rng = random.Random(5)
    cases = [("(a b)^w", 1), ("a^w", 1), ("a^w b", 1), ("(a b)^w c", 1),
             ("(a b c)^w", 2), ("a (b a)^(w+2)", 1), ("(a b)^(w-1)", 1),
             ("((a b)^w c)^w", 1), ("(a b b)^w (b a)^w", 2),
             ("a^(w+1) b a^w", 1), ("(a^w b)^w", 1), ("(a b)^w (b a)^w", 1),
             ("a^(w-2) b", 1), ("b a^w", 2), ("a^w", 2), ("(a b)^w", 2),
             ("(a b a)^(w+1) c", 2), ("a^w b^w", 1), ("a^w b^w", 2),
             ("(a^w b^w)^w", 1), ("c (a b)^w", 2), ("(a b)^3 c^w", 1),
             ("(a b (a b)^w)^w", 1), ("(a^w b)^3", 1), ("(a^w b)^2 a^w", 2),
             ("(a b)^w", 0), ("a^w", 0), ("a^w b", 0), ("(a^w b)^w", 0),
             ("a (b a)^(w+2) c", 0), ("(a b)^(w-1)", 0), ("a^w b^w", 0)]
    for text, k in cases:
        assert_image_matches_unfolding(text, k, rng)


def test_negative_k_is_refused():
    with pytest.raises(ValueError):
        dk.phi_k("abab", -1)
    with pytest.raises(ValueError):
        dk.phi_k_term(tm.parse_term("(a b)^w"), -1)
    with pytest.raises(ValueError):
        dk.vdk_satisfies("Sl", -1, "ab", "abb")


def test_phi_term_prime_omega_stabilized():
    # at orders <= 4 the exponent 2^6 already equals the 2^omega limit
    rng = random.Random(9)
    t = tm.parse_term("(a b)^(2^w)")
    img = dk.phi_k_term(t, 1)
    ref = dk.phi_k("ab" * 64, 1).blocks
    for T in bank():
        if T.order > 4:
            continue
        blocks = sorted(set(ref) | tm.content(img))
        for _ in range(10):
            asg = {b: rng.randrange(T.order) for b in blocks}
            assert tm.evaluate(img, T, asg) == eval_word(ref, T, asg)


def test_phi_term_unsupported_shape():
    with pytest.raises(UnsupportedShape):
        dk.phi_k_term(tm.parse_term("a^(2^w)"), 1)  # short base under p^omega


def test_vdk_satisfies_words():
    assert dk.vdk_satisfies("Sl", 1, "abab", "ababab").proved
    assert dk.vdk_satisfies("Sl", 1, "ab", "ba").refuted
    assert dk.vdk_satisfies("Sl", 1, "a", "aa").refuted  # short vs long
    assert dk.vdk_satisfies("Sl", 2, "a", "a").proved


def test_vdk_satisfies_terms():
    u = tm.parse_term("(a b)^w a b")
    v = tm.parse_term("(a b)^w")
    assert dk.vdk_satisfies("K", 1, u, v).proved
    assert dk.vdk_satisfies("Sl", 1, u, v).proved
    # groups see the appended ab: the free-group images of the windows differ
    assert dk.vdk_satisfies("G", 1, u, v).refuted
    assert dk.vdk_satisfies("G", 1, tm.parse_term("(a b)^w (a b)^w"), v).proved
    w = tm.parse_term("(b a)^w")
    assert dk.vdk_satisfies("Sl", 1, u, w).refuted


def test_vdk_precondition():
    with pytest.raises(PreconditionViolated):
        dk.vdk_satisfies("D_1", 1, "ab", "ab")
    v = dk.vdk_satisfies("D_1", 1, "ab", "ab", require_nontrivial_monoid=False)
    assert v.proved


def test_free_object_sl_one_letter():
    F = dk.VdkImages("Sl", 1)
    assert F.image_of_word("a") != F.image_of_word("aa")
    assert F.image_of_word("aa") == F.image_of_word("aaa")


def test_free_object_homomorphism_property():
    # the fold is the canonical homomorphism into the triple algebra
    rng = random.Random(1)
    for Vn, k in THM61_COMBOS:
        F = dk.VdkImages(Vn, k)
        for _ in range(500):
            u = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
            v = "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
            assert (F._mul(F.image_of_word(u), F.image_of_word(v))
                    == F.image_of_word(u + v)), (Vn, k, u, v)


def test_image_of_the_empty_word_is_refused():
    with pytest.raises(ValueError, match="empty concatenation"):
        dk.VdkImages("Sl", 1).image_of_word("")


@pytest.mark.parametrize("Vn", ["Sl", "K"])
@pytest.mark.parametrize("u, v", [("", "a"), ("a", ""), ("", "")])
def test_vdk_satisfies_rejects_empty_words(Vn, u, v):
    with pytest.raises(ValueError, match="empty concatenation"):
        dk.vdk_satisfies(Vn, 1, u, v)


# The eight (V, k) of the thm61 suite, then K and D, whose word problems
# have no slicing rule and so go through terms, and one bound-3 family each.
PATH_COMBOS = THM61_COMBOS + [("K", 1), ("D", 2), ("K_3", 2), ("D_3", 1),
                              ("N_3", 1)]


def assert_word_path_matches_term_path(Vn, k, u, v):
    """The whole verdict, witness included, of two plain words equals that
    of the same words spelled out as terms."""
    word = dk.vdk_satisfies(Vn, k, u, v, require_nontrivial_monoid=False)
    term = dk.vdk_satisfies(Vn, k, tm.word_term(u), tm.word_term(v),
                            require_nontrivial_monoid=False)
    assert word == term, (Vn, k, u, v)


def test_word_path_matches_term_path_on_random_pairs(monkeypatch):
    # the slicing path must not fold through the free-object rules, which
    # the VdkImages oracle uses
    def forbidden(*args):
        raise AssertionError("the word path used the free-object rules")
    monkeypatch.setattr(sg, "free_value", forbidden)
    monkeypatch.setattr(sg, "free_mul", forbidden)
    rng = random.Random(6)
    for _ in range(2000):
        u, v = suites._word_pair(rng, rng.choice(("a", "ab", "abc")))
        for Vn, k in PATH_COMBOS:
            assert_word_path_matches_term_path(Vn, k, u, v)


@pytest.mark.parametrize("u, v", [
    ("ab", "ab"), ("ab", "ba"), ("a", "aa"), ("ab", "abab"),  # k above both
    ("aba", "abaaba"), ("abc", "abcabc"), ("ab", "abba"),  # one short word
])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_word_path_matches_term_path_on_short_words(u, v, k):
    for Vn, _ in PATH_COMBOS:
        assert_word_path_matches_term_path(Vn, k, u, v)
        assert_word_path_matches_term_path(Vn, k, v, u)


@pytest.mark.parametrize("Vn", ["Sl", "K_2", "D_2", "N_2", "K_3", "D_3", "N_3"])
def test_word_problem_on_blocks_matches_terms(Vn):
    rng = random.Random(9)
    for _ in range(400):
        u, v = suites._word_pair(rng, rng.choice(("ab", "abc")))
        for k in (0, 1, 2):
            bu, bv = dk._windows(tuple(u), k), dk._windows(tuple(v), k)
            if bu and bv:
                assert (pv.word_problem_equal(Vn, bu, bv)
                        == pv.word_problem_equal(Vn, tm.word_term(bu),
                                                 tm.word_term(bv))), (Vn, u, v, k)
        assert (pv.word_problem_equal(Vn, u, v)
                == pv.word_problem_equal(Vn, tm.word_term(u), tm.word_term(v)))


def test_vdk_agreement_with_free_object_images():
    # the decision procedure and the folded image agree on random pairs
    rng = random.Random(17)
    combos = [("Sl", 1), ("Sl", 2), ("K_2", 1), ("D_2", 1), ("N_2", 2)]
    objs = {}
    for Vn, k in combos:
        objs[(Vn, k)] = dk.VdkImages(Vn, k)
    checked = 0
    for _ in range(800):
        n1 = rng.randint(1, 8)
        u = "".join(rng.choice("abc") for _ in range(n1))
        if rng.random() < 0.5:
            v = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        else:
            i = rng.randrange(len(u))
            j = rng.randrange(i, len(u))
            v = u[:i] + u[i:j + 1] * 2 + u[j + 1:]  # pump a factor
        for (Vn, k) in combos:
            F = objs[(Vn, k)]
            same = F.image_of_word(u) == F.image_of_word(v)
            verdict = dk.vdk_satisfies(Vn, k, u, v, require_nontrivial_monoid=False)
            assert verdict.proved == same, (Vn, k, u, v)
            checked += 1
    assert checked >= 4000


def test_triple_algebra_needs_positive_k():
    # at k = 0 the suffix slice w[-0:] would be the whole word
    with pytest.raises(PreconditionViolated):
        dk.VdkImages("Sl", 0)


def test_term_verdicts_in_materialized_wreaths():
    # theorem-level validation on omega-terms: proved pairs hold in real
    # wreath products T wr D with T in the V-corpus, and a refuted pair is
    # refuted by a concrete wreath
    from test_semigroups import wreath_product

    from finsemi.corpus import all_semigroups_upto
    from finsemi.pseudovarieties import member
    corpus2 = all_semigroups_upto(2)
    D = sg.catalog("free_d", 1, "ab")
    pairs = [
        ("(a b)^w a b", "(a b)^w", "K"),
        ("(a b)^w (a b)^w", "(a b)^w", "K"),
        ("(a b)^w a b", "(a b)^w", "Sl"),
        ("a (b a)^w", "(a b)^w a", "Sl"),
        ("a^w b (a b)^w", "a^w b (a b)^w (a b)^w", "Sl"),
    ]
    for lhs, rhs, Vn in pairs:
        u, v = tm.parse_term(lhs), tm.parse_term(rhs)
        assert dk.vdk_satisfies(Vn, 1, u, v).proved
        for T in (S for S in corpus2 if member(S, Vn)):
            W = wreath_product(T, D)
            assert tm.satisfies(W, tm.pseudo_identity(u, v)), (lhs, rhs, Vn)
    u, v = tm.parse_term("(a b)^w a b"), tm.parse_term("(a b)^w")
    assert dk.vdk_satisfies("G", 1, u, v).refuted
    refuting = [T for T in corpus2 if member(T, "G")
                and not tm.satisfies(wreath_product(T, D),
                                     tm.pseudo_identity(u, v))]
    assert refuting


def test_reversal_transport():
    # (V * D_k)^op = V^op * D_k on the word level: satisfaction transports
    # along word reversal and the dual pseudovariety
    rng = random.Random(2)
    combos = [("Sl", "Sl", 1), ("K_2", "D_2", 1), ("D_2", "K_2", 2),
              ("N_2", "N_2", 2)]
    for _ in range(500):
        u = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        v = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        for (Vn, dualn, k) in combos:
            a = dk.vdk_satisfies(Vn, k, u, v, require_nontrivial_monoid=False)
            b = dk.vdk_satisfies(dualn, k, u[::-1], v[::-1],
                                 require_nontrivial_monoid=False)
            assert a.proved == b.proved


def test_wreath_soundness_spot():
    # proved pairs hold in wreath products T wr D, T in Sl-corpus, D = free D_k
    rng = random.Random(23)
    from finsemi.corpus import all_semigroups_upto
    from finsemi.pseudovarieties import member
    sl_corpus = [S for S in all_semigroups_upto(3) if member(S, "Sl")]
    D = sg.catalog("free_d", 1, "ab")
    nd = D.order
    states = nd + 1

    def wreath_eval(T, f_asg, d_asg, word):
        # evaluate without materializing the wreath product
        f, d = f_asg[word[0]], d_asg[word[0]]
        f = list(f)
        for a in word[1:]:
            g, e = f_asg[a], d_asg[a]
            f = [T.table[f[x]][g[d if x == states - 1 else D.table[x][d]]]
                 for x in range(states)]
            d = D.table[d][e]
        return (tuple(f), d)

    pairs = []
    while len(pairs) < 60:
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
        i = rng.randrange(len(u))
        j = rng.randrange(i, len(u))
        v = u[:i] + u[i:j + 1] * 2 + u[j + 1:]
        if dk.vdk_satisfies("Sl", 1, u, v).proved:
            pairs.append((u, v))
    for (u, v) in pairs:
        for T in sl_corpus:
            for _ in range(8):
                f_asg = {a: tuple(rng.randrange(T.order) for _ in range(states))
                         for a in "ab"}
                d_asg = {a: rng.randrange(nd) for a in "ab"}
                assert wreath_eval(T, f_asg, d_asg, u) == \
                    wreath_eval(T, f_asg, d_asg, v), (u, v, T.table)
