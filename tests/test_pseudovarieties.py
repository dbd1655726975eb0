import random

import pytest

from finsemi import dk
from finsemi import factorization as fz
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import suites
from finsemi import terms as tm
from finsemi.corpus import all_semigroups_upto
from finsemi.errors import UnknownName, UnsupportedShape, WrongAlphabet


def T(text):
    return tm.parse_term(text)


def test_member_examples():
    assert pv.member(sg.catalog("left_zero", 2), "K")
    assert not pv.member(sg.catalog("B2"), "DS")
    assert pv.member(sg.catalog("U1"), "Sl")
    assert not pv.member(sg.catalog("right_zero", 2), "K")
    assert pv.member(sg.catalog("right_zero", 2), "D")
    assert pv.member(sg.catalog("cyclic", 3), "G")
    assert not pv.member(sg.catalog("U1"), "G")
    assert pv.member(sg.catalog("cyclic", 2), "G_2")
    assert not pv.member(sg.catalog("cyclic", 3), "G_2")
    assert pv.member(sg.catalog("cyclic", 3), "G_3")


def test_member_b2_classics():
    B2 = sg.catalog("B2")
    # B2 is aperiodic but lies outside DS, DA, DG, R, L, J
    assert pv.member(B2, "A")
    for name in ("DS", "DA", "DG", "R", "L", "J", "Sl"):
        assert not pv.member(B2, name), name
    assert pv.member(B2, "LI") is False  # local monoids contain U1
    assert pv.member(sg.catalog("null", 3), "LI")
    assert pv.member(sg.catalog("null", 3), "N")


def test_basis_k():
    K = pv.get_pseudovariety("K")
    assert len(K.basis) == 1
    assert str(K.basis[0]) == "x1^w x2 = x1^w"
    assert tm.parse_identity(str(K.basis[0])).lhs == K.basis[0].lhs
    D = pv.get_pseudovariety("D")
    assert str(D.basis[0]) == "x2 x1^w = x1^w"


def test_unknown_pseudovariety():
    with pytest.raises(UnknownName):
        pv.get_pseudovariety("nope")


# the dual of each catalog pseudovariety, by name
DUAL = {"K": "D", "D": "K", "N": "N", "LI": "LI", "LG": "LG", "A": "A", "G": "G",
        "R": "L", "L": "R", "J": "J", "DS": "DS", "DA": "DA", "DG": "DG",
        "Sl": "Sl", "KvG": "DvG", "DvG": "KvG", "NvG": "NvG", "D_2": "K_2",
        "K_2": "D_2", "N_2": "N_2"}


def test_dual_pseudovariety():
    # the catalog builds D, D v G, L and K_k from the chi-image of their
    # duals' bases, and the chi-image goes back
    for name in ("K", "D", "KvG", "DvG", "R", "L", "D_2", "K_2"):
        V, W = pv.get_pseudovariety(name), pv.get_pseudovariety(DUAL[name])
        chi = [tm.pseudo_identity(tm.reverse_chi(p.lhs), tm.reverse_chi(p.rhs),
                                  p.alphabet)
               for p in W.basis]
        assert tuple(chi) == V.basis, name


def test_member_duality_transport():
    rng = random.Random(3)
    pool = [sg.catalog("B2"), sg.catalog("U1"), sg.catalog("left_zero", 2),
            sg.catalog("right_zero", 3), sg.catalog("cyclic", 4),
            sg.catalog("free_band_2"), sg.catalog("null", 2)]
    names = ["K", "D", "N", "LI", "LG", "A", "G", "R", "L", "J", "DS", "DA", "DG",
             "Sl", "KvG", "DvG", "NvG", "D_2", "K_2", "N_2"]
    for _ in range(100):
        S = rng.choice(pool)
        V = pv.get_pseudovariety(rng.choice(names))
        assert pv.member(S, V) == pv.member(sg.dual(S), DUAL[V.name])


def test_load_pseudovariety_json():
    d = {"name": "myK", "basis": [{"lhs": "x1^w x2", "rhs": "x1^w"}]}
    V = pv.load_pseudovariety(d)
    assert pv.member(sg.catalog("left_zero", 2), V)
    assert not pv.member(sg.catalog("U1"), V)


def test_certifier_examples():
    assert pv.proves_equal_over_S(T("(x1^w)^w"), T("x1^w")).proved
    assert pv.proves_equal_over_S(T("x1^w x1^w x2"), T("x1^w x2")).proved
    v = pv.proves_equal_over_S(T("x1^w"), T("x1^w x2"))
    assert v.refuted
    assert v.witness["semigroup"].order == 2  # U1 refutes
    assert pv.proves_equal_over_S(T("x1^(w+1) x1^(w-1)"), T("x1^w")).proved
    assert pv.proves_equal_over_S(T("x1 x1 x1"), T("x1^3")).proved
    assert pv.proves_equal_over_S(T("(a b) (a b)"), T("a b a b")).proved
    assert pv.proves_equal_over_S(T("(a b a b)^w"), T("(a b)^w")).proved
    assert pv.proves_equal_over_S(T("a^w a^(2^w)"), T("a^(2^w)")).proved


def test_certifier_size_cap(monkeypatch):
    u, v = T("(x1^w)^w"), T("x1^w")  # joint size 3 + 2
    monkeypatch.setattr(pv, "PROOF_SIZE_CAP", 5)
    assert pv.proves_equal_over_S(u, v).proved
    assert pv.canon_equal(u, v) is True
    monkeypatch.setattr(pv, "PROOF_SIZE_CAP", 4)
    assert pv.proves_equal_over_S(u, v).unknown
    assert pv.canon_equal(u, v) is None


def test_canon_equal_is_the_certifiers_proof_step(monkeypatch):
    # related pairs (sound variants) and unrelated ones, over ab
    monkeypatch.setattr(pv, "REFUTATION_MAX_ORDER", 0)
    rng = random.Random(4)
    pairs = []
    for _ in range(400):
        t = suites._random_term(rng, "ab")
        pairs.append((t, suites._sound_variant(rng, t)))
        pairs.append((t, suites._random_term(rng, "ab")))
    seen = set()
    for u, v in pairs:
        same = pv.canon_equal(u, v)
        verdict = pv.proves_equal_over_S(u, v)
        assert same is not None and same == verdict.proved, (u, v)
        seen.add(same)
    assert seen == {True, False}


def test_certifier_soundness_audit(monkeypatch):
    # Everything the certifier proves must hold in every sampled model.
    monkeypatch.setattr(pv, "REFUTATION_MAX_ORDER", 0)
    rng = random.Random(11)
    pool = [sg.catalog("B2"), sg.catalog("B2_1"), sg.catalog("cyclic", 6),
            sg.catalog("free_band_2"), sg.catalog("U1"),
            sg.catalog("left_zero", 2)]
    base_terms = ["x1", "x2", "x1 x2", "x2 x1", "x1^w", "x2^w", "(x1 x2)^w",
                  "x1^w x2", "x1^(w+1)", "(x1 x2 x1)^w", "x1^(2^w)", "x1^2"]
    proved_pairs = []
    for _ in range(300):
        a, b = rng.choice(base_terms), rng.choice(base_terms)
        u = T(a + " " + b) if rng.random() < 0.5 else T(a)
        v_ = T(b)
        verdict = pv.proves_equal_over_S(u, v_)
        if verdict.proved:
            proved_pairs.append((u, v_))
    assert proved_pairs  # the sample must exercise the Proved path
    for (u, v_) in proved_pairs:
        pi = tm.pseudo_identity(u, v_)
        for S in pool:
            assert tm.satisfies(S, pi)


@pytest.mark.parametrize("e1, e2, want", [
    ("3", "2", "a^6"),
    ("(w+1)", "2", "a^(w+2)"),
    ("2", "(w+1)", "a^(w+2)"),
    ("(w+1)", "(w+2)", "a^(w+2)"),
    ("(2^w+1)", "w", "a^w"),
    ("(2^w+1)", "(w+1)", "a^(2^w+1)"),
    ("w", "(2^w)", "a^w"),
    ("(2^w)", "(2^w)", "a^(2^w)"),
    ("(2^w)", "2", None),  # p^w+r under an integer
    ("(2^w+1)", "(w+2)", None),  # p^w+r under w+q, q not 0 or 1
    ("2", "(2^w)", None),  # an integer under p^w+q
    ("(w+1)", "(2^w)", None),  # under p^w+q, anything but w and p^w itself
], ids=["int/int", "w+q/int", "int/w+q", "w+q/w+q", "p^w/w", "p^w/w+1",
        "w/p^w", "p^w/p^w", "none:p^w/int", "none:p^w/w+2", "none:int/p^w",
        "none:w+1/p^w"])
def test_power_of_power_collapses_only_soundly(e1, e2, want):
    a = tm.Letter("a")
    e1, e2 = T(f"a^{e1}").exp, T(f"a^{e2}").exp
    got = pv._power_of_power(a, e1, e2)
    if want is None:
        assert got is None
        return
    assert got is T(want)
    nested = tm.Power(tm.Power(a, e1), e2)
    for S in [*all_semigroups_upto(4), sg.catalog("cyclic", 6)]:
        for x in range(S.order):
            assert tm.evaluate(got, S, {"a": x}) == tm.evaluate(nested, S, {"a": x})


def test_canon_collapses_integer_powers_past_the_expansion_cap():
    # 65 factors pass _EXPAND_CAP, so a^65 stays a power and the nested
    # power reaches _power_of_power
    assert pv.canon(T("(a^65)^2")) is T("a^130")
    assert pv.canon(T("(a^65)^w")) is T("a^w")


def test_normal_forms_hold_in_every_small_semigroup():
    # each rewrite t -> canon(t) on lemma69 terms holds in every semigroup
    # of order <= 4, checked by evaluation alone
    rng = random.Random(3)
    rewritten = []
    while len(rewritten) < 100:
        t = suites._random_term(rng, "ab")
        if pv.canon(t) != t:
            rewritten.append(tm.pseudo_identity(t, pv.canon(t)))
    corpus = all_semigroups_upto(4)
    assert len(corpus) == 218
    for pi in rewritten:
        bad = [S.table for S in corpus if not tm.satisfies(S, pi)]
        assert bad == [], str(pi)


# The full search, the oracle of pseudovarieties.first_generating_failure:
# every assignment of every model, in order, the fixed bank first.


def _reference_first_failure(models, pi):
    for S in models:
        ok, asg = tm.satisfies(S, pi, witness=True)
        if not ok:
            return {"semigroup": S, "assignment": asg}
    return None


def _reference_refute_over_models(pi):
    models = [*pv._fast_bank(), *all_semigroups_upto(pv.REFUTATION_MAX_ORDER)]
    k = len(pi.alphabet)
    return _reference_first_failure(
        [S for S in models if S.order ** k <= pv.ASSIGNMENT_CAP], pi)


def _same_failure(got, want):
    """One (semigroup, assignment), the semigroup the same object, or None."""
    if got is None or want is None:
        return got is want
    return (got["semigroup"] is want["semigroup"]
            and got["assignment"] == want["assignment"])


def test_generating_search_matches_the_full_search():
    corpus = all_semigroups_upto(4)
    r_members = fz._r_members()
    bank = pv._fast_bank()
    identities = [pi for V in pv.CATALOG.values() for pi in V.basis]
    for letters, seed in (("ab", 0), ("abc", 1)):
        rng = random.Random(seed)
        identities += [tm.pseudo_identity(suites._random_term(rng, letters),
                                          suites._random_term(rng, letters))
                       for _ in range(1500)]
    from_corpus = unrefuted = r_witnesses = 0
    for pi in identities:
        got = pv.refute_over_models(pi.lhs, pi.rhs)
        want = _reference_refute_over_models(pi)
        assert _same_failure(got, want), str(pi)
        if got is None:
            unrefuted += 1
        elif all(got["semigroup"] is not S for S in bank):
            from_corpus += 1
        # the corpus alone, under the assignment cap, as the certifier
        # searches it when the bank separates nothing
        k = len(pi.alphabet)
        models = [S for S in corpus if S.order ** k <= pv.ASSIGNMENT_CAP]
        assert _same_failure(pv.first_generating_failure(models, pi),
                             _reference_first_failure(models, pi)), str(pi)
        if k <= 3:  # the R word problem refutes over at most three letters
            got = pv.first_generating_failure(r_members, pi)
            assert _same_failure(got, _reference_first_failure(r_members, pi)), str(pi)
            r_witnesses += got is not None
    assert from_corpus >= 10 and unrefuted >= 10 and r_witnesses > 1000


# The reference combine pass, the oracle of pseudovarieties._combine_pass:
# it reads every factor's (base, exp) as often as it needs it, re-emits
# every run, compares bases by equality and copies the factor list.


def _reference_base_and_exp(factor):
    if isinstance(factor, tm.Power):
        return factor.base, factor.exp
    return factor, 1


def _reference_gather_word_copies(factors):
    out = list(factors)
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(out):
            if not isinstance(f, tm.Power):
                continue
            base_fs = pv._factors(f.base)
            n = len(base_fs)
            if n < 2:
                continue
            exp = f.exp
            lo, hi = i, i + 1
            while lo >= n and out[lo - n:lo] == base_fs:
                bumped = pv._add_exp(exp, 1)
                if bumped is None:
                    break
                exp, lo = bumped, lo - n
            while hi + n <= len(out) and out[hi:hi + n] == base_fs:
                bumped = pv._add_exp(exp, 1)
                if bumped is None:
                    break
                exp, hi = bumped, hi + n
            if (lo, hi) != (i, i + 1):
                out[lo:hi] = [tm.Power(f.base, exp)]
                changed = True
                break
    return out


def _reference_combine_pass(factors):
    factors = _reference_gather_word_copies(factors)
    out = []
    i = 0
    while i < len(factors):
        base, exp = _reference_base_and_exp(factors[i])
        j = i + 1
        while j < len(factors):
            b2, e2 = _reference_base_and_exp(factors[j])
            if b2 != base:
                break
            s = pv._add_exp(exp, e2)
            if s is None:
                break
            exp = s
            j += 1
        out.extend(pv._emit_run(base, exp))
        i = j
    res = []
    for f in out:
        if res and isinstance(f, tm.Power) and not isinstance(f.exp, int):
            while res and pv._absorbs("L", res[-1], f.base):
                res.pop()
        res.append(f)
    out2 = []
    for f in reversed(res):
        if out2 and isinstance(f, tm.Power) and not isinstance(f.exp, int):
            while out2 and pv._absorbs("R", out2[-1], f.base):
                out2.pop()
        out2.append(f)
    return list(reversed(out2))


def _clear_certifier_memos():
    pv.canon.cache_clear()
    pv._certified_idempotent.cache_clear()
    pv._absorbs.cache_clear()


def _combine_pass_inputs():
    """The lemma69 suite's terms, random omega-terms over ab, their
    window images at k = 1 and 2, and every ilbf_term remainder of
    those images, with its offsets zeroed as term_signature does, and
    one term in which a fold hands a power on its left a copy."""
    rng = random.Random(0)
    terms = []
    for _ in range(250):
        t = suites._random_term(rng, "ab")
        terms += [t, suites._sound_variant(rng, t)]
    rng = random.Random(1)
    terms += [suites._random_term(rng, "ab", depth=3) for _ in range(250)]
    for t in terms[:]:
        for k in (1, 2):
            try:
                img = dk.phi_k_term(t, k)
            except UnsupportedShape:
                continue
            rem = img
            for _ in range(8):
                if rem is None:
                    break
                terms += [rem, fz._zero_offsets(pv.canon(rem))]
                rem = fz.lbf_term(rem).y
    # folding a b into (a b)^w makes the next two factors a right copy of
    # the power on their left
    terms.append(tm.parse_term("(c (a b)^(w+1))^w c a b (a b)^w"))
    return list(dict.fromkeys(terms))


def test_combine_pass_matches_the_reference_pass(monkeypatch):
    terms = _combine_pass_inputs()
    assert len(terms) > 3000
    # canon's factor lists hold no integer power short enough to expand,
    # so the passes also run on the raw factors of each concatenation
    raw = [list(t.parts) for t in terms if isinstance(t, tm.Concat)]

    def run():
        _clear_certifier_memos()
        forms = [pv.canon(t) for t in terms]
        _clear_certifier_memos()
        return forms, [pv._combine_pass(fs) for fs in raw]

    monkeypatch.setattr(pv, "_combine_pass", _reference_combine_pass)
    reference, reference_raw = run()
    monkeypatch.undo()
    fast, fast_raw = run()
    assert [f is r for f, r in zip(fast, reference, strict=True)] == [True] * len(terms)
    assert sum(f is not t for f, t in zip(fast, terms)) > 1000  # canon rewrote
    assert fast_raw == reference_raw


def test_absorption_recurses_on_smaller_terms(monkeypatch):
    # _absorbs's docstring rests on this measurement: a nested call's
    # joint term size is below that of the call it is made from
    terms = []
    for seed in (0, 1):
        rng = random.Random(seed)
        for _ in range(3000):
            t = suites._random_term(rng, "ab")
            terms += [t, suites._sound_variant(rng, t)]
    cached = pv._absorbs
    sizes, nested = [], []

    def absorbs(side, g, base):
        size = pv._term_size(g) + pv._term_size(base)
        if sizes:
            nested.append((sizes[-1], size, side, g, base))
        sizes.append(size)
        try:
            return cached(side, g, base)
        finally:
            sizes.pop()

    _clear_certifier_memos()
    monkeypatch.setattr(pv, "_absorbs", absorbs)
    for t in terms:
        pv.canon(t)
    assert nested
    for outer, inner, side, g, base in nested:
        assert inner < outer, (side, tm.term_to_text(g), tm.term_to_text(base))


def test_left_permanence_of_display_list():
    # Four of the five displayed identities verify; the K v G entry is
    # refutable (see the order-4 witness) and must come back Refuted.
    proved = ["x1^w = x1^w x2", "x1^w = x1^w x2 x1^w",
              "x1^w = (x1^w x2 x1^w)^w", "x2^w = x2^(w+1)"]
    for s in proved:
        assert pv.is_left_permanent(tm.parse_identity(s)).proved, s
    v = pv.is_left_permanent(tm.parse_identity("x1^w = x1^w x2^w"))
    assert v.refuted
    assert v.witness["semigroup"].order <= 4


def test_lg_p_left_permanent():
    for p in (2, 3):
        pi = tm.parse_identity(f"x1^w = (x1^w x2 x1^w)^({p}^w)")
        assert pv.is_left_permanent(pi).proved


def test_right_permanence_of_duals():
    for s in ["x1^w = x1^w x2", "x1^w = x1^w x2 x1^w",
              "x1^w = (x1^w x2 x1^w)^w", "x2^w = x2^(w+1)"]:
        pi = tm.parse_identity(s)
        dpi = tm.pseudo_identity(tm.reverse_chi(pi.lhs), tm.reverse_chi(pi.rhs),
                                 pi.alphabet)
        assert pv.is_right_permanent(dpi).proved, s


def test_permanence_wrong_alphabet():
    with pytest.raises(WrongAlphabet):
        pv.is_left_permanent(tm.parse_identity("y^w = y^w z"))


def test_lemma_3_2_members_of_K_satisfy_left_permanent_ids():
    # every corpus member of K satisfies every catalog left-permanent identity
    from finsemi.corpus import all_semigroups_upto
    ids = [tm.parse_identity(s) for s in
           ["x1^w = x1^w x2", "x1^w = x1^w x2 x1^w", "x1^w = (x1^w x2 x1^w)^w",
            "x2^w = x2^(w+1)", "x1^w = (x1^w x2 x1^w)^(2^w)"]]
    for S in all_semigroups_upto(3):
        if pv.member(S, "K"):
            for pi in ids:
                assert tm.satisfies(S, pi)


def test_word_problem_sl():
    assert pv.word_problem_equal("Sl", T("x1 x2 x1"), T("x2 x1^w")).proved
    assert pv.word_problem_equal("Sl", T("x1"), T("x1 x2")).refuted


def test_word_problem_k():
    assert pv.word_problem_equal("K", T("(a b)^w"), T("(a b)^w (b a)^w")).proved
    assert pv.word_problem_equal("K", T("(a b)^w"), T("(b a)^w")).refuted
    assert pv.word_problem_equal("K", T("a b a"), T("a b a")).proved
    assert pv.word_problem_equal("K", T("a b"), T("a b a")).refuted
    assert pv.word_problem_equal("K", T("a (b a)^w"), T("(a b)^w")).proved
    # the left contour of a power whose base is already infinite, and of
    # an integer power of a finite word
    assert pv.word_problem_equal("K", T("(a^w b)^w"), T("a^w")).proved
    assert pv.word_problem_equal("K", T("(a b)^3 c^w"), T("a b a b a b c^w")).proved


def test_word_problem_d_mirror():
    assert pv.word_problem_equal("D", T("(a b)^w"), T("(b a)^w (a b)^w")).proved
    assert pv.word_problem_equal("D", T("b (a b)^w"), T("(a b)^w")).proved


def test_word_problem_g():
    assert pv.word_problem_equal("G", T("x^(w+1) y"), T("x y")).proved
    assert pv.word_problem_equal("G", T("x^(w-1) x"), T("x^w")).proved
    assert pv.word_problem_equal("G", T("x y"), T("y x")).refuted
    assert pv.word_problem_equal("G", T("x^(2^w)"), T("x^w")).unknown


def test_word_problem_n():
    assert pv.word_problem_equal("N", T("a b"), T("b a")).refuted
    assert pv.word_problem_equal("N", T("a^w"), T("(a b)^w b")).proved
    assert pv.word_problem_equal("N", T("a b"), T("a b")).proved
    assert pv.word_problem_equal("N", T("a b"), T("a^w")).refuted


def test_word_problem_bounded():
    assert pv.word_problem_equal("K_2", T("a b a"), T("a b b")).proved
    # a word of length exactly m equals its extensions in K_m
    assert pv.word_problem_equal("K_2", T("a b"), T("a b b")).proved
    assert pv.word_problem_equal("K_2", T("a"), T("a b")).refuted
    assert pv.word_problem_equal("D_2", T("a b a"), T("b b a")).proved
    assert pv.word_problem_equal("N_2", T("a b a"), T("b b")).proved
    assert pv.word_problem_equal("N_2", T("a"), T("a b")).refuted


def test_word_problem_agrees_with_basis_satisfaction():
    # Proved => every corpus member of V satisfies; Refuted on these small
    # samples => some corpus member of V refutes.
    from finsemi.corpus import all_semigroups_upto
    corpus = all_semigroups_upto(4)
    # refuted samples are chosen so a witness of order <= 4 exists
    samples = {
        "Sl": [("x1 x2", "x2 x1"), ("x1", "x1 x2")],
        "K": [("a b", "a a"), ("a^w b", "a^w"), ("a b", "b a")],
        "D": [("a b", "b b"), ("b a^w", "a^w"), ("a b", "b a")],
        "N": [("a b", "b a"), ("a^w", "b^w a")],
        "G": [("x^(w+1)", "x"), ("x", "x y")],
    }
    for name, pairs in samples.items():
        V = pv.get_pseudovariety(name)
        members = [S for S in corpus if pv.member(S, V)]
        for (a, b) in pairs:
            u, v_ = T(a), T(b)
            verdict = pv.word_problem_equal(V, u, v_)
            pi = tm.pseudo_identity(u, v_)
            if verdict.proved:
                assert all(tm.satisfies(S, pi) for S in members)
            elif verdict.refuted:
                assert any(not tm.satisfies(S, pi) for S in members)


def test_monoidal_bookkeeping():
    from finsemi.corpus import all_semigroups_upto
    for S in all_semigroups_upto(3):
        S1 = S if S.is_monoid() else sg.adjoin_identity(S)
        for name in ("Sl", "A", "R", "J", "DS", "DA", "DG", "G"):
            assert pv.member(S, name) == pv.member(S1, name)


def test_content_agrees_with_sl_satisfaction():
    # if contents agree, every semilattice satisfies the identity
    from finsemi.corpus import all_semigroups_upto
    sl_corpus = [S for S in all_semigroups_upto(3) if pv.member(S, "Sl")]
    pairs = [("x1 x2 x1", "x2 x1"), ("x1 x1", "x1"), ("x1 x2", "x2 x1 x2")]
    for (a, b) in pairs:
        u, v_ = T(a), T(b)
        assert tm.content(u) == tm.content(v_)
        pi = tm.pseudo_identity(u, v_)
        for S in sl_corpus:
            assert tm.satisfies(S, pi)
