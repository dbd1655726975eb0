"""Verification suites: each one exercises a theorem-level claim on an
exhaustive or sampled corpus and reports counterexamples as replayable
data.  A suite passes when it finds no counterexample (unknown verdicts
are counted separately where the underlying procedures are three-valued).
"""

import random
import time
from dataclasses import dataclass, field
from functools import partial, reduce

from . import dk
from . import factorization as fz
from . import languages as lg
from . import malcev as mv
from . import semigroups as sg
from . import terms as tm
from .corpus import all_semigroups_upto, enumerate_semigroups, naive_enumerate
from .errors import UnsupportedShape
from .pseudovarieties import (
    _chi_identity,
    canon_equal,
    get_pseudovariety,
    is_left_permanent,
    is_right_permanent,
    member,
)


# Sample sizes of the random suites: word pairs of thm61_words, certified
# term pairs and words of lemma69_terms, and identity transports and mu
# duality samples of duality.
THM61_PAIRS = 10_000
LEMMA69_PAIRS = 500
LEMMA69_WORDS = 10_000
DUALITY_INSTANCES = 10_000
DUALITY_MU_SAMPLES = 100
# The factor cap of both ilbf2 routes that lemma69_terms compares
LEMMA69_CAP = 40


@dataclass
class SuiteReport:
    suite: str
    checked: int = 0
    failed: int = 0
    unknown: int = 0
    examples: list = field(default_factory=list)
    wall_ms: int = 0

    @property
    def passed(self):
        return self.failed == 0

    def to_json_dict(self):
        return {"suite": self.suite, "checked": self.checked,
                "failed": self.failed, "unknown": self.unknown,
                "examples": self.examples, "wall_ms": self.wall_ms,
                "passed": self.passed}


def _fail(report, **example):
    report.failed += 1
    if len(report.examples) < 25:
        report.examples.append(example)


# ---------------------------------------------------------------------------


def suite_permanence(config, report):
    """Left permanence of the displayed two-variable pseudoidentities and of
    the LG_p instances (p = 2, 3), and right permanence of the displayed
    mirrors.

    All of them verify except x1^w = x1^w x2^w and its mirror
    x1^w = x2^w x1^w: each is refuted on the condition v(u,v) = v, and its
    failure example carries the witness semigroup, assignment and sides,
    so the refutation replays with ident-check.  The report therefore has
    checked=12, failed=2."""
    displayed = [
        "x1^w = x1^w x2",
        "x1^w = x1^w x2^w",
        "x1^w = x1^w x2 x1^w",
        "x1^w = (x1^w x2 x1^w)^w",
        "x2^w = x2^(w+1)",
    ]
    lg_p = [f"x1^w = (x1^w x2 x1^w)^({p}^w)" for p in (2, 3)]
    def record(text, side, verdict):
        report.checked += 1
        if verdict.unknown:
            report.unknown += 1
            _fail(report, identity=text, side=side, verdict="unknown")
        elif verdict.refuted:
            w = dict(verdict.witness)
            w["semigroup"] = w["semigroup"].to_json_dict()
            _fail(report, identity=text, side=side, verdict="refuted", **w)

    for text in displayed + lg_p:
        record(text, "left", is_left_permanent(tm.parse_identity(text)))
    for text in displayed:
        dual_pi = _chi_identity(tm.parse_identity(text))
        record(str(dual_pi), "right", is_right_permanent(dual_pi))


def suite_malcev_equalities(S, report):
    """member-by-basis vs the mu-route for the six classical equalities."""
    for name, Z in [("R", "K"), ("L", "D"), ("DA", "LI"), ("DS", "LG"),
                    ("J", "N"), ("DG", "NvG")]:
        report.checked += 1
        lhs = member(S, name)
        rhs = mv.malcev_member(S, Z, "Sl")
        if lhs != rhs:
            _fail(report, semigroup=S.to_json_dict(), variety=name, z=Z,
                  by_basis=lhs, by_mu=rhs)


def suite_prop11_commutation(S, report):
    for Z in mv.V_SET:
        for Vn in ("Sl", "G", "A"):
            report.checked += 1
            if not mv.locality_commutation_check(S, Z, Vn):
                _fail(report, semigroup=S.to_json_dict(), z=Z, v=Vn)


def suite_cor35_idempotency(S, report):
    for Z in mv.V_SET:
        report.checked += 1
        once = mv.malcev_member(S, Z, "Sl")
        twice = mv.malcev_member_with(
            S, Z, lambda T: mv.malcev_member(T, Z, "Sl"))
        if once != twice:
            _fail(report, semigroup=S.to_json_dict(), z=Z, once=once, twice=twice)


def _random_word(rng, letters, max_len=8):
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))


def _word_pair(rng, letters):
    u = _random_word(rng, letters)
    if rng.random() < 0.5:
        return u, _random_word(rng, letters)
    i = rng.randrange(len(u))
    j = rng.randrange(i, len(u))
    return u, u[:i] + u[i:j + 1] * 2 + u[j + 1:]  # pump a factor


def suite_thm61_words(config, report):
    """The triple criterion vs folded free-object images on random word
    pairs, plus a seeded wreath-product soundness spot check on proved
    pairs."""
    rng = random.Random(config.get("seed", 0))
    combos = [("Sl", 1), ("Sl", 2), ("K_2", 1), ("K_2", 2),
              ("D_2", 1), ("D_2", 2), ("N_2", 1), ("N_2", 2)]
    images = {c: dk.VdkImages(c[0], c[1]) for c in combos}
    proved_pairs = {c: [] for c in combos}
    for _ in range(THM61_PAIRS):
        letters = rng.choice(["ab", "abc", "a"])
        u, v = _word_pair(rng, letters)
        for combo in combos:
            Vn, k = combo
            report.checked += 1
            F = images[combo]
            same = F.image_of_word(u) == F.image_of_word(v)
            verdict = dk.vdk_satisfies(Vn, k, u, v,
                                       require_nontrivial_monoid=False)
            if verdict.proved != same:
                _fail(report, v=Vn, k=k, u=u, w=v,
                      image_equal=same, verdict=verdict.status)
            elif verdict.proved and len(proved_pairs[combo]) < 40:
                proved_pairs[combo].append((u, v))
    # soundness: proved pairs hold in wreath products T wr D
    corpus = all_semigroups_upto(3)
    for (Vn, k), pairs in proved_pairs.items():
        V = get_pseudovariety(Vn)
        members = [S for S in corpus if member(S, V)][:12]
        for (u, v) in pairs[:15]:
            letters = sorted(set(u) | set(v))
            D = sg.catalog("free_d", k, "".join(letters))
            for T in members:
                mul = partial(sg.wreath_mul, T, D)
                for _ in range(4):
                    report.checked += 1
                    fa = {a: tuple(rng.randrange(T.order)
                                   for _ in range(D.order + 1)) for a in letters}
                    da = {a: rng.randrange(D.order) for a in letters}
                    gens = {a: (fa[a], da[a]) for a in letters}
                    if reduce(mul, map(gens.get, u)) != reduce(mul, map(gens.get, v)):
                        _fail(report, v=Vn, k=k, u=u, w=v,
                              wreath_t=T.to_json_dict(), reason="wreath refutes")


def suite_thm44_shadow(S, report):
    """Local membership through the mu-quotients: mu_K vs all-locals-in-R,
    mu_LI vs DA, mu_D vs L."""
    for Z, local_v in [("K", "R"), ("LI", "DA"), ("D", "L")]:
        report.checked += 1
        lhs = mv.lv_member(mv.mu_quotient(S, Z), "Sl")
        rhs = all(member(sg.local_monoid(S, e), local_v)
                  for e in S.idempotents())
        if lhs != rhs:
            _fail(report, semigroup=S.to_json_dict(), z=Z, locals_in=local_v,
                  mu_side=lhs, local_side=rhs)


def _random_term(rng, letters, depth=2):
    if depth == 0 or rng.random() < 0.35:
        return tm.word_term(_random_word(rng, letters, 3))
    parts = [_random_term(rng, letters, depth - 1)
             for _ in range(rng.randint(1, 2))]
    t = tm.concat(*parts)
    roll = rng.random()
    if roll < 0.5:
        return tm.power(t, tm.omega(rng.choice([0, 0, 1, -1])))
    if roll < 0.65:
        return tm.power(t, rng.choice([2, 3]))
    return t


def _sound_variant(rng, t):
    """A random rewrite of t that the certifier can verify."""
    def rewrite(t, todo):
        if isinstance(t, tm.Power) and not isinstance(t.exp, int) and todo[0]:
            todo[0] = False
            choice = rng.randrange(4)
            if choice == 0 and t.exp.offset == 0:
                return tm.concat(t, t)  # b^w b^w
            if choice == 1:
                return tm.power(t, tm.omega(1))  # (b^e)^(w+1) = b^e
            if choice == 2:
                return tm.concat(tm.power(t.base, t.exp.shifted(-1)), t.base)
            if t.exp == tm.OMEGA:
                return tm.power(tm.concat(t.base, t.base), tm.OMEGA)  # (bb)^w
            return t
        if isinstance(t, tm.Concat):
            return tm.concat(*[rewrite(p, todo) for p in t.parts])
        if isinstance(t, tm.Power):
            return tm.power(rewrite(t.base, todo), t.exp)
        return t

    out = t
    for _ in range(rng.randint(1, 2)):
        todo = [True]
        candidate = rewrite(out, todo)
        if candidate != out:
            out = candidate
    return out


# The raw route, the oracle of the normal-form route of `fz.ilbf2`,
# `fz.ds_dk_regular` and `fz.ilbf_term`: the window image is lifted from
# the term as written and the factorization loop walks the remainders cut
# from that image, with no `canon` of either.


def _raw_ilbf_term(t, cap=60):
    full = tm.content(t)
    factors = []
    seen = set()
    rem = t
    while True:
        if rem is None:
            return fz.IlbfResult("finite", factors, remainder=None)
        if tm.content(rem) != full:
            return fz.IlbfResult("finite", factors, remainder=rem)
        sig = fz.term_signature(rem)
        if sig in seen:
            return fz.IlbfResult("infinite", factors, witness=sig)
        if len(factors) == cap:
            return fz.IlbfResult("unknown", factors, cap=cap)
        seen.add(sig)
        res = fz.lbf_term(rem)
        factors.append((res.x, res.a))
        rem = res.y


def _raw_ilbf2(u):
    img = dk.phi_k_term(u, 1)
    return fz.induced_factorization(u, img, _raw_ilbf_term(img, cap=LEMMA69_CAP))


def suite_lemma69_terms(config, report):
    """For certified-equal omega-term pairs: induced factorization lengths
    agree and componentwise R-route checks never refute; word-level lbf
    obligations hold exhaustively on samples.  The pair's two sides have
    one normal form, so `fz.ilbf2` would read one window image for both:
    the variant goes through the raw route (`_raw_ilbf2`) instead."""
    rng = random.Random(config.get("seed", 0))
    made = 0
    attempts = 0
    while made < LEMMA69_PAIRS and attempts < LEMMA69_PAIRS * 40:
        attempts += 1
        t = _random_term(rng, "ab")
        word0, exact = tm.prefix_word(t, 2)
        if exact and len(word0) < 2:
            continue
        t2 = _sound_variant(rng, t)
        if t2 == t or not canon_equal(t, t2):
            continue
        made += 1
        report.checked += 1
        try:
            r1 = fz.ilbf2(t, cap=LEMMA69_CAP)
            r2 = _raw_ilbf2(t2)
        except UnsupportedShape:
            report.unknown += 1
            continue
        if r1.outcome == "unknown" or r2.outcome == "unknown":
            report.unknown += 1
            continue
        if r1.outcome != r2.outcome:
            _fail(report, u=tm.term_to_text(t), w=tm.term_to_text(t2),
                  outcomes=[r1.outcome, r2.outcome])
            continue
        if r1.outcome == "finite" and r1.length != r2.length:
            _fail(report, u=tm.term_to_text(t), w=tm.term_to_text(t2),
                  lengths=[r1.length, r2.length])
            continue
        for f1, f2 in list(zip(r1.factors, r2.factors))[:4]:
            verdict = dk.vdk_satisfies("R", 1, f1, f2)
            report.checked += 1
            if verdict.refuted:
                _fail(report, u=tm.term_to_text(f1), w=tm.term_to_text(f2),
                      reason="component refuted on the R route")
            elif verdict.unknown:
                report.unknown += 1
    if made < LEMMA69_PAIRS:
        _fail(report, reason=f"only {made} certified pairs generated")
    # word-level obligations
    for _ in range(LEMMA69_WORDS):
        w = _random_word(rng, rng.choice(["ab", "abc"]), 10)
        report.checked += 1
        word = tuple(w)
        r = fz.lbf(word)
        splits = [(word[:i], word[i], word[i + 1:]) for i in range(len(word))
                  if word[i] not in set(word[:i])
                  and set(word[:i + 1]) == set(word)]
        if splits != [(r.x, r.a, r.y)]:
            _fail(report, word=w, reason="lbf not the unique valid split")
            continue
        res = fz.ilbf(word)
        rebuilt = ()
        for (x, a) in res.factors:
            rebuilt += x + (a,)
        rebuilt += res.remainder
        if rebuilt != word:
            _fail(report, word=w, reason="ilbf recombination failed")
        if len(w) >= 2:
            r2 = fz.ilbf2(w)
            seq = r2.factors + [r2.q]
            if sum(seq, ()) != word:
                _fail(report, word=w, reason="ilbf2 recombination failed")
    # degenerate conventions, verbatim
    conventions = [
        ("aa", [("a",)], ("a",)),
        ("ab", [("a",)], ("b",)),
        ("aaa", [("a",), ("a",)], ("a",)),
    ]
    for w, factors, q in conventions:
        report.checked += 1
        r = fz.ilbf2(w)
        if r.factors != factors or r.q != q:
            _fail(report, word=w, got=[r.factors, r.q])


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


def _bounded_unfolding_regular(t, k):
    def unfold(t, M):
        if isinstance(t, tm.Letter):
            return t
        if isinstance(t, tm.Concat):
            return tm.concat(*[unfold(p, M) for p in t.parts])
        e = t.exp if isinstance(t.exp, int) else M + t.exp.offset
        return tm.power(unfold(t.base, M), e)

    lengths = [fz.ilbf(dk.phi_k(tm.is_finite_word(unfold(t, M)), k).blocks).length
               for M in (4, 6, 8)]
    if lengths[0] == lengths[1] == lengths[2]:
        return False
    return True


def suite_thm610_regularity(config, report):
    for text in REGULARITY_SUITE:
        report.checked += 1
        t = tm.parse_term(text)
        verdict = fz.ds_dk_regular(t, 1)
        if verdict.unknown:
            report.unknown += 1
            continue
        oracle = _bounded_unfolding_regular(t, 1)
        if verdict.proved != oracle:
            _fail(report, term=text, verdict=verdict.status, oracle=oracle)
    if report.unknown > 2:
        _fail(report, reason=f"{report.unknown} unknowns exceed the budget of 2")


def suite_languages_closure(config, report):
    report.checked += 1
    syn = lg.syntactic_semigroup(lg.parse_regex("(ab)+")).semigroup
    if not sg.is_isomorphic(syn, sg.catalog("B2")):
        _fail(report, reason="syntactic semigroup of (ab)+ is not B2")
    pool = ["a", "b", "ab", "(ab)+", "a+", "b+", "(a|b)+", "(a|b)*a",
            "b*ab*", "a(a|b)*", "(ba)+", "(a|b)*b"]
    dfas = {r: lg.parse_regex(r, alphabet="ab") for r in pool}
    lsl = {r: d for r, d in dfas.items()
           if mv.lv_member(lg.syntactic_semigroup(d).semigroup, "Sl")}
    counts = {"left": 0, "right": 0, "unamb": 0}
    for r1, d1 in lsl.items():
        for r2, d2 in lsl.items():
            for marker in "ab":
                p = lg.marked_product(d1, marker, d2)
                synp = lg.syntactic_semigroup(p).semigroup
                if lg.is_left_deterministic(d1, marker, d2):
                    counts["left"] += 1
                    report.checked += 1
                    if not mv.lv_member(synp, "R"):
                        _fail(report, l1=r1, marker=marker, l2=r2, target="LR")
                if lg.is_right_deterministic(d1, marker, d2):
                    counts["right"] += 1
                    report.checked += 1
                    if not mv.lv_member(synp, "L"):
                        _fail(report, l1=r1, marker=marker, l2=r2, target="LL")
                if lg.is_unambiguous(d1, marker, d2):
                    counts["unamb"] += 1
                    report.checked += 1
                    if not mv.lv_member(synp, "DA"):
                        _fail(report, l1=r1, marker=marker, l2=r2, target="LDA")
    if any(v < 50 for v in counts.values()):
        _fail(report, reason=f"too few qualifying samples: {counts}")


def suite_duality(config, report):
    """Identity transport along the mirror map and the mu_K/mu_D duality."""
    rng = random.Random(config.get("seed", 0))
    corpus = all_semigroups_upto(config.get("max_order", 4))
    bank = ["x1^w = x1^w x2", "x1 x2 = x2 x1", "x1^w x2 x1^w = x1^w",
            "(x1 x2)^w = (x2 x1)^w", "x1 x1 = x1", "x1^w = x1^(w+1)",
            "x1 x2 x1 = x1", "(x1 x2)^w x1 = (x1 x2)^w",
            "x1^w x2^w = x1^w", "x2 x1^w = x1^w", "x1 x2 = x1",
            "(x1 x2)^(2^w) = (x1 x2)^w"]
    for _ in range(DUALITY_INSTANCES):
        S = rng.choice(corpus)
        pi = tm.parse_identity(rng.choice(bank))
        report.checked += 1
        if tm.satisfies(S, pi) != tm.satisfies(sg.dual(S), _chi_identity(pi)):
            _fail(report, semigroup=S.to_json_dict(), identity=str(pi))
    for _ in range(DUALITY_MU_SAMPLES):
        S = rng.choice(corpus)
        report.checked += 1
        lhs = sg.quotient(sg.dual(S), mv.mu_z(sg.dual(S), "K"))
        rhs = sg.dual(sg.quotient(S, mv.mu_z(S, "D")))
        if not sg.is_isomorphic(lhs, rhs):
            _fail(report, semigroup=S.to_json_dict(), reason="mu duality broken")


def suite_enumeration_counts(config, report):
    expected = {1: 1, 2: 5, 3: 24, 4: 188}
    for n, count in expected.items():
        report.checked += 1
        got = len(enumerate_semigroups(n))
        if got != count:
            _fail(report, order=n, expected=count, got=got)
    for n in (1, 2, 3):
        report.checked += 1
        if len(naive_enumerate(n)) != expected[n]:
            _fail(report, order=n, reason="naive enumerator disagrees")


SUITES = {
    "permanence": suite_permanence,
    "malcev_equalities": suite_malcev_equalities,
    "prop11_commutation": suite_prop11_commutation,
    "cor35_idempotency": suite_cor35_idempotency,
    "thm61_words": suite_thm61_words,
    "thm44_shadow": suite_thm44_shadow,
    "lemma69_terms": suite_lemma69_terms,
    "thm610_regularity": suite_thm610_regularity,
    "languages_closure": suite_languages_closure,
    "duality": suite_duality,
    "enumeration_counts": suite_enumeration_counts,
}
# The suites that check one corpus semigroup at a time, called as
# suite(S, report); the others are called as suite(config, report).
CORPUS_SUITES = ("malcev_equalities", "prop11_commutation",
                 "cor35_idempotency", "thm44_shadow")


def run_all(config, names):
    """Run the named suites and return their reports in that order.  Each
    suite records into a report made here, and its wall_ms counts only the
    time spent in its own checks.

    The corpus suites share one sweep over all_semigroups_upto(max_order):
    each class is copied fresh from its table, checked by every requested
    corpus suite in turn, and dropped with everything cached on it.  So
    the shared corpus objects gain no derived data, peak memory does not
    grow with the corpus, and mu work that several suites read is done
    once per class and charged to the first suite that reads it."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    reports = {name: SuiteReport(name) for name in names}
    seconds = dict.fromkeys(names, 0.0)

    def run(name, arg):
        t0 = time.monotonic()
        SUITES[name](arg, reports[name])
        seconds[name] += time.monotonic() - t0

    swept = [name for name in names if name in CORPUS_SUITES]
    corpus = all_semigroups_upto(config.get("max_order", 4)) if swept else ()
    for name in names:
        if name not in CORPUS_SUITES:
            run(name, config)
    for S in corpus:
        copy = sg.FiniteSemigroup(S.table, check=False)
        for name in swept:
            run(name, copy)
    for name in names:
        reports[name].wall_ms = int(seconds[name] * 1000)
    return [reports[name] for name in names]


def report_lines(reports):
    out = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        out.append(f"{status} {r.suite}: checked={r.checked} failed={r.failed} "
                   f"unknown={r.unknown} ({r.wall_ms} ms)")
    return out
