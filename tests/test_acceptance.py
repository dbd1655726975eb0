"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification suite at its stated
tolerance and prints a single pass/fail line (run with -s to see the
lines as they happen; the verify-paper CLI prints the same summary).
"""

import sys

from finsemi import pseudovarieties as pv
from finsemi import terms as tm
from finsemi.corpus import all_semigroups_upto
from finsemi.semigroups import FiniteSemigroup


def _line(num, name, report, extra=""):
    status = "PASS" if report.passed else "FAIL"
    msg = (f"ACCEPTANCE {num} ({name}): {status} checked={report.checked} "
           f"failed={report.failed} unknown={report.unknown} "
           f"wall={report.wall_ms}ms {extra}")
    print(msg, file=sys.stderr)
    return msg


def test_criterion_01_permanence(run_suite):
    """Of the 12 permanence checks, the 10 that hold verify: four displayed
    pseudoidentities left-permanent, their mirrors right-permanent, LG_p
    (p = 2, 3) left-permanent.  The K v G entry x1^w = x1^w x2^w and its
    mirror are refuted on the condition v(u,v) = v, with a witness of order
    <= 4 that replays without the certifier; < 10 s.

    The refutation is right.  Every permanence condition must hold in all
    finite semigroups (see is_left_permanent).  For u = x1^w, v = x1^w x2^w
    the condition v(u,v) = v reads x1^w (x1^w x2^w)^w = x1^w x2^w.  In the
    semigroup {e, f, ef, 0} with fe = 0 take x1 = e, x2 = f:
    (ef)^2 = e.fe.f = 0, so (ef)^w = 0 and e.(ef)^w = 0 != ef.  The mirror
    fails the same way on the right.  K v G keeps a permanent definition:
    x1^w = (x1^w x2^w)^w is left-permanent, its mirror right-permanent, and
    it is equivalent to x1^w = x1^w x2^w: for idempotents e, f,
    e = e(ef)^w forces e = (ef)^w, and then ef = (ef)^w f = (ef)^w = e."""
    r = run_suite("permanence")
    msg = _line(1, "permanence", r)
    assert r.wall_ms < 10_000
    assert r.unknown == 0  # verdicts are never Unknown
    assert r.checked == 12, msg
    # NOTE: the report fails by design (SuiteReport.passed is False): the
    # two failures below are refutations, and each one is checked here.
    # Any further failure means one of the 10 other checks stopped
    # verifying, since the report records a failure example for every
    # check that does not come back Proved.
    assert r.failed == 2, msg
    failures = {(e["identity"], e["side"]): e for e in r.examples}
    assert set(failures) == {("x1^w = x1^w x2^w", "left"),
                             ("x1^w = x2^w x1^w", "right")}, msg
    for ex in failures.values():
        assert ex["verdict"] == "refuted"
        assert ex["condition"] == "v(u,v) = v"
        S = FiniteSemigroup.from_json_dict(ex["semigroup"])
        assert S.order <= 4
        # replay from the serialized witness alone, without the certifier
        pi = tm.parse_identity(f"{ex['lhs']} = {ex['rhs']}")
        assert tm.satisfies(S, pi) is False
        asg = ex["assignment"]
        assert tm.evaluate(pi.lhs, S, asg) != tm.evaluate(pi.rhs, S, asg)

    # K v G keeps a permanent defining pseudoidentity
    kg = tm.parse_identity("x1^w = (x1^w x2^w)^w")
    kg_mirror = tm.pseudo_identity(tm.reverse_chi(kg.lhs),
                                   tm.reverse_chi(kg.rhs), kg.alphabet)
    assert pv.is_left_permanent(kg).proved
    assert pv.is_right_permanent(kg_mirror).proved
    displayed = tm.parse_identity("x1^w = x1^w x2^w")
    corpus = all_semigroups_upto(4)
    by_permanent = [S for S in corpus if tm.satisfies(S, kg)]
    assert by_permanent == [S for S in corpus if tm.satisfies(S, displayed)]
    assert by_permanent == [S for S in corpus if pv.member(S, "KvG")]
    assert len(by_permanent) == 38


def test_criterion_02_malcev_equalities(run_suite):
    """R=K m Sl, L=D m Sl, DA=LI m Sl, DS=LG m Sl, J=N m Sl,
    DG=(NvG) m Sl on the exhaustive order-<=4 corpus; < 5 min."""
    r = run_suite("malcev_equalities", {"max_order": 4})
    msg = _line(2, "malcev_equalities", r)
    order4 = len([S for S in all_semigroups_upto(4) if S.order == 4])
    assert order4 * 6 == 1128  # the 188 order-4 classes give 1128 instances
    assert r.checked >= 1128
    assert r.wall_ms < 300_000
    assert r.passed, msg


def test_criterion_03_prop11_commutation(run_suite):
    """Both sides of L(Z m V) = Z m LV agree for all corpus S, all eight
    Z, V in {Sl, G, A}; < 10 min."""
    r = run_suite("prop11_commutation", {"max_order": 4})
    msg = _line(3, "prop11_commutation", r)
    assert r.checked == 218 * 8 * 3
    assert r.wall_ms < 600_000
    assert r.passed, msg


def test_criterion_04_cor35_idempotency(run_suite):
    """Verdict stability of the mu-route under double application."""
    r = run_suite("cor35_idempotency", {"max_order": 4})
    msg = _line(4, "cor35_idempotency", r)
    assert r.checked == 218 * 8
    assert r.passed, msg


def test_criterion_05_thm61_exactness(run_suite):
    """>= 10^4 random word pairs, V in {Sl, K_2, D_2, N_2}, k in {1, 2}:
    the triple criterion agrees with free-object images, and proved pairs
    survive wreath-product spot checks."""
    r = run_suite("thm61_words", {"seed": 0})
    msg = _line(5, "thm61_exactness", r)
    assert r.checked >= 10_000 * 8
    assert r.passed, msg


def test_criterion_06_thm44_shadow(run_suite):
    """mu_K-quotient locally in Sl iff all local monoids in R; mu_LI vs DA;
    mu_D vs L, on the full corpus."""
    r = run_suite("thm44_shadow", {"max_order": 4})
    msg = _line(6, "thm44_shadow", r)
    assert r.checked == 218 * 3
    assert r.passed, msg


def test_criterion_07_lemma69_ilbf2(run_suite):
    """>= 500 certified-equal omega-term pairs: factorization lengths agree
    and componentwise R-route checks never refute; >= 10^4 random words:
    lbf uniqueness, recombination, and the degenerate conventions; unknown
    verdicts below 10%."""
    r = run_suite("lemma69_terms", {"seed": 0})
    msg = _line(7, "lemma69_ilbf2", r)
    assert r.unknown <= 0.10 * r.checked
    assert r.passed, msg


def test_criterion_08_thm610_regularity(run_suite):
    """The fixed 30-term regularity suite matches the bounded-unfolding
    oracle; at most 2 unknowns."""
    r = run_suite("thm610_regularity")
    msg = _line(8, "thm610_regularity", r)
    assert r.checked >= 30
    assert r.unknown <= 2
    assert r.passed, msg


def test_criterion_09_languages(run_suite):
    """syntactic semigroup of (ab)+ is B2; >= 50 sampled LSl pairs per
    product type land in LR / LL / LDA."""
    r = run_suite("languages_closure")
    msg = _line(9, "languages_closure", r)
    assert r.passed, msg


def test_criterion_10_duality(run_suite):
    """>= 10^4 sampled identity transports along the mirror map and
    >= 100 mu_K/mu_D duality isomorphisms."""
    r = run_suite("duality", {"seed": 0})
    msg = _line(10, "duality", r)
    assert r.checked >= 10_100
    assert r.passed, msg


def test_criterion_11_enumeration_counts(run_suite):
    """{1, 5, 24, 188} for orders 1-4, cross-checked against the naive
    enumerator at orders <= 3."""
    r = run_suite("enumeration_counts")
    msg = _line(11, "enumeration_counts", r)
    assert r.passed, msg
