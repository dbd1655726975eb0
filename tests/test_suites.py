"""The suite runner: the corpus suites share one sweep over fresh copies
of the corpus classes, and each of them fails under a planted defect, as
thm61_words does under a defect in one free-object rule."""

import pytest

from finsemi import dk
from finsemi import malcev as mv
from finsemi import semigroups as sg
from finsemi import suites
from finsemi.corpus import all_semigroups_upto
from finsemi.pseudovarieties import member
from finsemi.semigroups import FiniteSemigroup

CONFIG = {"max_order": 3}


def _without_wall(report):
    d = report.to_json_dict()
    d.pop("wall_ms")
    return d


def _state(S):
    """Every attribute of S: the table and its metadata, and each derived
    slot (_green, _idempotents, _cycles, _canon, _derived), dicts copied."""
    return {name: dict(v) if isinstance(v, dict) else v for name, v in vars(S).items()}


def test_the_sweep_shares_nothing_and_leaks_nothing():
    corpus = all_semigroups_upto(3)
    before = [_state(S) for S in corpus]
    swept = suites.run_all(CONFIG, list(suites.CORPUS_SUITES))
    assert [_state(S) for S in corpus] == before
    assert [r.suite for r in swept] == list(suites.CORPUS_SUITES)
    for report in swept:
        alone = suites.run_all(CONFIG, [report.suite])[0]
        assert _without_wall(alone) == _without_wall(report)


def _mu_d_on_the_untransposed_table(monkeypatch):
    monkeypatch.setitem(mv._ACTIONS, "D", (mv._on_elements, False))


def _lv_member_reads_one_local_monoid(monkeypatch):
    def lv_member(S, V):
        return member(sg.local_monoid(S, min(S.idempotents())), V)
    monkeypatch.setattr(mv, "lv_member", lv_member)


@pytest.mark.parametrize("plant, names", [
    (_mu_d_on_the_untransposed_table, ["malcev_equalities", "thm44_shadow"]),
    (_lv_member_reads_one_local_monoid, ["prop11_commutation", "thm44_shadow"]),
], ids=["mu_d_untransposed", "lv_member_one_local"])
def test_planted_defects_fail_through_the_sweep(monkeypatch, plant, names):
    # the sweep checks fresh copies, so mu labels and verdicts that other
    # tests cached on the corpus objects cannot hide the defect
    plant(monkeypatch)
    for report in suites.run_all(CONFIG, names):
        assert report.failed > 0, report.suite
        for ex in report.examples:
            S = FiniteSemigroup.from_json_dict(ex["semigroup"])
            replay = suites.SuiteReport(report.suite)
            suites.SUITES[report.suite](S, replay)
            assert ex in replay.examples


@pytest.mark.parametrize("rule, planted", [
    ("BOUNDED_PREFIX", lambda word, k: word[:k - 1]),
    ("BOUNDED_SUFFIX", lambda word, k: word[:k]),
    ("BOUNDED_WORD", lambda word, k: word if len(word) <= k else sg.FREE_ZERO),
], ids=["prefix_short", "suffix_as_prefix", "bounded_word_long"])
def test_planted_free_rule_defects_fail_thm61(monkeypatch, rule, planted):
    # the K_k prefix one letter short, the D_k suffix read as the prefix,
    # N_k keeping words of length k
    honest = sg.free_value

    def free_value(r, word, k):
        return planted(word, k) if r == rule else honest(r, word, k)

    monkeypatch.setattr(suites, "THM61_PAIRS", 300)
    monkeypatch.setattr(sg, "free_value", free_value)
    report = suites.run_all({}, ["thm61_words"])[0]
    monkeypatch.undo()
    assert report.failed > 0
    # each failure is the planted rule's: without it, the two sides agree
    for ex in report.examples:
        F = dk.VdkImages(ex["v"], ex["k"])
        verdict = dk.vdk_satisfies(ex["v"], ex["k"], ex["u"], ex["w"],
                                   require_nontrivial_monoid=False)
        assert verdict.proved == (F.image_of_word(ex["u"]) == F.image_of_word(ex["w"]))
