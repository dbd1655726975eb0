"""The cache policy: a value that outlives a call is memoized with
functools.cache on the function that computes it; derived data of one
semigroup (each element's index, period and omega power, local monoids,
mu quotients, membership verdicts, generating tuples) is cached on the
instance and dies with it.  Every memo of the certifier is a
functools.cache keyed by terms (canon, pseudovarieties._absorbs,
_certified_idempotent and _term_size): the absorption test recurses
through the combine pass only on arguments of smaller joint term size,
so it needs no in-progress sentinel, and normal forms do not depend on
call history.  The memoized term maps (canon, dk.phi_k_term,
factorization.lbf_term, term_signature, _zero_offsets and _lastmap),
the factorizations memoized by normal form
(factorization._ilbf2_of_normal_form, keyed by (canon(t), cap), and
_ds_dk_regular_of_normal_form, keyed by (canon(t), k); their order
independence is checked in test_factorization.py) and the compiled
identity checkers of terms._compiled_check, keyed by the
pseudoidentity, give the same results whatever order they are called
in.  Term nodes and limit exponents are interned for the life of the
process (terms._letter, _concat, _power and _exponent)."""

import ast
import gc
import random
import weakref
from pathlib import Path

import pytest

import finsemi
from finsemi import dk
from finsemi import factorization as fz
from finsemi import malcev as mv
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import suites
from finsemi import terms as tm
from finsemi.corpus import all_semigroups_upto, enumerate_semigroups
from finsemi.errors import UnsupportedShape

def _none_or_empty(node):
    if isinstance(node, ast.Constant):
        return node.value is None
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "dict", "list") and not node.args
            and not node.keywords)


def test_no_module_level_mutable_state():
    offences = []
    for path in sorted(Path(finsemi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                offences.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and _none_or_empty(value):
                    offences.append(f"{path.name}:{node.lineno} {target.id}")
    assert offences == []


def _clear_canon():
    pv.canon.cache_clear()
    pv._certified_idempotent.cache_clear()
    pv._absorbs.cache_clear()


def _forward_and_backward(fn, clear, terms):
    """fn over the terms in order and in reverse, each from cleared memos,
    both listed in the order of `terms`; a raised UnsupportedShape counts
    as a result."""
    def run(seq):
        clear()
        out = []
        for t in seq:
            try:
                out.append(fn(t))
            except UnsupportedShape as exc:
                out.append(("UnsupportedShape",) + exc.args)
        return out
    return run(terms), run(terms[::-1])[::-1]


def test_canon_does_not_depend_on_call_order():
    maps = [("canon", pv.canon, _clear_canon)] + [
        (f"phi_{k}", lambda t, k=k: dk.phi_k_term(t, k), dk.phi_k_term.cache_clear)
        for k in (1, 2)] + [
        ("lbf_term", fz.lbf_term, fz.lbf_term.cache_clear),
        ("term_signature", fz.term_signature,
         lambda: (fz.term_signature.cache_clear(), fz._zero_offsets.cache_clear(),
                  _clear_canon())),
        ("lastmap", fz._lastmap, fz._lastmap.cache_clear)]
    # a short base under p^omega cannot be lifted: each such term raises
    # after the lifts of its other factors are cached
    unliftable = tm.parse_term("a^(2^w)")
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        terms = [suites._random_term(rng, "ab") for _ in range(6000)]
        terms += [tm.concat(t, unliftable) for t in terms[::100]]
        for name, fn, clear in maps:
            forward, backward = _forward_and_backward(fn, clear, terms)
            assert forward == backward, (seed, name)


def test_limit_exponents_are_interned():
    assert tm.omega(1) is tm.OMEGA.shifted(1) is tm.omega(2).shifted(-1)
    assert tm.omega() is tm.OMEGA
    assert pv._add_exp(tm.omega(1), tm.omega(-1)) is tm.OMEGA
    assert fz._zero_offsets(tm.parse_term("a^(w+3)")).exp is tm.OMEGA
    # True == 1 and 1.0 == 1 hash alike: the checks run before the intern
    # cache, which already holds omega + 1
    for offset in (True, False, 1.0):
        with pytest.raises(ValueError):
            tm.omega(offset)
    with pytest.raises(ValueError):
        tm.OMEGA.shifted(1.0)


def test_satisfies_does_not_depend_on_call_order():
    corpus = all_semigroups_upto(4)
    rng = random.Random(3)
    identities = [pi for V in pv.CATALOG.values() for pi in V.basis]
    # the same sides over a reordered alphabet: another search order, so
    # another first witness
    identities += [tm.pseudo_identity(pi.lhs, pi.rhs, pi.alphabet[::-1])
                   for pi in identities if len(pi.alphabet) > 1]
    identities += [tm.pseudo_identity(suites._random_term(rng, "ab"),
                                      suites._random_term(rng, "ab"))
                   for _ in range(40)]
    calls = [(S, pi) for pi in identities for S in corpus[::3]]
    forward, backward = _forward_and_backward(
        lambda call: tm.satisfies(*call, witness=True),
        tm._compiled_check.cache_clear, calls)
    assert forward == backward
    assert {ok for ok, _ in forward} == {True, False}


def test_the_corpus_is_shared():
    corpus = all_semigroups_upto(4)
    assert len(corpus) == 218
    again = all_semigroups_upto(4)
    assert all(S is T for S, T in zip(corpus, again, strict=True))
    assert all(S is T for S, T in zip(all_semigroups_upto(3), corpus[:30], strict=True))
    assert all(S is T for S, T in zip(enumerate_semigroups(4), corpus[30:], strict=True))
    ids = {id(S) for S in corpus}
    # no model of the bank separates these; the certifier's corpus does
    u, v = tm.parse_term("(b a b b)^w"), tm.parse_term("((b b b a b)^w)^(w+1)")
    witness = pv.refute_over_models(u, v)["semigroup"]
    assert id(witness) in ids and all(witness is not S for S in pv._fast_bank())
    r_members = fz._r_members()
    assert r_members and all(id(S) in ids for S in r_members)


def _fresh_b2():
    return sg.FiniteSemigroup(sg.catalog("B2").table, check=False)


def test_derived_semigroups_are_cached_on_the_instance():
    S = _fresh_b2()
    assert mv.mu_quotient(S, "K") is mv.mu_quotient(S, "K")
    assert mv.mu_quotient(S, "K") is not mv.mu_quotient(S, "D")
    e, f = sorted(S.idempotents())[:2]
    assert sg.local_monoid(S, e) is sg.local_monoid(S, e)
    assert sg.local_monoid(S, e) is not sg.local_monoid(S, f)
    assert sg.generating_tuples(S, 2) is sg.generating_tuples(S, 2)
    T = _fresh_b2()
    assert mv.mu_quotient(T, "K") is not mv.mu_quotient(S, "K")
    assert mv.mu_quotient(T, "K").table == mv.mu_quotient(S, "K").table


def test_derived_data_dies_with_its_semigroup():
    # no reference cycle may form: with the cyclic collector off, dropping
    # the last reference must free the root and everything cached on it
    enabled = gc.isenabled()
    gc.disable()
    try:
        S = _fresh_b2()
        for Z in mv.V_SET:
            mv.malcev_member(S, Z, "Sl")
            mv.locality_commutation_check(S, Z, "G")
        D = sg.dual(S)
        assert sg.is_isomorphic(sg.quotient(D, mv.mu_z(D, "K")),
                                sg.dual(sg.quotient(S, mv.mu_z(S, "D"))))
        e = min(S.idempotents())
        for x in range(S.order):
            S.omega_power(x, -1)
        sg.generating_tuples(S, 2)
        refs = [weakref.ref(x) for x in
                (S, D, mv.mu_quotient(S, "LI"), sg.local_monoid(S, e))]
        assert S._derived and len(S._cycles) == S.order
        del S, D
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_member_verdicts_are_keyed_by_the_definition():
    S = sg.FiniteSemigroup([[0, 0], [0, 1]], check=False)  # the two-element semilattice
    catalog_sl = pv.get_pseudovariety("Sl")
    trivial_sl = pv.load_pseudovariety(
        {"name": "Sl", "basis": [{"lhs": "x1", "rhs": "x2"}]})
    assert hash(trivial_sl) == hash(catalog_sl) and trivial_sl != catalog_sl
    assert pv.member(S, "Sl") is True
    assert pv.member(S, trivial_sl) is False
    assert pv.member(S, catalog_sl) is True
