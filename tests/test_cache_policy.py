"""The cache policy: a value that outlives a call is memoized with
functools.cache on the function that computes it; derived data of one
semigroup (local monoids, mu quotients, membership verdicts) is cached on
the instance and dies with it.  The one hand-rolled memo is
pseudovarieties._absorb_memo, whose in-progress sentinel a
functools.cache cannot express.  The memoized term maps (canon,
dk.phi_k_term, factorization.lbf_term and factorization.term_signature)
give the same results whatever order they are called in."""

import ast
import gc
import random
import weakref
from pathlib import Path

import finsemi
from finsemi import dk
from finsemi import factorization as fz
from finsemi import malcev as mv
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import suites
from finsemi import terms as tm
from finsemi.corpus import all_semigroups_upto
from finsemi.errors import UnsupportedShape

HAND_ROLLED = {"_absorb_memo"}


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
                if (isinstance(target, ast.Name) and target.id not in HAND_ROLLED
                        and _none_or_empty(value)):
                    offences.append(f"{path.name}:{node.lineno} {target.id}")
    assert offences == []


def _clear_canon():
    pv.canon.cache_clear()
    pv._absorb_memo.clear()


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
         lambda: (fz.term_signature.cache_clear(), _clear_canon()))]
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


def test_the_corpus_is_shared():
    corpus = all_semigroups_upto(4)
    assert len(corpus) == 218
    again = all_semigroups_upto(4)
    assert all(S is T for S, T in zip(corpus, again, strict=True))
    assert all(S is T for S, T in zip(all_semigroups_upto(3), corpus[:30], strict=True))
    ids = {id(S) for S in corpus}
    bank = {id(S) for S in pv._fast_bank()}
    models = [S for S in pv._refutation_models(4) if id(S) not in bank]
    assert len(models) == 218 and all(id(S) in ids for S in models)
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
        refs = [weakref.ref(x) for x in
                (S, D, mv.mu_quotient(S, "LI"), sg.local_monoid(S, e))]
        assert S._derived
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
