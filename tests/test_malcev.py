from itertools import product

import pytest

from finsemi import malcev as mv
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import terms as tm
from finsemi.corpus import all_semigroups_upto
from finsemi.errors import UnsupportedZ


def big_j(S):
    g = S.green()
    return max(g.regular_j, key=lambda ji: len(g.j_classes[ji]))


def regular_js(S):
    return sorted(S.green().regular_j)


def mu_zj(S, j, Z):
    """The mu_{Z,J} label vector for the regular J-class with id j."""
    return mv._mu_zj_labels(S, S.green().j_classes[j], Z)


def n_classes(labels):
    return len(set(labels))


def test_mu_zj_b2_li_identity():
    B2 = sg.catalog("B2")
    c = mu_zj(B2, big_j(B2), "LI")
    assert n_classes(c) == B2.order


def test_mu_zj_group_k_identity():
    C3 = sg.catalog("cyclic", 3)
    c = mu_zj(C3, big_j(C3), "K")
    assert n_classes(c) == C3.order


def test_mu_zj_null_collapses():
    S = sg.catalog("null", 2)
    g = S.green()
    (j0,) = sorted(g.regular_j)  # only {0} is regular
    c = mu_zj(S, j0, "K")
    assert n_classes(c) == 1  # everything acts as zero


def test_mu_z_unsupported():
    with pytest.raises(UnsupportedZ):
        mv.mu_z(sg.catalog("B2"), "N")


def test_mu_z_left_zero_collapses_for_k():
    lz = sg.catalog("left_zero", 2)
    assert n_classes(mv.mu_z(lz, "K")) == 1
    assert n_classes(mv.mu_z(lz, "D")) == lz.order


def test_mu_quotient_subdirect_of_per_j_images():
    # S / mu_LI embeds in the product of the per-J GGM images S / mu_{LI,J}:
    # the map sending a class to its per-J classes is injective and
    # multiplicative
    for S in [sg.catalog("B2_1"), sg.catalog("U1"), sg.catalog("free_band_2")]:
        Q = mv.mu_quotient(S, "LI")
        per_j = [mu_zj(S, j, "LI") for j in regular_js(S)]
        images = [sg.quotient(S, c) for c in per_j]
        embed = [tuple(c[x] for c in per_j)
                 for x in sg.least_elements(mv.mu_z(S, "LI"))]
        assert len(set(embed)) == Q.order
        for a, b in product(range(Q.order), repeat=2):
            assert embed[Q.table[a][b]] == tuple(
                I.table[u][v] for I, u, v in zip(images, embed[a], embed[b]))


def test_malcev_member_examples():
    U1 = sg.catalog("U1")
    assert mv.malcev_member(U1, "N", "Sl")  # U1 in J = N m Sl
    assert mv.malcev_member(sg.catalog("left_zero", 2), "K", "Sl")
    assert not mv.malcev_member(sg.catalog("cyclic", 2), "K", "Sl")
    assert not mv.malcev_member(sg.catalog("B2"), "LG", "Sl")


def test_malcev_equalities_on_corpus():
    pairs = [("R", "K"), ("L", "D"), ("DA", "LI"), ("DS", "LG"),
             ("J", "N"), ("DG", "NvG")]
    for S in all_semigroups_upto(3):
        for name, Z in pairs:
            assert pv.member(S, name) == mv.malcev_member(S, Z, "Sl"), \
                (S.table, name, Z)


def test_lv_member():
    B2 = sg.catalog("B2")
    assert mv.lv_member(B2, "Sl")
    assert not mv.lv_member(sg.catalog("cyclic", 2), "Sl")
    G = sg.catalog("cyclic", 4)
    assert mv.lv_member(G, "G")
    # every semigroup is locally in the full catalog-free sense: use A on a band
    assert mv.lv_member(sg.catalog("free_band_2"), "A")


def test_locality_commutation_examples():
    assert mv.locality_commutation_check(sg.catalog("B2"), "LI", "Sl")
    assert mv.locality_commutation_check(sg.catalog("cyclic", 2), "K", "Sl")
    # both sides false for C2 / K / Sl
    C2 = sg.catalog("cyclic", 2)
    assert not mv.malcev_member(C2, "K", "Sl")
    assert not mv.lv_member(mv.mu_quotient(C2, "K"), "Sl")


def test_faithfulness_of_mu_zj_quotients():
    # the quotient acts faithfully in its MuKind sense on the image class
    for S in all_semigroups_upto(4):
        for j in regular_js(S):
            x = min(S.green().j_classes[j])
            for Z in ("K", "D", "KvG", "DvG", "LI", "LG"):
                c = mu_zj(S, j, Z)
                Q = sg.quotient(S, c)
                qj = Q.green().j_class_of[c[x]]
                assert n_classes(mu_zj(Q, qj, Z)) == Q.order, (S.table, Z)


def test_local_monoids_of_mu_zj_images_are_z_semigroups():
    # every local monoid of the mu_{Z,J} image is itself a Z-semigroup
    # (faithful for its own distinguished class, the trace of the image class)
    for S in all_semigroups_upto(4):
        for j in regular_js(S):
            x = min(S.green().j_classes[j])
            for Z in ("K", "D", "KvG", "DvG", "LI", "LG"):
                c = mu_zj(S, j, Z)
                Q = sg.quotient(S, c)
                jbar_id = Q.green().j_class_of[c[x]]
                jbar = Q.green().j_classes[jbar_id]
                for e in Q.idempotents():
                    M = _local_with_map(Q, e)
                    inter = [x for x in jbar if Q.table[Q.table[e][x]][e] == x
                             and x in M.values()]
                    if not inter:
                        continue
                    Mi = {x: i for i, x in M.items()}
                    g = M["sgp"].green()
                    jm = g.j_class_of[Mi[inter[0]]]
                    if jm not in g.regular_j:
                        continue
                    assert n_classes(mu_zj(M["sgp"], jm, Z)) == M["sgp"].order


def _local_with_map(S, e):
    elems = sorted({S.table[S.table[e][x]][e] for x in range(S.order)})
    idx = {x: i for i, x in enumerate(elems)}
    table = [[idx[S.table[x][y]] for y in elems] for x in elems]
    d = {i: x for x, i in idx.items()}
    d["sgp"] = sg.FiniteSemigroup(table, check=False)
    return d


def test_cor35_idempotency_small():
    for S in all_semigroups_upto(3):
        for Z in mv.V_SET:
            once = mv.malcev_member(S, Z, "Sl")
            twice = mv.malcev_member_with(S, Z, lambda T: mv.malcev_member(T, Z, "Sl"))
            assert once == twice


def test_mu_duality():
    # mu_K of the dual is the dual of mu_D
    for S in all_semigroups_upto(3):
        lhs = sg.quotient(sg.dual(S), mv.mu_z(sg.dual(S), "K"))
        rhs = sg.dual(sg.quotient(S, mv.mu_z(S, "D")))
        assert sg.is_isomorphic(lhs, rhs)


def ladder_member(S, family, m):
    """The R_m / L_m ladder: R_1 = L_1 = Sl, R_{m+1} = K m L_m,
    L_{m+1} = D m R_m."""
    if m == 1:
        return pv.member(S, "Sl")
    Z, other = ("K", "L_m") if family == "R_m" else ("D", "R_m")
    return mv.malcev_member_with(S, Z, lambda T: ladder_member(T, other, m - 1))


def test_ladder():
    lz = sg.catalog("left_zero", 2)
    assert ladder_member(lz, "R_m", 2)
    assert not ladder_member(lz, "L_m", 2)
    C2 = sg.catalog("cyclic", 2)
    for m in range(1, 5):
        assert not ladder_member(C2, "R_m", m)
    # R_2 = R on the small corpus
    for S in all_semigroups_upto(3):
        assert ladder_member(S, "R_m", 2) == pv.member(S, "R")


def test_ladder_covers_da_on_corpus():
    # every corpus member of DA is reached by level 4; non-members never are
    for S in all_semigroups_upto(4):
        in_da = pv.member(S, "DA")
        reached = any(ladder_member(S, "R_m", m) for m in range(1, 5))
        assert reached == in_da


def test_pinweil_refute_c2():
    C2 = sg.catalog("cyclic", 2)
    K = pv.get_pseudovariety("K")
    w = mv.pinweil_refute(C2, K.basis, "Sl")
    assert w is not None
    # the witness replays: the substituted identity fails in C2
    pi = w["identity"]
    sub = w["substitution"]
    image = tm.pseudo_identity(tm.substitute(pi.lhs, sub), tm.substitute(pi.rhs, sub))
    assert not tm.satisfies(C2, image)


def test_pinweil_sound_on_r_members():
    K = pv.get_pseudovariety("K")
    for S in all_semigroups_upto(3):
        if pv.member(S, "R"):
            assert mv.pinweil_refute(S, K.basis, "Sl") is None


def test_pinweil_trivial():
    K = pv.get_pseudovariety("K")
    assert mv.pinweil_refute(sg.catalog("trivial"), K.basis, "Sl") is None


def _class_semigroup(S, cls):
    """The subsemigroup of S on the elements of a closed class."""
    cls = sorted(cls)
    idx = {x: i for i, x in enumerate(cls)}
    return sg.FiniteSemigroup([[idx[S.table[x][y]] for y in cls] for x in cls])


def _is_witness(S, labels, Z, V):
    """Whether S / labels is in V and every idempotent class is in Z."""
    Q = sg.quotient(S, labels)
    classes = sg.classes_of(labels)
    return pv.member(Q, V) and all(pv.member(_class_semigroup(S, classes[e]), Z)
                                   for e in Q.idempotents())


def test_mu_witness_replays():
    # a witness exactly for the members, and every witness replays: its
    # classes form a congruence, its quotient is in V, and each idempotent
    # class is in Z, checked apart from mu
    from test_semigroups import congruence_from_pairs
    for S in all_semigroups_upto(4):
        for Z in mv.V_SET:
            for V in ("Sl", "G", "A"):
                w = mv.mu_witness(S, Z, V)
                assert (w is not None) == mv.malcev_member(S, Z, V), (S.table, Z, V)
                if w is None:
                    continue
                labels, Q = w
                # the least congruence holding each class is the partition
                reps = sg.least_elements(labels)
                pairs = [(reps[c], x) for x, c in enumerate(labels)]
                assert congruence_from_pairs(S, pairs) == labels, (S.table, Z, V)
                assert sg.quotient(S, labels).table == Q.table
                assert _is_witness(S, labels, Z, V), (S.table, Z, V)


def test_mu_witness_rejects_a_partition_that_is_no_congruence(monkeypatch):
    # a planted mu that merges the two greatest elements: wherever that
    # partition is not a congruence there is no witness, also where the
    # quotient by least elements is in V and the idempotent classes in Z
    def merge_last_two(S, Z):
        return sg.kernel_labels([min(x, S.order - 2) for x in range(S.order)])

    cases = [(S, Z, V) for S in all_semigroups_upto(3) if S.order > 1
             for Z in mv.V_SET for V in ("Sl", "G", "A")
             if not sg.is_congruence(S, merge_last_two(S, Z))
             and mv.mu_witness(S, Z, V) is not None]
    monkeypatch.setattr(mv, "mu_z", merge_last_two)
    assert cases and all(mv.mu_witness(S, Z, V) is None for S, Z, V in cases)
    # here only compatibility fails: 1 2 = 0 but 2 2 = 1, while S/{1,2}
    # is the null semigroup of order 2, in A, and the idempotent class {0}
    # is trivial
    S = sg.FiniteSemigroup([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    for Z in mv.V_SET:
        assert (S, Z, "A") in cases
        assert _is_witness(S, merge_last_two(S, Z), Z, "A")


def test_mu_witness_matches_the_lattice_search():
    # the search over the whole congruence lattice finds a witness exactly
    # when the mu congruence is one
    from test_semigroups import congruences
    for S in all_semigroups_upto(3):
        lattice = congruences(S)
        for Z in mv.V_SET:
            for V in ("Sl", "G", "A"):
                found = any(_is_witness(S, c, Z, V) for c in lattice)
                assert found == (mv.mu_witness(S, Z, V) is not None), (S.table, Z, V)


def test_cross_validation_triangle(monkeypatch):
    # a Pin-Weil refutation only for non-members
    monkeypatch.setattr(mv, "PINWEIL_BUDGET", 2000)
    K = pv.get_pseudovariety("K")
    for S in all_semigroups_upto(3):
        if mv.pinweil_refute(S, K.basis, "Sl") is not None:
            assert not mv.malcev_member(S, "K", "Sl")


# ---------------------------------------------------------------------------
# The cached route against the uncached one: every step of the oracle below
# runs on a fresh instance, so nothing it uses was cached before.


def _fresh(S):
    return sg.FiniteSemigroup(S.table, check=False)


def _oracle_member(S, V):
    T = _fresh(S)
    return all(tm.satisfies(T, pi) for pi in V.basis)


def _oracle_malcev_with(S, Z, pred):
    comps = {"N": ("K", "D"), "NvG": ("KvG", "DvG")}.get(Z)
    if comps:
        return all(_oracle_malcev_with(S, c, pred) for c in comps)
    T = _fresh(S)
    return pred(sg.quotient(T, mv.mu_z(T, Z)))


def _oracle_lv_member(S, V):
    return all(_oracle_member(sg.local_monoid(_fresh(S), e), V)
               for e in _fresh(S).idempotents())


def _oracle_malcev_member(S, Z, V):
    return _oracle_malcev_with(S, Z, lambda T: _oracle_member(T, V))


def _oracle_locality(S, Z, V):
    side_locals = all(_oracle_malcev_member(sg.local_monoid(_fresh(S), e), Z, V)
                      for e in _fresh(S).idempotents())
    side_mu = _oracle_malcev_with(S, Z, lambda T: _oracle_lv_member(T, V))
    return side_locals == side_mu


def _cached(S, kind, Z, V):
    if kind == "lv":
        return mv.lv_member(S, V)
    if kind == "malcev":
        return mv.malcev_member(S, Z, V)
    return mv.locality_commutation_check(S, Z, V)


def _oracle(S, kind, Z, V):
    if kind == "lv":
        return _oracle_lv_member(S, V)
    if kind == "malcev":
        return _oracle_malcev_member(S, Z, V)
    return _oracle_locality(S, Z, V)


def test_cached_route_matches_the_uncached_route():
    local_v = [pv.get_pseudovariety(v) for v in ("Sl", "G", "A")]
    calls = [("lv", None, V) for V in local_v]
    calls += [(kind, Z, V) for Z in mv.V_SET for V in local_v
              for kind in ("malcev", "locality")]
    for S in all_semigroups_upto(4):
        T = _fresh(S)
        forward = [_cached(T, *c) for c in calls]
        backward = [_cached(T, *c) for c in reversed(calls)][::-1]
        U = _fresh(S)
        cold_backward = [_cached(U, *c) for c in reversed(calls)][::-1]
        oracle = [_oracle(S, *c) for c in calls]
        assert forward == backward == cold_backward == oracle, S.table


# ---------------------------------------------------------------------------
# The label-vector kernels against the reference construction below, which
# keeps its own view of a J-class (sorted elements, least representatives),
# computes every signature per element of S, and groups elements by hand.


class _RefView:
    def __init__(self, S, j_id):
        g = S.green()
        self.semigroup = S
        self.elements = tuple(sorted(g.j_classes[j_id]))
        self.element_set = frozenset(self.elements)


class _RefPartition:
    """classes sorted by least element, and class_of numbering them."""

    def __init__(self, n, key_of):
        groups = {}
        for s in range(n):
            groups.setdefault(key_of(s), set()).add(s)
        self.classes = tuple(sorted(map(frozenset, groups.values()), key=min))
        class_of = [None] * n
        for ci, cls in enumerate(self.classes):
            for x in cls:
                class_of[x] = ci
        self.class_of = tuple(class_of)


def _ref_right_signature(S, view, s):
    inside = view.element_set
    return tuple(
        S.table[x][s] if S.table[x][s] in inside else None for x in view.elements
    )


def _ref_left_signature(S, view, s):
    inside = view.element_set
    return tuple(
        S.table[s][x] if S.table[s][x] in inside else None for x in view.elements
    )


def _ref_right_on_l_signature(S, view, s):
    g = view.semigroup.green()
    inside = view.element_set
    sig = []
    for lid in sorted({g.l_class_of[e] for e in view.elements}):
        x = min(e for e in view.elements if g.l_class_of[e] == lid)
        xs = S.table[x][s]
        sig.append(g.l_class_of[xs] if xs in inside else None)
    return tuple(sig)


def _ref_left_on_r_signature(S, view, s):
    g = view.semigroup.green()
    inside = view.element_set
    sig = []
    for rid in sorted({g.r_class_of[e] for e in view.elements}):
        x = min(e for e in view.elements if g.r_class_of[e] == rid)
        sx = S.table[s][x]
        sig.append(g.r_class_of[sx] if sx in inside else None)
    return tuple(sig)


def _ref_kernel_of(S, view, fn):
    return _RefPartition(S.order, lambda s: fn(S, view, s))


def _ref_sequential_kernel(S, view, first_fn, second_fn):
    c1 = _ref_kernel_of(S, view, first_fn)
    reps = [min(c) for c in c1.classes]
    T1 = sg.FiniteSemigroup(
        [[c1.class_of[S.table[x][y]] for y in reps] for x in reps], check=False)
    view1 = _RefView(T1, T1.green().j_class_of[c1.class_of[view.elements[0]]])
    return _RefPartition(S.order,
                         lambda s: second_fn(T1, view1, c1.class_of[s]))


def _ref_mu_zj(S, view, Z):
    if Z in ("LI", "LG"):
        first, second = {
            "LI": (_ref_right_signature, _ref_left_signature),
            "LG": (_ref_right_on_l_signature, _ref_left_on_r_signature),
        }[Z]
        return _ref_sequential_kernel(S, view, first, second)
    return _ref_kernel_of(S, view, {
        "K": _ref_right_signature, "D": _ref_left_signature,
        "KvG": _ref_right_on_l_signature, "DvG": _ref_left_on_r_signature,
    }[Z])


def _ref_mu_z(S, Z):
    kerns = [_ref_mu_zj(S, _RefView(S, j), Z) for j in regular_js(S)]
    return _RefPartition(S.order, lambda s: tuple(k.class_of[s] for k in kerns))


def test_mu_matches_the_congruence_reference():
    # equal partitions and equal class numbering, for mu_z and every mu_zj
    from test_semigroups import product_tables
    for S in [*all_semigroups_upto(4), *product_tables(2, 60)]:
        for Z in ("K", "D", "KvG", "DvG", "LI", "LG"):
            got, want = mv.mu_z(S, Z), _ref_mu_z(S, Z)
            assert (sg.classes_of(got), got) == (want.classes, want.class_of), \
                (S.table, Z)
            for j in regular_js(S):
                got, want = mu_zj(S, j, Z), _ref_mu_zj(S, _RefView(S, j), Z)
                assert (sg.classes_of(got), got) == \
                    (want.classes, want.class_of), (S.table, Z, j)


def test_per_j_labels_do_not_depend_on_call_order():
    # the mu_{Z,J} labels are cached on S, and LI and LG read the cached
    # labels of K and K v G as their first stage: forward, reverse, and
    # the staged Z before their first stages must all agree
    from test_semigroups import product_tables
    zs = ("K", "D", "KvG", "DvG", "LI", "LG")
    orders = [zs, zs[::-1], ("LI", "LG", "K", "KvG", "D", "DvG")]
    for S in [*all_semigroups_upto(4), *product_tables(2, 60)]:
        results = []
        for order in orders:
            U = _fresh(S)
            results.append({Z: (mv.mu_z(U, Z),
                                [mu_zj(U, j, Z) for j in regular_js(U)],
                                mv.mu_quotient(U, Z).table)
                            for Z in order})
        assert results[0] == results[1] == results[2], S.table


def test_image_of_j_is_a_j_class_of_the_first_stage():
    # the staged kernels take J1 = phi(J) as a J-class of T1 without
    # computing T1's Green data: for the first stages K and K v G, phi(J)
    # is exactly the J-class of T1 that T1.green() finds
    from test_semigroups import product_tables
    for S in [*all_semigroups_upto(5), *product_tables(3, 400)]:
        g = S.green()
        for j in g.regular_j:
            J = g.j_classes[j]
            for Z in ("K", "KvG"):
                lab = mv._mu_zj_labels(S, J, Z)
                reps = sg.least_elements(lab)
                T1 = sg.FiniteSemigroup(
                    [[lab[S.table[x][y]] for y in reps] for x in reps], check=False)
                g1 = T1.green()
                image = frozenset(lab[x] for x in J)
                j1 = g1.j_class_of[lab[min(J)]]
                assert image == g1.j_classes[j1], (S.table, Z, j)
                assert j1 in g1.regular_j


def test_mu_computes_green_data_once(monkeypatch):
    # every mu label vector reads a Cayley table and S's J-classes: one
    # fresh S through all six Z computes Green data once, for S itself
    from test_semigroups import product_tables
    calls = []
    compute = sg._compute_green

    def counting(S):
        calls.append(S)
        return compute(S)

    monkeypatch.setattr(sg, "_compute_green", counting)
    for S in [sg.catalog("B2_1"), sg.catalog("free_band_2"), *product_tables(4, 10)]:
        U = _fresh(S)
        calls.clear()
        for Z in ("K", "D", "KvG", "DvG", "LI", "LG"):
            mv.mu_z(U, Z)
            for j in regular_js(U):
                mu_zj(U, j, Z)
        assert calls == [U], S.table
