import math
from functools import cached_property, partial
from itertools import product
from types import SimpleNamespace

import pytest

from finsemi import semigroups as sg
from finsemi.errors import (
    BudgetExceeded,
    IncompatiblePartition,
    NonAssociative,
    NotIdempotent,
    OutOfRangeEntry,
    PreconditionViolated,
    UnknownName,
)


def times(S):
    """The product of S as a function of two elements."""
    return lambda x, y: S.table[x][y]


def brute_right_ideal(S, x):
    return {x} | {S.table[x][s] for s in range(S.order)}


def test_from_table_trivial():
    S = sg.FiniteSemigroup([[0]])
    assert S.order == 1
    assert S.idempotents() == {0}


def test_from_table_u1():
    S = sg.catalog("U1")
    assert S.order == 2
    assert S.idempotents() == {0, 1}
    assert all(S.table[x][y] == S.table[y][x] for x in range(2) for y in range(2))


def test_from_table_rejects_non_associative():
    # x*y = x except 1*1 = 0 breaks (1*1)*1 = 0 vs 1*(1*1) = 1
    with pytest.raises(NonAssociative) as ei:
        sg.FiniteSemigroup([[0, 0], [1, 0]])
    assert len(ei.value.witness) == 3


def test_from_table_rejects_out_of_range():
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup([[0, 2], [0, 1]])
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup.from_json_dict({"table": [[0]], "generators": [7]})
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup.from_json_dict({"table": [[0, 0], [0, 1]], "labels": ["a"]})
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup([[0]], labels=["a", "b"])
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup.from_json_dict({"table": []})
    # bool is a subclass of int, but true/false are not element indices
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup.from_json_dict({"table": [[False]]})
    with pytest.raises(OutOfRangeEntry):
        sg.FiniteSemigroup.from_json_dict({"table": [[0, 1], [1, 0]],
                                           "generators": [True]})


def test_b2_relations():
    B2 = sg.catalog("B2")
    a, b, ab, ba, z = range(5)
    assert B2.table[B2.table[a][b]][a] == a
    assert B2.table[B2.table[b][a]][b] == b
    assert B2.table[a][a] == z
    assert B2.table[b][b] == z
    assert B2.idempotents() == {ab, ba, z}


def _powers_by_multiplication(S, x, length):
    """[None, x, x^2, ..., x^length], each power one multiplication by x
    from the last."""
    seq = [None, x]
    while len(seq) <= length:
        seq.append(S.table[seq[-1]][x])
    return seq


def test_powers_match_repeated_multiplication():
    # In an order-n semigroup index + period <= n + 1 and the period
    # divides lcm(1..n), so x^(omega+q) = x^(big+q) for a multiple big of
    # the lcm with big - 4 >= n, and x^(p^omega+q) = x^(big+r+q) for r
    # the stable value of p^(m!) mod the lcm.
    from finsemi.corpus import all_semigroups_upto
    from finsemi.pseudovarieties import _two_idempotent_monster
    semigroups = [*all_semigroups_upto(5), *(sg.catalog("cyclic", n) for n in range(1, 13)),
                  sg.catalog("B2"), sg.catalog("B2_1"), sg.catalog("free_band_2"),
                  _two_idempotent_monster()]
    for S in semigroups:
        n = S.order
        lcm = math.lcm(*range(1, n + 1))
        big = lcm * -(-(n + 4) // lcm)
        residue = {}
        for prime in (2, 3, 5):
            stable = {pow(prime, math.factorial(m), lcm) for m in (n + 8, n + 9)}
            assert len(stable) == 1, "oracle exponent not yet stable"
            residue[prime] = stable.pop()
        for x in range(n):
            seq = _powers_by_multiplication(S, x, big + lcm + 4)
            i = next(k for k in range(1, n + 2) if seq[k] in seq[k + 1:n + 2])
            p = seq[i + 1:].index(seq[i]) + 1
            assert S.index_period(x) == (i, p), (S.table, x)
            top = 3 * (i + p)
            assert [S.power(x, k) for k in range(1, top + 1)] == seq[1:top + 1]
            for q in range(-4, 5):
                assert S.omega_power(x, q) == seq[big + q], (S.table, x, q)
            for prime in (2, 3, 5):
                for q in range(-2, 3):
                    assert S.prime_omega_power(x, prime, q) == \
                        seq[big + residue[prime] + q], (S.table, x, prime, q)


def test_powers_in_a_large_cyclic_group():
    # Z/997 written additively: x^k = kx, every x != 0 has index 1 and
    # period 997, and omega + q and p^omega + q act as q and r + q for
    # r = p^(997!) mod 997
    n = 997
    S = sg.catalog("cyclic", n)
    residue = {prime: pow(prime, math.factorial(n), n) for prime in (2, 3, 5)}
    for x in range(n):
        assert S.index_period(x) == (1, n if x else 1)
        for k in (1, 2, 3, 996, 997, 998, 10**6 + 7):
            assert S.power(x, k) == k * x % n
        for q in range(-4, 5):
            assert S.omega_power(x, q) == q * x % n
        for prime, r in residue.items():
            for q in range(-2, 3):
                assert S.prime_omega_power(x, prime, q) == (r + q) * x % n


def test_green_b2():
    B2 = sg.catalog("B2")
    g = B2.green()
    assert len(g.j_classes) == 2
    sizes = sorted(len(c) for c in g.j_classes)
    assert sizes == [1, 4]
    big = next(c for c in g.j_classes if len(c) == 4)
    assert big == {0, 1, 2, 3}
    # both J-classes of B2 are regular
    assert len(g.regular_j) == 2
    # R-classes inside the big class: {a, ab}, {b, ba}
    rs = sorted(sorted(c) for c in g.r_classes if len(c) == 2)
    assert rs == [[0, 2], [1, 3]]
    ls = sorted(sorted(c) for c in g.l_classes if len(c) == 2)
    assert ls == [[0, 3], [1, 2]]


def test_green_group_single_class():
    C6 = sg.catalog("cyclic", 6)
    g = C6.green()
    assert len(g.j_classes) == len(g.r_classes) == len(g.l_classes) == len(g.h_classes) == 1


def test_green_u1_two_singletons():
    g = sg.catalog("U1").green()
    assert len(g.j_classes) == 2
    assert all(len(c) == 1 for c in g.j_classes)


def test_green_h_is_r_meet_l():
    for S in [sg.catalog("B2"), sg.catalog("B2_1"), sg.catalog("free_band_2")]:
        g = S.green()
        for x in range(S.order):
            for y in range(S.order):
                same_h = g.h_class_of[x] == g.h_class_of[y]
                assert same_h == (g.r_class_of[x] == g.r_class_of[y]
                                  and g.l_class_of[x] == g.l_class_of[y])


def test_idempotents_left_zero():
    S = sg.catalog("left_zero", 3)
    assert S.idempotents() == {0, 1, 2}


def test_local_monoid_b2():
    B2 = sg.catalog("B2")
    M = sg.local_monoid(B2, 2)  # e = ab
    assert M.order == 2
    assert sg.is_isomorphic(M, sg.catalog("U1"))


def test_local_monoid_of_monoid_at_identity():
    M = sg.catalog("B2_1")
    e = M.identity()
    assert sg.local_monoid(M, e).order == M.order


def test_local_monoid_rejects_non_idempotent():
    B2 = sg.catalog("B2")
    with pytest.raises(NotIdempotent):
        sg.local_monoid(B2, 0)


def test_dual_involution_and_left_right_zero():
    for name in ["B2", "U1", "free_band_2"]:
        S = sg.catalog(name)
        assert sg.dual(sg.dual(S)).table == S.table
    assert sg.dual(sg.catalog("left_zero", 2)).table == sg.catalog("right_zero", 2).table


def test_dual_b2_self_anti_isomorphic():
    B2 = sg.catalog("B2")
    assert sg.is_isomorphic(sg.dual(B2), B2)
    lz, rz = sg.catalog("left_zero", 2), sg.catalog("right_zero", 2)
    assert sg.is_isomorphic(lz, sg.dual(rz))
    assert not sg.is_isomorphic(lz, rz)


def test_green_of_dual_swaps_r_and_l():
    for name in ["B2", "free_band_2"]:
        S = sg.catalog(name)
        g = S.green()
        gd = sg.dual(S).green()
        assert set(g.r_classes) == set(gd.l_classes)
        assert set(g.l_classes) == set(gd.r_classes)
        assert set(g.j_classes) == set(gd.j_classes)
        assert set(g.h_classes) == set(gd.h_classes)


def direct_product(S, T):
    """S x T, the pair (x, y) numbered x |T| + y."""
    n, m = S.order, T.order
    table = [[S.table[x1][x2] * m + T.table[y1][y2]
              for x2 in range(n) for y2 in range(m)]
             for x1 in range(n) for y1 in range(m)]
    return sg.FiniteSemigroup(table, check=False)


def test_direct_product_u1_u1():
    P = direct_product(sg.catalog("U1"), sg.catalog("U1"))
    assert P.order == 4
    assert len(P.idempotents()) == 4


def test_adjoin_identity():
    L2 = sg.catalog("left_zero", 2)
    M = sg.adjoin_identity(L2)
    assert M.order == 3
    assert M.identity() == 2
    # one is adjoined even to a monoid
    assert sg.adjoin_identity(M).order == 4


# The congruence lattice, by closing the principal congruences under join:
# the oracle of malcev.mu_witness, which reads the one congruence mu_Z.


def congruence_from_pairs(S, pairs):
    """The label vector of the smallest congruence of S containing the
    given element pairs."""
    parent = list(range(S.order))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    queue = [p for p in pairs if union(*p)]
    while queue:
        x, y = queue.pop()
        for s in range(S.order):
            for a, b in ((S.table[s][x], S.table[s][y]), (S.table[x][s], S.table[y][s])):
                if find(a) != find(b):
                    union(a, b)
                    queue.append((a, b))
    return sg.kernel_labels([find(x) for x in range(S.order)])


def congruences(S):
    """The label vectors of all congruences of S, by number of classes and
    then by classes: the identity congruence and the closure of the
    principal congruences under join (every congruence is a join of
    principal ones)."""
    n = S.order

    def join(a, b):
        pairs = []
        for lab in (a, b):
            reps = sg.least_elements(lab)
            pairs += [(reps[c], x) for x, c in enumerate(lab)]
        return congruence_from_pairs(S, pairs)

    principal = [congruence_from_pairs(S, [(a, b)])
                 for a in range(n) for b in range(a + 1, n)]
    found = {tuple(range(n)), *sg.closure(principal, join)[0]}
    return sorted(found, key=lattice_order)


def lattice_order(labels):
    """The sort key of congruences: number of classes, then the classes."""
    classes = sg.classes_of(labels)
    return len(classes), [sorted(c) for c in classes]


def test_quotient_by_identity_congruence():
    B2 = sg.catalog("B2")
    Q = sg.quotient(B2, tuple(range(B2.order)))
    assert Q.table == B2.table


def test_quotient_is_homomorphic_image():
    B2 = sg.catalog("B2")
    cof = congruence_from_pairs(B2, [(0, 1)])
    Q = sg.quotient(B2, cof)
    for x in range(B2.order):
        for y in range(B2.order):
            assert Q.table[cof[x]][cof[y]] == cof[B2.table[x][y]]
    assert Q.order == len(sg.classes_of(cof))


def test_incompatible_partition_rejected():
    # {a, b} is no congruence class of B2: a b = ab, but b b = 0
    assert not sg.is_congruence(sg.catalog("B2"), [0, 0, 1, 2, 3])


def test_is_congruence_accepts_the_whole_lattice():
    from finsemi import corpus as cp
    for S in (sg.catalog("B2"),) + cp.all_semigroups_upto(3):
        for labels in congruences(S):
            assert sg.is_congruence(S, labels), (S.table, labels)


def test_congruence_classes_numbered_by_least_element():
    # tuple keys holding None, as the mu kernels pass them
    keys = [(1, None), (None, 2), (1, None), (0, None), (None, 2)]
    labels = sg.kernel_labels(keys)
    assert labels == (0, 1, 0, 2, 1)
    assert sg.classes_of(labels) == (frozenset({0, 2}), frozenset({1, 4}), frozenset({3}))


def test_congruence_needs_one_key_per_element():
    B2 = sg.catalog("B2")
    for labels in ([0, 0, 0, 0], range(6)):
        with pytest.raises(IncompatiblePartition):
            sg.quotient(B2, labels)


def test_generate_b2_from_a_b():
    B2 = sg.catalog("B2")
    elems, index = sg.closure([0, 1], times(B2))
    U = sg.FiniteSemigroup(sg.cayley(elems, index, times(B2)))
    assert U.order == 5
    assert sg.is_isomorphic(U, B2)


def test_congruences_trivial_and_u1():
    T = sg.catalog("trivial")
    assert len(congruences(T)) == 1
    U1 = sg.catalog("U1")
    assert len(congruences(U1)) == 2


def test_congruences_b2_against_brute_force():
    B2 = sg.catalog("B2")

    def all_partitions(items):
        items = list(items)
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in all_partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] | {first}] + part[i + 1:]
            yield [{first}] + part

    count = 0
    for part in all_partitions(range(5)):
        cof = {}
        for ci, cls in enumerate(part):
            for x in cls:
                cof[x] = ci
        ok = all(
            cof[B2.table[x][y]] == cof[B2.table[xp][yp]]
            for x in range(5) for xp in range(5) if cof[x] == cof[xp]
            for y in range(5) for yp in range(5) if cof[y] == cof[yp]
        )
        assert sg.is_congruence(B2, sg.kernel_labels(map(cof.get, range(5)))) == ok, part
        if ok:
            count += 1
    assert len(congruences(B2)) == count


def test_congruences_in_canonical_order():
    from finsemi import corpus as cp
    for S in (sg.catalog("B2"),) + cp.all_semigroups_upto(3):
        keys = [lattice_order(labels) for labels in congruences(S)]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:])), S.table


def test_closure_order_index_and_closedness():
    B2 = sg.catalog("B2")
    gens = [1, 0, 1, 0]
    elems, index = sg.closure(gens, times(B2))
    assert elems[:2] == [1, 0]  # distinct generators first, in order
    assert sorted(elems) == list(range(5))
    assert all(index[e] == i for i, e in enumerate(elems))
    assert len(index) == len(elems)
    for x in elems:
        for y in elems:
            assert B2.table[x][y] in index
    # a subsemigroup: the idempotent ab alone closes at once
    assert sg.closure([2], times(B2)) == ([2], {2: 0})
    assert sg.closure([], times(B2)) == ([], {})


def test_closure_budget_bounds_every_caller(monkeypatch):
    from finsemi import languages as lg
    B2 = sg.catalog("B2")
    monkeypatch.setattr(sg, "CLOSURE_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        sg.closure([0, 1], times(B2))
    with pytest.raises(BudgetExceeded):
        lg.syntactic_semigroup(lg.parse_regex("(ab)+"))


def wreath_product(T, D):
    """The wreath product T wr D, its elements (f, d) with f a function
    D^I -> T multiplied by sg.wreath_mul: |T|^(|D|+1) |D| elements."""
    elems = [(f, d) for f in product(range(T.order), repeat=D.order + 1)
             for d in range(D.order)]
    index = {e: i for i, e in enumerate(elems)}
    return sg.FiniteSemigroup(sg.cayley(elems, index, partial(sg.wreath_mul, T, D)),
                              check=False)


def test_wreath_trivial_by_trivial():
    T = sg.catalog("trivial")
    W = wreath_product(T, T)
    assert W.order == 1


def test_wreath_size_formula():
    U1 = sg.catalog("U1")
    D1a = sg.catalog("free_d", 1, "a")
    W = wreath_product(U1, D1a)
    assert W.order == (2 ** 2) * 1


def test_wreath_u1_d1_contains_b2():
    # B2 divides U1 wr (free D_1 on two letters): it is the Rees quotient
    # U / U^1 z U^1 of a subsemigroup U on two generators
    U1 = sg.catalog("U1")
    D = sg.catalog("free_d", 1, "ab")
    W = wreath_product(U1, D)
    assert W.order == (2 ** 3) * 2

    def rees_quotients(gens):
        elems, index = sg.closure(gens, times(W))
        U = sg.FiniteSemigroup(sg.cayley(elems, index, times(W)))
        for z in range(U.order):
            ideal = {z, *U.table[z]}
            ideal |= {U.table[s][x] for x in ideal for s in range(U.order)}
            labels = sg.kernel_labels([-1 if x in ideal else x for x in range(U.order)])
            assert sg.is_congruence(U, labels)
            yield sg.quotient(U, labels)

    B2 = sg.catalog("B2")
    assert any(sg.is_isomorphic(Q, B2)
               for gens in product(range(W.order), repeat=2)
               for Q in rees_quotients(gens))


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        sg.catalog("nope")


def test_catalog_free_d1_is_right_zero():
    D = sg.catalog("free_d", 1, "ab")
    assert D.order == 2
    assert D.table == sg.catalog("right_zero", 2).table


def test_catalog_free_k_free_n():
    K2 = sg.catalog("free_k", 2, "ab")
    assert K2.order == 6
    N2 = sg.catalog("free_n", 2, "ab")
    assert N2.order == 3  # a, b, 0
    assert N2.table[0][1] == 2


@pytest.mark.parametrize("name", ["free_d", "free_k", "free_n"])
@pytest.mark.parametrize("k", [0, -1])
def test_catalog_free_objects_need_positive_k(name, k):
    with pytest.raises(ValueError, match=f"k >= 1, got {k}"):
        sg.catalog(name, k, "ab")


def test_canonical_form_idempotent_under_relabeling():
    B2 = sg.catalog("B2")
    perm = [2, 0, 4, 1, 3]
    inv = sg._inverse(perm)
    relabeled = sg.FiniteSemigroup(
        [[perm[B2.table[inv[x]][inv[y]]] for y in range(5)] for x in range(5)]
    )
    assert sg.canonical_table(relabeled) == sg.canonical_table(B2)


def test_json_round_trip():
    B2 = sg.catalog("B2")
    d = B2.to_json_dict()
    S = sg.FiniteSemigroup.from_json_dict(d)
    assert S.table == B2.table and S.labels == B2.labels


def test_local_monoid_has_identity():
    for name in ["B2", "B2_1", "free_band_2"]:
        S = sg.catalog(name)
        for e in S.idempotents():
            M = sg.local_monoid(S, e)
            assert M.is_monoid()


def catalog_semigroups():
    """Every catalog entry, the parametrized ones at small arguments."""
    out = [sg.catalog(name) for name in ("trivial", "B2", "B2_1", "U1", "free_band_2")]
    for n in (1, 2, 3, 4, 6):
        out += [sg.catalog(name, n)
                for name in ("cyclic", "left_zero", "right_zero", "null")]
    for k in (1, 2, 3):
        for letters in ("a", "ab", "abc"):
            out += [sg.catalog(name, k, letters)
                    for name in ("free_d", "free_k", "free_n")]
    return out


def _ref_partition(keys):
    """(classes, class_of) of the kernel of x -> keys[x], the classes
    sorted by least element and class_of numbering them."""
    groups = {}
    for x, k in enumerate(keys):
        groups.setdefault(k, set()).add(x)
    classes = tuple(sorted(map(frozenset, groups.values()), key=min))
    class_of = [None] * len(keys)
    for c, cls in enumerate(classes):
        for x in cls:
            class_of[x] = c
    return classes, tuple(class_of)


def _green_by_two_sided_ideals(S):
    """The reference Green computation: R, L and J by their principal
    ideals xS^1, S^1x and S^1xS^1, each built for every element, with
    every GreenData field."""
    n = S.order
    t = S.table
    rng = range(n)

    r_ideal = [frozenset({x} | {t[x][s] for s in rng}) for x in rng]
    l_ideal = [frozenset({x} | {t[s][x] for s in rng}) for x in rng]
    j_ideal = []
    for x in rng:
        two = {x}
        two.update(t[x][s] for s in rng)
        two.update(t[s][x] for s in rng)
        for s in rng:
            xs = t[s][x]
            two.update(t[xs][u] for u in rng)
        j_ideal.append(frozenset(two))

    r_classes, r_of = _ref_partition(r_ideal)
    l_classes, l_of = _ref_partition(l_ideal)
    j_classes, j_of = _ref_partition(j_ideal)
    h_classes, h_of = _ref_partition(list(zip(r_of, l_of)))

    regular_j = frozenset(j_of[e] for e in S.idempotents())
    return SimpleNamespace(
        r_classes=r_classes, l_classes=l_classes, j_classes=j_classes,
        h_classes=h_classes, regular_j=regular_j,
        r_class_of=r_of, l_class_of=l_of, j_class_of=j_of, h_class_of=h_of)


def product_tables(seed, count, orders=range(5, 17)):
    """A seeded sample of direct products of order-<=4 corpus members,
    each of an order in `orders`, as fresh instances."""
    import random
    from finsemi.corpus import all_semigroups_upto
    rng = random.Random(seed)
    corpus = all_semigroups_upto(4)
    out = []
    while len(out) < count:
        S, T = rng.choice(corpus), rng.choice(corpus)
        if S.order * T.order in orders:
            P = direct_product(S, T)
            out.append(sg.FiniteSemigroup(P.table, check=False))
    return out


def green_test_semigroups():
    from finsemi.corpus import all_semigroups_upto
    return [*all_semigroups_upto(4), *catalog_semigroups(), *product_tables(0, 150)]


def test_green_invariants():
    # R and L refine J, and a regular J-class has an idempotent in every
    # one of its R-classes; checked on the library's Green computation and
    # on the reference one
    for S in green_test_semigroups():
        for g in (S.green(), _green_by_two_sided_ideals(S)):
            for x in range(S.order):
                for y in range(S.order):
                    if (g.r_class_of[x] == g.r_class_of[y]
                            or g.l_class_of[x] == g.l_class_of[y]):
                        assert g.j_class_of[x] == g.j_class_of[y], S.table
            for rcls in g.r_classes:
                if g.j_class_of[min(rcls)] in g.regular_j:
                    assert rcls & S.idempotents(), S.table


GREEN_FIELDS = ("r_classes", "l_classes", "j_classes", "h_classes", "regular_j",
                "r_class_of", "l_class_of", "j_class_of", "h_class_of")


def test_green_matches_the_two_sided_ideal_reference():
    # every field equal, class numbering and the fields derived on read
    # included
    from finsemi.corpus import all_semigroups_upto
    for S in [*all_semigroups_upto(5), *catalog_semigroups(),
              *product_tables(1, 1500)]:
        g, want = sg._compute_green(S), _green_by_two_sided_ideals(S)
        derived = {name for name, v in vars(sg.GreenData).items()
                   if isinstance(v, cached_property)}
        assert set(vars(g)) | derived == set(GREEN_FIELDS)
        assert {f: getattr(g, f) for f in GREEN_FIELDS} == \
            {f: getattr(want, f) for f in GREEN_FIELDS}, S.table


@pytest.mark.parametrize("name, v", [("free_d", "D"), ("free_k", "K"), ("free_n", "N")])
@pytest.mark.parametrize("k, letters", [(1, "ab"), (1, "abc"), (2, "ab"), (2, "abc"),
                                        (3, "ab")])
def test_catalog_free_objects_are_free(name, v, k, letters):
    from finsemi.pseudovarieties import member
    S = sg.catalog(name, k, letters)
    assert member(S, f"{v}_{k}")
    assert len(sg.closure(S.generators, times(S))[0]) == S.order
    sizes = [len(letters) ** i for i in range(1, k + 1)]
    expected = sum(sizes[:-1]) + 1 if name == "free_n" else sum(sizes)
    assert S.order == expected


def test_free_n_rejects_the_zero_label_as_a_letter():
    with pytest.raises(PreconditionViolated):
        sg.catalog("free_n", 2, "0a")
    assert sg.catalog("free_n", 2, "ba").labels == ("b", "a", sg.FREE_ZERO)


def test_wreath_fold_matches_the_table():
    import random
    from functools import reduce
    rng = random.Random(3)
    cases = [(sg.catalog("U1"), sg.catalog("free_d", 1, "ab")),
             (sg.catalog("U1"), sg.catalog("free_d", 1, "abc")),
             (sg.catalog("cyclic", 3), sg.catalog("free_d", 1, "ab")),
             (sg.catalog("left_zero", 2), sg.catalog("U1")),
             (sg.catalog("B2"), sg.catalog("free_d", 1, "a"))]
    for T, D in cases:
        W = wreath_product(T, D)
        elems = [(f, d) for f in product(range(T.order), repeat=D.order + 1)
                 for d in range(D.order)]
        index = {e: i for i, e in enumerate(elems)}
        for _ in range(50):
            gens = [rng.choice(elems) for _ in range(3)]
            word = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
            folded = reduce(lambda x, y: sg.wreath_mul(T, D, x, y),
                            (gens[a] for a in word))
            assert index[folded] == reduce(times(W), (index[gens[a]] for a in word))


def test_corpus_canonical_forms_survive_relabeling():
    import random
    from finsemi.corpus import all_semigroups_upto
    rng = random.Random(11)
    for S in all_semigroups_upto(4):
        n = S.order
        perm = list(range(n))
        rng.shuffle(perm)
        inv = sg._inverse(perm)
        relabeled = [[perm[S.table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
        flat = tuple(v for row in S.table for v in row)
        assert sg.canonical_form(relabeled) == flat
        assert sg.canonical_table(sg.FiniteSemigroup(relabeled)) == flat
