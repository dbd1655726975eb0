"""Finite semigroup kernel.

Semigroups are multiplication tables over dense element indices 0..n-1.
Everything downstream (Green's relations, quotients, duals, products,
division search, the named catalog) works on this representation.
Instances are immutable after construction; derived data (Green's
structure, idempotents, each element's index, period and omega power,
canonical form, local monoids, and the mu labels, mu quotients and
membership verdicts of other modules) is computed once, when first
read, and cached on the instance it is derived from.
"""

import math
from functools import cache, cached_property
from itertools import combinations, permutations, product

from .errors import (
    BudgetExceeded,
    IncompatiblePartition,
    NonAssociative,
    NotIdempotent,
    OutOfRangeEntry,
    PreconditionViolated,
    UnknownName,
)


def _is_element(v, n):
    """Whether v is an element index of an order-n table; booleans are
    not, although bool is a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


class FiniteSemigroup:
    """A finite semigroup given by its Cayley table.

    table[x][y] is the index of the product xy.  Labels are display
    metadata only; generators, when given, record a preferred generating
    subset (checked to be elements, not validated against closure).
    """

    def __init__(self, table, labels=None, generators=None, check=True):
        table = tuple(tuple(row) for row in table)
        generators = tuple(generators) if generators is not None else None
        n = len(table)
        if check:
            if n == 0:
                raise OutOfRangeEntry("table is empty")
            if labels is not None and len(labels) != n:
                raise OutOfRangeEntry(f"{len(labels)} labels for {n} elements")
            for row in table:
                if len(row) != n:
                    raise OutOfRangeEntry("table is not square")
                for v in row:
                    if not _is_element(v, n):
                        raise OutOfRangeEntry(f"entry {v!r} out of range [0, {n})")
            for x in range(n):
                for y in range(n):
                    xy = table[x][y]
                    for z in range(n):
                        if table[xy][z] != table[x][table[y][z]]:
                            raise NonAssociative(x, y, z)
            for g in generators or ():
                if not _is_element(g, n):
                    raise OutOfRangeEntry(f"generator {g!r} out of range [0, {n})")
        self.order = n
        self.table = table
        self.labels = tuple(labels) if labels is not None else None
        self.generators = generators
        self._green = None
        self._idempotents = None
        # per element x read so far: (index, period, x^omega), see _cycle
        self._cycles = {}
        self._canon = None
        # derived semigroups, labels and verdicts, keyed by e (an int) for
        # local_monoid, Z (a str) for malcev.mu_quotient, (Z, J) with J a
        # J-class (a frozenset) for the mu_{Z,J} label vectors of malcev, and
        # V (a PseudovarietyDef) for pseudovarieties.member; the values hold
        # no reference back to self
        self._derived = {}

    def mul(self, x, y):
        return self.table[x][y]

    def prod(self, xs):
        it = iter(xs)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    def label(self, x):
        return self.labels[x] if self.labels else str(x)

    def __repr__(self):
        return f"FiniteSemigroup(order={self.order})"

    def __eq__(self, other):
        return isinstance(other, FiniteSemigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def identity(self):
        """The two-sided identity element, or None."""
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                return e
        return None

    def is_monoid(self):
        return self.identity() is not None

    def idempotents(self):
        if self._idempotents is None:
            self._idempotents = frozenset(
                e for e in range(self.order) if self.table[e][e] == e
            )
        return self._idempotents

    def power(self, x, n):
        """x^n for n >= 1 by binary exponentiation."""
        if n < 1:
            raise ValueError("power requires n >= 1")
        acc = None
        base = x
        while n:
            if n & 1:
                acc = base if acc is None else self.table[acc][base]
            base = self.table[base][base]
            n >>= 1
        return acc

    def _cycle(self, x):
        """(index i, period p, x^omega) of the cyclic subsemigroup of x,
        from one walk of x, x^2, ... until the powers repeat: x^(i+p) =
        x^i with i and p minimal, and x^omega = x^m for the multiple m of
        p in [i, i+p).  Cached per element."""
        t = self.table
        powers = []  # powers[k] = x^(k+1)
        seen = {}
        cur = x
        while cur not in seen:
            seen[cur] = len(powers)
            powers.append(cur)
            cur = t[cur][x]
        i = seen[cur] + 1
        p = len(powers) + 1 - i
        cycle = (i, p, powers[-(-i // p) * p - 1])
        self._cycles[x] = cycle
        return cycle

    def index_period(self, x):
        """(index i, period p) of the cyclic subsemigroup of x.

        x, x^2, ... x^(i-1) are distinct and x^(i+p) = x^i with p minimal.
        """
        i, p, _ = self._cycles.get(x) or self._cycle(x)
        return i, p

    def omega_power(self, x, offset=0):
        """x^(omega+offset): the limit of x^(n!+offset) in this semigroup,
        which is x^omega when the period p divides offset and x^omega
        x^(offset mod p) otherwise."""
        _, p, e = self._cycles.get(x) or self._cycle(x)
        r = offset % p
        if r == 0:
            return e
        return self.table[e][x if r == 1 else self.power(x, r)]

    def prime_omega_power(self, x, p, offset=0):
        """x^(p^omega+offset): the limit of x^(p^(n!)+offset), p prime."""
        _, per, _ = self._cycles.get(x) or self._cycle(x)
        return self.omega_power(x, _stable_prime_residue(p, per) + offset)

    def green(self):
        if self._green is None:
            self._green = _compute_green(self)
        return self._green

    def to_json_dict(self):
        d = {"order": self.order, "table": [list(row) for row in self.table]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        if self.generators is not None:
            d["generators"] = list(self.generators)
        return d

    @classmethod
    def from_json_dict(cls, d):
        sgp = from_table(d["table"], labels=d.get("labels"),
                         generators=d.get("generators"))
        if "order" in d and d["order"] != sgp.order:
            raise OutOfRangeEntry("declared order does not match table")
        return sgp


@cache
def _stable_prime_residue(p, modulus):
    """lim p^(n!) mod modulus; constant once n >= modulus."""
    if modulus == 1:
        return 0
    n = max(4, modulus)
    r1 = pow(p, math.factorial(n), modulus)
    r2 = pow(p, math.factorial(n + 1), modulus)
    while r1 != r2:  # defensive; the bound above already guarantees equality
        n += 1
        r1, r2 = r2, pow(p, math.factorial(n + 1), modulus)
    return r1


def from_table(table, labels=None, generators=None):
    """Validate a square matrix as a semigroup table."""
    return FiniteSemigroup(table, labels=labels, generators=generators, check=True)


class GreenData:
    """Green's relation data for one semigroup.

    *_class_of maps an element index to the id of its class, and every
    class is numbered in order of its least element; regular_j is the set
    of J-class ids containing an idempotent.  The partitions r_classes,
    l_classes, j_classes and h_classes (tuples of frozensets, indexed by
    class id) and the H labels h_class_of (H = R meet L) are derived from
    the label vectors on first read and kept.  J-classes are computed as
    D-classes, D = R o L, which equals J in a finite semigroup (Froidure &
    Pin, "Algorithms for computing finite semigroups", 1997; East,
    Egri-Nagy, Mitchell & Peresse, "Computing finite semigroups", JSC
    2019).  The J-order is not kept: j_order(S) computes it.
    """

    def __init__(self, r_class_of, l_class_of, j_class_of, regular_j):
        self.r_class_of = r_class_of
        self.l_class_of = l_class_of
        self.j_class_of = j_class_of
        self.regular_j = regular_j

    @cached_property
    def h_class_of(self):
        return kernel_labels(zip(self.r_class_of, self.l_class_of))

    @cached_property
    def r_classes(self):
        return classes_of(self.r_class_of)

    @cached_property
    def l_classes(self):
        return classes_of(self.l_class_of)

    @cached_property
    def j_classes(self):
        return classes_of(self.j_class_of)

    @cached_property
    def h_classes(self):
        return classes_of(self.h_class_of)


def kernel_labels(keys):
    """The kernel of x -> keys[x] as a label vector: equal keys share an
    id, and ids run in order of first occurrence, which numbers every
    class by its least element."""
    ids = {}
    return tuple([ids.setdefault(k, len(ids)) for k in keys])


def classes_of(labels):
    """The classes of a label vector as a tuple of frozensets, class c at
    index c: the one place that groups elements into classes (Green's
    relations, every Congruence)."""
    classes = [[] for _ in range(max(labels) + 1)]
    for x, c in enumerate(labels):
        classes[c].append(x)
    return tuple(map(frozenset, classes))


def least_elements(labels):
    """The least element of each class of a kernel_labels vector, in
    label order: ids run in order of first occurrence, so the first
    element carrying an id is the least of its class."""
    reps = []
    for x, c in enumerate(labels):
        if c == len(reps):
            reps.append(x)
    return reps


def _compute_green(S):
    """R and L from the principal one-sided ideals xS^1 and S^1x, and J as
    D = R o L, whose D-class of x is named by the least L-class id met by
    the R-class of x (an R-class meets every L-class of its D-class and
    no other).  O(n^2)."""
    t = S.table
    n = S.order
    r_of = kernel_labels([frozenset((x, *row)) for x, row in enumerate(t)])
    l_of = kernel_labels([frozenset((x, *col)) for x, col in enumerate(zip(*t))])
    lead = [n] * n
    for r, l in zip(r_of, l_of):
        if l < lead[r]:
            lead[r] = l
    j_of = kernel_labels([lead[r] for r in r_of])
    regular_j = frozenset(j_of[e] for e in S.idempotents())
    return GreenData(r_of, l_of, j_of, regular_j)


def j_order(S):
    """The J-order of S as the pairs (i, j) of J-class ids with J_i <= J_j,
    computed on each call from one ideal S^1 y S^1 per J-class: the union
    of the right ideals zS^1 over z in S^1 y, y the least element of the
    class."""
    t = S.table
    g = S.green()
    j_of = g.j_class_of
    cols = tuple(zip(*t))
    order = set()
    for jj, y in enumerate(least_elements(j_of)):
        below = set()
        for z in {y, *cols[y]}:
            below.add(z)
            below.update(t[z])
        order.update((j_of[z], jj) for z in below)
    return frozenset(order)


def local_monoid(S, e):
    """The local monoid eSe, as a FiniteSemigroup with identity e; cached on S."""
    M = S._derived.get(e)
    if M is None:
        if S.table[e][e] != e:
            raise NotIdempotent(f"element {e} is not idempotent")
        elems = sorted({S.table[S.table[e][x]][e] for x in range(S.order)})
        idx = {x: i for i, x in enumerate(elems)}
        table = [[idx[S.table[x][y]] for y in elems] for x in elems]
        labels = [S.label(x) for x in elems] if S.labels else None
        M = S._derived[e] = FiniteSemigroup(table, labels=labels, check=False)
    return M


def dual(S):
    """The opposite semigroup: s *_op t = t * s (transposed table)."""
    n = S.order
    table = [[S.table[y][x] for y in range(n)] for x in range(n)]
    return FiniteSemigroup(table, labels=S.labels, generators=S.generators, check=False)


def direct_product(S, T):
    n, m = S.order, T.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for (x1, y1) in product(range(n), range(m)):
        a = x1 * m + y1
        for (x2, y2) in product(range(n), range(m)):
            b = x2 * m + y2
            table[a][b] = S.table[x1][x2] * m + T.table[y1][y2]
    labels = None
    if S.labels and T.labels:
        labels = [f"({S.label(x)},{T.label(y)})" for x in range(n) for y in range(m)]
    return FiniteSemigroup(table, labels=labels, check=False)


class Congruence:
    """The kernel of x -> keys[x] on the elements of a semigroup, for any
    hashable keys: x and y share a class when keys[x] == keys[y].  class_of
    is the kernel_labels vector of the keys, so classes are numbered by
    least element; the classes themselves, frozensets, are built on first
    read and kept.  Raises IncompatiblePartition when there is not one key
    per element or, with check, when the partition is not compatible with
    multiplication."""

    def __init__(self, semigroup, keys, check=True):
        self.semigroup = semigroup
        self.class_of = kernel_labels(keys)
        if len(self.class_of) != semigroup.order:
            raise IncompatiblePartition(
                f"{len(self.class_of)} keys for {semigroup.order} elements")
        if check and not self._compatible():
            raise IncompatiblePartition("partition is not compatible with multiplication")

    @cached_property
    def classes(self):
        return classes_of(self.class_of)

    def _compatible(self):
        t = self.semigroup.table
        cof = self.class_of
        reps = least_elements(cof)
        for x, c in enumerate(cof):
            rep = reps[c]
            for y in range(self.semigroup.order):
                if cof[t[x][y]] != cof[t[rep][y]] or cof[t[y][x]] != cof[t[y][rep]]:
                    return False
        return True

    # class_of determines the partition, and the partition determines it
    def __eq__(self, other):
        return isinstance(other, Congruence) and self.class_of == other.class_of

    def __hash__(self):
        return hash(self.class_of)

    def __len__(self):
        return max(self.class_of) + 1

    def is_identity(self):
        return len(self) == self.semigroup.order


def identity_congruence(S):
    return Congruence(S, range(S.order), check=False)


def congruence_from_pairs(S, pairs):
    """Smallest congruence containing the given element pairs."""
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
    return Congruence(S, [find(x) for x in range(S.order)], check=False)


def quotient(S, cong):
    """The quotient semigroup S/cong: class c is element c, and classes
    multiply via their least elements."""
    if cong.semigroup is not S and cong.semigroup.table != S.table:
        raise IncompatiblePartition("congruence belongs to a different semigroup")
    cof = cong.class_of
    reps = least_elements(cof)
    table = [[cof[S.table[x][y]] for y in reps] for x in reps]
    labels = None
    if S.labels:
        labels = ["{" + ",".join(S.label(x) for x in sorted(c)) + "}" for c in cong.classes]
    return FiniteSemigroup(table, labels=labels, check=False)


def adjoin_identity(S):
    """S^I: a fresh identity is adjoined unconditionally."""
    n = S.order
    table = [list(row) + [x] for x, row in enumerate(S.table)]
    table.append(list(range(n + 1)))
    labels = (list(S.labels) + ["I"]) if S.labels else None
    return FiniteSemigroup(table, labels=labels, check=False)


def adjoin_identity_if_missing(S):
    """S^1: adjoin an identity only when S is not already a monoid."""
    return S if S.is_monoid() else adjoin_identity(S)


CLOSURE_BUDGET = 4096
DIVIDES_BUDGET = 200_000  # assignments |T|^m tried by divides
WREATH_BUDGET = 200_000  # elements of a wreath product


def closure(gens, mul):
    """The elements generated by `gens` under the associative product
    `mul`, as (elements, index) with index[e] the position of e.

    The order is breadth-first: the distinct generators first, then each
    element in turn multiplied on both sides against every element known
    at that point.  Raises BudgetExceeded past CLOSURE_BUDGET elements."""
    elems = []
    index = {}

    def add(e):
        if e not in index:
            if len(elems) >= CLOSURE_BUDGET:
                raise BudgetExceeded(f"closure exceeds {CLOSURE_BUDGET} elements")
            index[e] = len(elems)
            elems.append(e)

    for g in gens:
        add(g)
    for x in elems:  # the list grows while iterated: it is the queue
        for y in elems[:]:
            add(mul(x, y))
            add(mul(y, x))
    return elems, index


def cayley(elems, index, mul):
    """The multiplication table of `elems` under `mul`, reindexed by `index`."""
    return [[index[mul(x, y)] for y in elems] for x in elems]


def generate(ambient, subset):
    """Subsemigroup of `ambient` generated by `subset`, reindexed."""
    subset = list(subset)
    if not subset:
        raise ValueError("generate requires a nonempty subset")
    elems = sorted(closure(subset, ambient.mul)[0])
    idx = {x: i for i, x in enumerate(elems)}
    labels = [ambient.label(x) for x in elems] if ambient.labels else None
    gens = [idx[x] for x in subset]
    return FiniteSemigroup(cayley(elems, idx, ambient.mul), labels=labels,
                           generators=gens, check=False)


def minimal_generating_set(S):
    """A smallest generating subset (exhaustive over sizes; order <= ~8)."""
    n = S.order
    # Elements that are not products must belong to every generating set.
    products = {S.table[x][y] for x in range(n) for y in range(n)}
    forced = [x for x in range(n) if x not in products]

    def closes(gens):
        return len(closure(gens, S.mul)[0]) == n

    rest = [x for x in range(n) if x not in forced]
    if closes(forced):
        return tuple(forced)
    for k in range(1, len(rest) + 1):
        for extra in combinations(rest, k):
            if closes(forced + list(extra)):
                return tuple(forced + list(extra))
    return tuple(range(n))


def extends_to_homomorphism(A, B, pairs):
    """Whether the map a_i -> b_i, for (a_i, b_i) in `pairs`, extends to a
    homomorphism from the subsemigroup of A generated by the a_i into B.

    The pair closure {(a_i, b_i)} is grown inside A x B; the map extends
    iff the closure stays functional in its first coordinate."""
    image = {}
    for a, b in pairs:
        if image.setdefault(a, b) != b:
            return False
    frontier = list(image.items())
    while frontier:
        new = []
        items = list(image.items())
        for (a1, b1) in frontier:
            for (a2, b2) in items:
                for (ap, bp) in ((A.table[a1][a2], B.table[b1][b2]),
                                 (A.table[a2][a1], B.table[b2][b1])):
                    prev = image.get(ap)
                    if prev is None:
                        image[ap] = bp
                        new.append((ap, bp))
                    elif prev != bp:
                        return False
        frontier = new
    return True


def divides(S, T):
    """Whether S divides T: some subsemigroup of T maps onto S, i.e. some
    assignment of T-elements to a generating tuple of S extends to a
    homomorphism."""
    if S.order > T.order:
        return False
    gens = minimal_generating_set(S)
    m = len(gens)
    if T.order ** m > DIVIDES_BUDGET:
        raise BudgetExceeded(f"divides search |T|^{m} = {T.order ** m} exceeds "
                             f"{DIVIDES_BUDGET}")
    return any(extends_to_homomorphism(T, S, zip(tup, gens))
               for tup in product(range(T.order), repeat=m))


def wreath_mul(T, D, x, y):
    """The product of two elements of T wr D (see wreath_product):
    (f, d)(g, e) = (h, de) with h(s) = f(s) g(sd), where f, g are tuples
    over the states of D^I and the adjoined identity is state |D|."""
    (f, d), (g, e) = x, y
    nd = D.order
    h = tuple(T.table[f[s]][g[d if s == nd else D.table[s][d]]]
              for s in range(nd + 1))
    return (h, D.table[d][e])


def wreath_product(T, D):
    """The wreath product T^(D^I) x| D, with D acting by right translation.

    Elements are pairs (f, d) with f a function D^I -> T, multiplied by
    wreath_mul.  The identity I is always adjoined to the action set,
    matching the size bound |T|^(|D|+1) * |D|.
    """
    nd = D.order
    order = (T.order ** (nd + 1)) * nd
    if order > WREATH_BUDGET:
        raise BudgetExceeded(f"wreath product order {order} exceeds {WREATH_BUDGET}")
    elems = [(f, d) for f in product(range(T.order), repeat=nd + 1) for d in range(nd)]
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[wreath_mul(T, D, x, y)] for y in elems] for x in elems]
    return FiniteSemigroup(table, check=False)


def congruences(S):
    """All congruences of S, by number of classes and then by classes:
    the identity congruence and the closure of the principal congruences
    under join (every congruence is a join of principal ones)."""
    if S.order > CONGRUENCE_MAX_ORDER:
        raise BudgetExceeded(f"congruence search on order {S.order} exceeds "
                             f"{CONGRUENCE_MAX_ORDER}")

    def join(c1, c2):
        pairs = [(min(cls), x) for cls in c1.classes + c2.classes for x in cls]
        return congruence_from_pairs(S, pairs)

    principal = [congruence_from_pairs(S, [(a, b)])
                 for a in range(S.order) for b in range(a + 1, S.order)]
    found = set(closure(principal, join)[0])
    found.add(identity_congruence(S))
    yield from sorted(found, key=lambda c: (len(c), [sorted(cls) for cls in c.classes]))


CONGRUENCE_MAX_ORDER = 10
CANON_MAX_ORDER = 8


def canonical_form(table):
    """Lexicographically minimal flattened table over all relabelings."""
    n = len(table)
    if n > CANON_MAX_ORDER:
        raise BudgetExceeded(f"canonical form search on order {n}")
    best = None
    for perm in permutations(range(n)):
        inv = _inverse(perm)
        rows = [table[x] for x in inv]
        flat = tuple(perm[row[y]] for row in rows for y in inv)
        if best is None or flat < best:
            best = flat
    return best


def canonical_table(S):
    """The canonical form of S's table, cached on S."""
    if S._canon is None:
        S._canon = canonical_form(S.table)
    return S._canon


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def is_isomorphic(S, T):
    return S.order == T.order and canonical_table(S) == canonical_table(T)


def is_anti_isomorphic(S, T):
    return S.order == T.order and canonical_table(S) == canonical_table(dual(T))


# ---------------------------------------------------------------------------
# Named catalog


def _b2():
    # Matrix-unit presentation: a=E12, b=E21, ab=E11, ba=E22, 0.
    a, b, ab, ba, z = 0, 1, 2, 3, 4
    t = [[z] * 5 for _ in range(5)]
    t[a][b] = ab
    t[a][ba] = a
    t[b][a] = ba
    t[b][ab] = b
    t[ab][a] = a
    t[ab][ab] = ab
    t[ba][b] = b
    t[ba][ba] = ba
    return FiniteSemigroup(t, labels=["a", "b", "ab", "ba", "0"],
                           generators=[a, b], check=True)


def _u1():
    return FiniteSemigroup([[0, 0], [0, 1]], labels=["0", "1"], check=False)


def _cyclic(n):
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    return FiniteSemigroup(table, labels=[f"g{x}" for x in range(n)],
                           generators=[1 % n], check=False)


def _left_zero(n):
    return FiniteSemigroup([[x] * n for x in range(n)], check=False)


def _right_zero(n):
    return FiniteSemigroup([list(range(n)) for _ in range(n)], check=False)


def _null(n):
    # All products equal the zero element 0.
    return FiniteSemigroup([[0] * n for _ in range(n)], check=False)


def _free_band_2():
    # Free idempotent semigroup on {a, b}: a, b, ab, ba, aba, bab.
    words = ["a", "b", "ab", "ba", "aba", "bab"]

    def normal(w):
        out = []
        for ch in w:
            if not out or out[-1] != ch:
                out.append(ch)
        w = "".join(out)
        while len(w) > 3:
            w = w[:-2]  # (xy)x(yx)... collapses; length <= 3 suffices on 2 letters
        return w

    idx = {w: i for i, w in enumerate(words)}
    table = [[idx[normal(u + v)] for v in words] for u in words]
    return FiniteSemigroup(table, labels=words, generators=[0, 1], check=True)


def _words_upto(letters, k):
    out = []
    for ln in range(1, k + 1):
        out.extend("".join(w) for w in product(letters, repeat=ln))
    return out


# The free objects of Sl, K_k, D_k and N_k on an alphabet.  An element is
# the value of a nonempty word under one of four rules (the kind); words
# may be strings or tuples of letters.

FREE_ZERO = "0"


def free_value(kind, word, k):
    """The element of the free object represented by a nonempty word: its
    content ("content", Sl), its length-<=k prefix ("prefix", K_k) or
    suffix ("suffix", D_k), or the word itself while shorter than k and
    the zero otherwise ("bounded_word", N_k)."""
    if kind == "content":
        return frozenset(word)
    if kind == "prefix":
        return word[:k]
    if kind == "suffix":
        return word[-k:]
    return word if len(word) < k else FREE_ZERO


def free_mul(kind, x, y, k):
    """The product of two elements given by free_value."""
    if kind == "content":
        return x | y
    if kind == "bounded_word" and FREE_ZERO in (x, y):
        return FREE_ZERO
    return free_value(kind, x + y, k)


def _free_object(kind, k, letters):
    if k < 1:
        raise ValueError(f"free objects need k >= 1, got {k}")
    bounded = kind == "bounded_word"
    if bounded and FREE_ZERO in letters:
        raise PreconditionViolated(f"letter {FREE_ZERO!r} is the label of the zero")
    words = _words_upto(letters, k - 1 if bounded else k)
    if bounded:
        words.append(FREE_ZERO)
    idx = {w: i for i, w in enumerate(words)}
    table = [[idx[free_mul(kind, u, v, k)] for v in words] for u in words]
    gens = [idx[FREE_ZERO]] if bounded and k == 1 else [idx[a] for a in letters]
    return FiniteSemigroup(table, labels=words, generators=gens, check=False)


def free_d(k, letters):
    """Free object of D_k on the given letters: words of length <= k
    multiplying by u.v = suffix_k(uv)."""
    return _free_object("suffix", k, letters)


def free_k(k, letters):
    """Free object of K_k: words of length <= k with u.v = prefix_k(uv)."""
    return _free_object("prefix", k, letters)


def free_n(k, letters):
    """Free object of N_k = K_k meet D_k: words of length < k plus a zero
    absorbing every longer product."""
    return _free_object("bounded_word", k, letters)


_CATALOG = {
    "trivial": lambda: _cyclic(1),
    "B2": _b2,
    "B2_1": lambda: adjoin_identity(_b2()),
    "U1": _u1,
    "cyclic": _cyclic,
    "left_zero": _left_zero,
    "right_zero": _right_zero,
    "null": _null,
    "free_band_2": _free_band_2,
    "free_d": free_d,
    "free_k": free_k,
    "free_n": free_n,
}


def catalog(name, *args):
    """Named test semigroups: B2, B2_1, U1, cyclic(n), left_zero(n),
    right_zero(n), null(n), free_band_2, free_d(k, letters),
    free_k(k, letters), free_n(k, letters)."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown catalog name {name!r}") from None
    if name in ("free_d", "free_k", "free_n"):
        k, letters = args
        if len(letters) > 3 or k > 4:
            raise BudgetExceeded("free objects limited to <= 3 letters, k <= 4")
        return builder(k, letters)
    return builder(*args)
