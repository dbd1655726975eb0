"""Finite semigroup kernel.

Semigroups are multiplication tables over dense element indices 0..n-1.
Everything downstream (Green's relations, quotients, duals, the named
catalog) works on this representation.
Instances are immutable after construction; derived data (Green's
structure, idempotents, each element's index, period and omega power,
canonical form, local monoids, and the mu labels, mu quotients and
membership verdicts of other modules) is computed once, when first
read, and cached on the instance it is derived from.
"""

import math
from functools import cache, cached_property
from itertools import permutations, product

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
        # J-class (a frozenset) for the mu_{Z,J} label vectors of malcev,
        # ("generating", k) for generating_tuples, and V (a
        # PseudovarietyDef) for pseudovarieties.member; the values hold no
        # reference back to self
        self._derived = {}

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
        sgp = cls(d["table"], labels=d.get("labels"), generators=d.get("generators"))
        if "order" in d and d["order"] != sgp.order:
            raise OutOfRangeEntry("declared order does not match table")
        return sgp


@cache
def _stable_prime_residue(p, modulus):
    """lim p^(n!) mod modulus, which p^(n!) reaches once n >= modulus.
    Write modulus = p^a m' with p not dividing m'.  For n >= modulus,
    the Carmichael exponent lambda(m') <= m' <= n divides n!, so p^(n!) is
    1 mod m', and a < modulus <= n!, so p^(n!) is 0 mod p^a."""
    return pow(p, math.factorial(modulus), modulus)


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
    2019).
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


def generating_tuples(S, k):
    """The k-tuples of elements that generate S, in `itertools.product`
    order over range(S.order); cached on S under ("generating", k)."""
    key = ("generating", k)
    found = S._derived.get(key)
    if found is None:
        t = S.table

        def mul(x, y):
            return t[x][y]

        generates = {}  # the set of a tuple's values -> whether it generates S
        tuples = []
        for values in product(range(S.order), repeat=k):
            gens = frozenset(values)
            ok = generates.get(gens)
            if ok is None:
                ok = generates[gens] = len(closure(gens, mul)[0]) == S.order
            if ok:
                tuples.append(values)
        found = S._derived[key] = tuple(tuples)
    return found


def dual(S):
    """The opposite semigroup: s *_op t = t * s (transposed table)."""
    n = S.order
    table = [[S.table[y][x] for y in range(n)] for x in range(n)]
    return FiniteSemigroup(table, labels=S.labels, generators=S.generators, check=False)


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


CLOSURE_BUDGET = 4096


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


def wreath_mul(T, D, x, y):
    """The product of two elements of the wreath product T wr D, the
    semidirect product T^(D^I) x| D with D acting on D^I by right
    translation: (f, d)(g, e) = (h, de) with h(s) = f(s) g(sd), where f, g
    are tuples over the states of D^I and the adjoined identity is state
    |D|."""
    (f, d), (g, e) = x, y
    nd = D.order
    h = tuple(T.table[f[s]][g[d if s == nd else D.table[s][d]]]
              for s in range(nd + 1))
    return (h, D.table[d][e])


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
# the value of a nonempty word under the rule named by the word-problem id
# of the pseudovariety; words may be strings or tuples of letters.

FREE_ZERO = "0"
FREE_RULES = frozenset({"SL_CONTENT", "BOUNDED_PREFIX", "BOUNDED_SUFFIX",
                        "BOUNDED_WORD"})


def free_value(rule, word, k):
    """The element of the free object represented by a nonempty word: its
    content (SL_CONTENT, Sl), its length-<=k prefix (BOUNDED_PREFIX, K_k)
    or suffix (BOUNDED_SUFFIX, D_k), or the word itself while shorter
    than k and the zero otherwise (BOUNDED_WORD, N_k)."""
    if rule == "SL_CONTENT":
        return frozenset(word)
    if rule == "BOUNDED_PREFIX":
        return word[:k]
    if rule == "BOUNDED_SUFFIX":
        return word[-k:]
    return word if len(word) < k else FREE_ZERO


def free_mul(rule, x, y, k):
    """The product of two elements given by free_value."""
    if rule == "SL_CONTENT":
        return x | y
    if rule == "BOUNDED_WORD" and FREE_ZERO in (x, y):
        return FREE_ZERO
    return free_value(rule, x + y, k)


def _free_object(rule, k, letters):
    if k < 1:
        raise ValueError(f"free objects need k >= 1, got {k}")
    bounded = rule == "BOUNDED_WORD"
    if bounded and FREE_ZERO in letters:
        raise PreconditionViolated(f"letter {FREE_ZERO!r} is the label of the zero")
    words = _words_upto(letters, k - 1 if bounded else k)
    if bounded:
        words.append(FREE_ZERO)
    idx = {w: i for i, w in enumerate(words)}
    table = [[idx[free_mul(rule, u, v, k)] for v in words] for u in words]
    gens = [idx[FREE_ZERO]] if bounded and k == 1 else [idx[a] for a in letters]
    return FiniteSemigroup(table, labels=words, generators=gens, check=False)


# The catalog's free objects of D_k, K_k and N_k = K_k meet D_k, by rule:
# words of length <= k multiplying by u.v = suffix_k(uv) or prefix_k(uv),
# and words of length < k plus a zero absorbing every longer product.
_FREE_OBJECTS = {"free_d": "BOUNDED_SUFFIX", "free_k": "BOUNDED_PREFIX",
                 "free_n": "BOUNDED_WORD"}

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
}


def catalog(name, *args):
    """Named test semigroups: B2, B2_1, U1, cyclic(n), left_zero(n),
    right_zero(n), null(n), free_band_2, free_d(k, letters),
    free_k(k, letters), free_n(k, letters)."""
    if name in _FREE_OBJECTS:
        k, letters = args
        if len(letters) > 3 or k > 4:
            raise BudgetExceeded("free objects limited to <= 3 letters, k <= 4")
        return _free_object(_FREE_OBJECTS[name], k, letters)
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown catalog name {name!r}") from None
    return builder(*args)
