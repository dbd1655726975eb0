"""The benchmark's workloads: seeded inputs, the decisions each input
triggers, and the independent oracle each decision is checked against.

A workload object is built from the seed during set-up.  `inputs(loop)`
yields inputs in an order fixed by the seed, more than any run needs;
`visit(loop, item)` issues the decisions for one input through
`loop.decide` and checks them through `loop.verify`, whose oracle runs
outside the timed calls.  The library only receives the generated inputs.
`open_kinds` names the kinds of decision that may come back unknown, the
ones decided_frac counts; empty means every kind.

Why each workload exists is recorded in BENCHMARK.json; in short:
corpus_sweep reuses the 218 order-<=4 tables heavily, word_pairs runs the
word path of the window calculus with the table kernel idle, omega_pairs
runs the certifier, its memos and term factorization, and fresh_tables
runs the table kernel on larger tables that are each seen once.
"""

import random
import re

from finsemi import corpus
from finsemi import dk
from finsemi import factorization as fz
from finsemi import languages as lg
from finsemi import malcev as mv
from finsemi import pseudovarieties as pv
from finsemi import semigroups as sg
from finsemi import terms as tm

# The six classical Mal'cev equalities, Z -> the pseudovariety equal to Z m Sl.
EQUALITIES = {"K": "R", "D": "L", "LI": "DA", "LG": "DS", "N": "J", "NvG": "DG"}
LOCAL_V = ("Sl", "G", "A")
VDK_COMBOS = (("Sl", 1), ("Sl", 2), ("K_2", 1), ("K_2", 2),
              ("D_2", 1), ("D_2", 2), ("N_2", 1), ("N_2", 2))


def corpus_tables():
    """Tables of every isomorphism class of order <= 4."""
    return [S.table for S in corpus.all_semigroups_upto(4)]


def fresh(table):
    return sg.FiniteSemigroup(table, check=False)


def mu_duality(S):
    """The mu_K / mu_D duality: S^op / mu_K is isomorphic to (S / mu_D)^op."""
    D = sg.dual(S)
    lhs = sg.quotient(D, mv.mu_z(D, "K"))
    rhs = sg.dual(sg.quotient(S, mv.mu_z(S, "D")))
    return sg.is_isomorphic(lhs, rhs)


def malcev_equality(loop, S, table, Z):
    """One decision of S in Z m Sl, checked against basis membership of
    the pseudovariety the classical equality names."""
    got = loop.decide("malcev_member", mv.malcev_member, S, Z, "Sl")
    name = EQUALITIES.get(Z)
    if name is not None and isinstance(got, bool):
        loop.verify(lambda: got == pv.member(fresh(table), name))


class CorpusSweep:
    """Every class of order <= 4 for all eight Z: Z m Sl, the locality
    commutation for V in Sl, G, A, and the mu duality once per class.
    An input is one class; one pass visits all 218 in a seeded order."""

    name = "corpus_sweep"
    open_kinds = ()

    def __init__(self, seed, tables):
        rng = random.Random(seed)
        self.tables = list(tables)
        rng.shuffle(self.tables)
        self.z_order = list(mv.V_SET)
        rng.shuffle(self.z_order)
        # the tally covers one whole pass; the run may stop at any class
        self.granule = 1
        self.tally_inputs = len(self.tables)

    def inputs(self, loop):
        while True:
            yield from self.tables

    def visit(self, loop, table):
        S = fresh(table)
        for Z in self.z_order:
            malcev_equality(loop, S, table, Z)
            for V in LOCAL_V:
                got = loop.decide("locality", mv.locality_commutation_check, S, Z, V)
                if isinstance(got, bool):
                    loop.verify(lambda: got)
            if Z == "K":
                got = loop.decide("mu_duality", mu_duality, S)
                if isinstance(got, bool):
                    loop.verify(lambda: got)


def _random_word(rng, letters, max_len):
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))


def word_pair(rng, letters, max_len):
    """A random pair; half of the time the second word pumps a factor of
    the first, so that both proved and refuted verdicts occur."""
    u = _random_word(rng, letters, max_len)
    if rng.random() < 0.5:
        return u, _random_word(rng, letters, max_len)
    i = rng.randrange(len(u))
    j = rng.randrange(i, len(u))
    return u, u[:i] + u[i:j + 1] * 2 + u[j + 1:]


def lbf_is_unique_split(w, r):
    word = tuple(w)
    splits = [(word[:i], word[i], word[i + 1:]) for i in range(len(word))
              if word[i] not in set(word[:i]) and set(word[:i + 1]) == set(word)]
    return splits == [(r.x, r.a, r.y)]


def ilbf_recombines(w, r):
    rebuilt = ()
    for (x, a) in r.factors:
        rebuilt += x + (a,)
    return r.outcome == "finite" and rebuilt + r.remainder == tuple(w)


def ilbf2_recombines(w, r):
    return r.outcome == "finite" and sum(r.factors + [r.q], ()) == tuple(w)


class WordPairs:
    """Random word pairs over a, ab and abc of varied lengths, each
    decided over V * D_k for the eight (V, k) of the thm61 suite, plus
    lbf, ilbf and ilbf2 of both words."""

    name = "word_pairs"
    open_kinds = ()
    granule = 1
    tally_inputs = 2000

    def __init__(self, seed, tables):
        self.seed = seed
        self.images = {c: dk.VdkImages(*c) for c in VDK_COMBOS}

    def inputs(self, loop):
        rng = random.Random(self.seed)
        while True:
            letters = rng.choice(("a", "ab", "abc"))
            yield word_pair(rng, letters, rng.choice((6, 12, 24)))

    def visit(self, loop, pair):
        u, v = pair
        for combo in VDK_COMBOS:
            got = loop.decide("vdk_satisfies", dk.vdk_satisfies, combo[0], combo[1],
                              u, v, require_nontrivial_monoid=False)
            if isinstance(got, pv.Verdict):
                image = self.images[combo].image_of_word
                loop.verify(lambda: got.proved == (image(u) == image(v)))
        for w in (u, v):
            got = loop.decide("lbf", fz.lbf, w)
            if isinstance(got, fz.LbfResult):
                loop.verify(lambda: lbf_is_unique_split(w, got))
            got = loop.decide("ilbf", fz.ilbf, w)
            if isinstance(got, fz.IlbfResult):
                loop.verify(lambda: ilbf_recombines(w, got))
            if len(w) >= 2:
                got = loop.decide("ilbf2", fz.ilbf2, w)
                if isinstance(got, fz.Ilbf2Result):
                    loop.verify(lambda: ilbf2_recombines(w, got))


def random_term(rng, letters, depth=2):
    """The omega-term generator of the lemma69 suite."""
    if depth == 0 or rng.random() < 0.35:
        return tm.word_term(_random_word(rng, letters, 3))
    parts = [random_term(rng, letters, depth - 1) for _ in range(rng.randint(1, 2))]
    t = tm.concat(*parts)
    roll = rng.random()
    if roll < 0.5:
        return tm.power(t, tm.omega(rng.choice([0, 0, 1, -1])))
    if roll < 0.65:
        return tm.power(t, rng.choice([2, 3]))
    return t


def sound_variant(rng, t):
    """A random rewrite of t by rules valid in every finite semigroup:
    b^w b^w = b^w, (b^e)^(w+1) = b^e, b^(e-1) b = b^e and (bb)^w = b^w."""
    def rewrite(t, todo):
        if isinstance(t, tm.Power) and not isinstance(t.exp, int) and todo[0]:
            todo[0] = False
            choice = rng.randrange(4)
            if choice == 0 and t.exp.offset == 0:
                return tm.concat(t, t)
            if choice == 1:
                return tm.power(t, tm.omega(1))
            if choice == 2:
                return tm.concat(tm.power(t.base, t.exp.shifted(-1)), t.base)
            if t.exp == tm.OMEGA:
                return tm.power(tm.concat(t.base, t.base), tm.OMEGA)
            return t
        if isinstance(t, tm.Concat):
            return tm.concat(*[rewrite(p, todo) for p in t.parts])
        if isinstance(t, tm.Power):
            return tm.power(rewrite(t.base, todo), t.exp)
        return t

    out = t
    for _ in range(rng.randint(1, 2)):
        out = rewrite(out, [True])
    return out


def _unknown(res):
    return isinstance(res, fz.Ilbf2Result) and res.outcome == "unknown"


class OmegaPairs:
    """Random omega-terms over ab, each paired with a sound variant, so
    that every pair is equal over all finite semigroups.  Each pair goes
    to the certifier, ilbf2 on both sides, the R word problem and
    regularity over DS * D_1 on both sides."""

    name = "omega_pairs"
    open_kinds = ("proves_equal_over_S",)
    granule = 1
    tally_inputs = 1000

    def __init__(self, seed, tables):
        self.seed = seed

    def inputs(self, loop):
        rng = random.Random(self.seed)
        while True:
            t = random_term(rng, "ab")
            if isinstance(t, tm.Letter):
                continue  # the window map of a letter is empty
            t2 = sound_variant(rng, t)
            if t2 != t:
                yield t, t2

    def visit(self, loop, pair):
        t, t2 = pair
        eq = loop.decide("proves_equal_over_S", pv.proves_equal_over_S, t, t2)
        if isinstance(eq, pv.Verdict):
            loop.verify(lambda: not eq.refuted)
        r1 = loop.decide("ilbf2", fz.ilbf2, t, cap=40)
        r2 = loop.decide("ilbf2", fz.ilbf2, t2, cap=40)
        certified = isinstance(eq, pv.Verdict) and eq.proved
        if (certified and isinstance(r1, fz.Ilbf2Result) and isinstance(r2, fz.Ilbf2Result)
                and not _unknown(r1) and not _unknown(r2)):
            loop.verify(lambda: r1.outcome == r2.outcome and r1.length == r2.length)
        got = loop.decide("r_equal", fz.r_equal, t, t2)
        if isinstance(got, pv.Verdict):
            loop.verify(lambda: not got.refuted)
        g1 = loop.decide("ds_dk_regular", fz.ds_dk_regular, t, 1)
        g2 = loop.decide("ds_dk_regular", fz.ds_dk_regular, t2, 1)
        if isinstance(g1, pv.Verdict) and isinstance(g2, pv.Verdict):
            loop.verify(lambda: not ({g1.status, g2.status} == {"proved", "refuted"}))


def random_regex(rng, letters, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(letters)
    roll = rng.random()
    if roll < 0.4:
        return random_regex(rng, letters, depth - 1) + random_regex(rng, letters, depth - 1)
    if roll < 0.6:
        return (f"({random_regex(rng, letters, depth - 1)}"
                f"|{random_regex(rng, letters, depth - 1)})")
    if roll < 0.8:
        return f"({random_regex(rng, letters, depth - 1)})*"
    return f"({random_regex(rng, letters, depth - 1)})+"


def product_table(A, B):
    """Cayley table of A x B, pair (x, y) at index x * |B| + y."""
    n, m = len(A), len(B)
    return tuple(
        tuple(A[x1][x2] * m + B[y1][y2] for x2 in range(n) for y2 in range(m))
        for x1 in range(n) for y1 in range(m))


REGEX_LETTERS = "abc"


def syntactic_of(text):
    return lg.syntactic_semigroup(lg.parse_regex(text, alphabet=REGEX_LETTERS))


def recognizes(syn, text, words):
    """Python's re module as the oracle: syn accepts w iff text matches w."""
    return all((syn.eval(w) in syn.accepting) == (re.fullmatch(text, w) is not None)
               for w in words)


class FreshTables:
    """Distinct tables of order 5 to 16, each visited once: direct
    products A x B of corpus classes of order 2 to 4, drawn in a seeded
    order from all such pairs, and after every five of them the syntactic
    semigroup of a random regex.  Each table gets the six classical
    Mal'cev equalities."""

    name = "fresh_tables"
    open_kinds = ()
    granule = 6
    tally_inputs = 300

    def __init__(self, seed, tables):
        rng = random.Random(seed)
        self.seed = seed
        self.pairs = [(A, B) for A in tables for B in tables
                      if len(A) >= 2 and len(B) >= 2 and 5 <= len(A) * len(B) <= 16]
        rng.shuffle(self.pairs)

    def _regexes(self, loop):
        """Regexes whose syntactic semigroups are distinct and of order 5
        to 16.  Selecting them needs the library, so it runs aside from
        the timed and traced calls.  A minimal DFA of at most 5 states
        keeps the transition semigroup small enough to compute quickly."""
        rng = random.Random(self.seed)
        seen = set()
        misses = 0
        while misses < 5000:
            misses += 1
            text = random_regex(rng, REGEX_LETTERS)
            dfa = loop.aside(lg.parse_regex, text, REGEX_LETTERS)
            if dfa.states > 5:
                continue
            T = loop.aside(lg.syntactic_semigroup, dfa).semigroup
            if 5 <= T.order <= 16 and T.table not in seen:
                seen.add(T.table)
                misses = 0
                yield text, [_random_word(rng, REGEX_LETTERS, 10) for _ in range(24)]
        raise RuntimeError("no new regex of a fresh syntactic semigroup found")

    def inputs(self, loop):
        seen = set()
        regexes = self._regexes(loop)
        for i, (A, B) in enumerate(self.pairs):
            table = product_table(A, B)
            if table not in seen:
                seen.add(table)
                yield table
            if i % 5 == 4:
                yield next(regexes)
        raise RuntimeError("all product tables visited")

    def visit(self, loop, item):
        if isinstance(item[0], str):
            text, words = item
            syn = loop.decide("syntactic_semigroup", syntactic_of, text)
            if not isinstance(syn, lg.SyntacticSemigroup):
                return
            loop.verify(lambda: recognizes(syn, text, words))
            S, table = syn.semigroup, syn.semigroup.table
        else:
            S, table = fresh(item), item
        for Z in EQUALITIES:
            malcev_equality(loop, S, table, Z)


WORKLOADS = {w.name: w for w in (CorpusSweep, WordPairs, OmegaPairs, FreshTables)}


def warm_up():
    """Fill the library's lazy banks and caches, so that the first measured
    decision does not pay for them: the certifier's model bank and its
    corpus, and the R-bank (the corpus enumeration is filled before).  The
    inputs lie outside every measured set (terms and words over c and d,
    the order-5 cyclic group) and visit each workload's decisions once."""
    C5 = sg.catalog("cyclic", 5)
    mv.malcev_member(C5, "K", "Sl")
    mv.locality_commutation_check(C5, "K", "Sl")
    mu_duality(C5)
    syn = lg.syntactic_semigroup(lg.parse_regex("c(dc)*", alphabet="cd"))
    mv.malcev_member(syn.semigroup, "LI", "Sl")
    dk.vdk_satisfies("Sl", 1, "cdc", "cdcdc")
    fz.ilbf2("cdcd")
    c, d = tm.Letter("c"), tm.Letter("d")
    pv.refute_over_models(c, c)
    cd_w = tm.power(tm.concat(c, d), tm.OMEGA)
    pv.proves_equal_over_S(cd_w, tm.concat(cd_w, cd_w))
    fz.ilbf2(cd_w)
    fz.r_equal(tm.concat(cd_w, c), cd_w)
    fz.ds_dk_regular(cd_w, 1)
