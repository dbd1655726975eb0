"""Left basic factorizations of words and omega-terms.

The left basic factorization of u splits it as x a y at the first
position where the accumulated letter set completes the content of u
(a not in c(x), c(xa) = c(u)); iterating on remainders while the content
stays full yields the iterated left basic factorization, which is finite
for words and may be infinite for omega-terms.  The length of the
iterated factorization of the window image decides regularity over
DS * D_k; comparing factorizations coinductively gives the R word
problem used elsewhere.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product

from . import dk
from . import semigroups as sg
from . import terms as tm
from .corpus import all_semigroups_upto
from .errors import UnsupportedShape
from .pseudovarieties import (
    PROVED,
    UNKNOWN,
    canon,
    canon_equal,
    member,
    proves_equal_over_S,  # noqa: F401 -- bench/test_bench.py reads this binding
    refuted,
)


@dataclass
class LbfResult:
    """u = x a y with a not in c(x) and c(xa) = c(u); x and y may be empty
    (None for terms, () for words)."""

    x: object
    a: object
    y: object


@dataclass
class IlbfResult:
    outcome: str  # 'finite' | 'infinite' | 'unknown'
    factors: list  # of (u_i, a_i)
    remainder: object = None
    witness: object = None
    cap: int = 0

    @property
    def length(self):
        return len(self.factors) if self.outcome == "finite" else None


@dataclass
class Ilbf2Result:
    outcome: str  # 'finite' | 'infinite' | 'unknown'
    factors: list  # of u_i
    q: object = None
    witness: object = None

    @property
    def length(self):
        return len(self.factors) if self.outcome == "finite" else None


# ---------------------------------------------------------------------------
# Words


def lbf(u):
    """Left basic factorization of a nonempty word."""
    w = tm._as_word(u)
    if not w:
        raise ValueError("lbf of the empty word")
    full = set(w)
    acc = set()
    for i, ch in enumerate(w):
        if ch not in acc:
            acc.add(ch)
            if acc == full:
                return LbfResult(w[:i], ch, w[i + 1:])
    raise AssertionError("unreachable")


def ilbf(u):
    """Iterated left basic factorization of a word (always finite)."""
    w = tm._as_word(u)
    full = set(w)
    factors = []
    rem = w
    while rem and set(rem) == full:
        res = lbf(rem)
        factors.append((res.x, res.a))
        rem = res.y
    return IlbfResult("finite", factors, remainder=rem)


# ---------------------------------------------------------------------------
# Omega-terms


def _split_factors(factors, acc, full):
    """Walk a factor list accumulating content; split at the completing
    letter, cutting inside powers via u^e = u . u^(e-1)."""
    x_parts = []
    for idx, f in enumerate(factors):
        fc = tm.content(f)
        if fc <= acc:
            x_parts.append(f)
            continue
        if not (acc | fc) >= full:
            x_parts.append(f)
            acc = acc | fc
            continue
        rest = list(factors[idx + 1:])
        if isinstance(f, tm.Letter):
            return x_parts, f.symbol, rest
        if isinstance(f, tm.Power):
            inner = f.base.parts if isinstance(f.base, tm.Concat) else [f.base]
            xb, a, yb = _split_factors(list(inner), acc, full)
            e1 = tm._exp_minus_one(f.exp)
            tail = [] if (isinstance(e1, int) and e1 == 0) else [tm.power(f.base, e1)]
            return x_parts + xb, a, yb + tail + rest
        # f is a Concat (only when called on a power base)
        xb, a, yb = _split_factors(list(f.parts), acc, full)
        return x_parts + xb, a, yb + rest
    raise UnsupportedShape("content never completed during the scan")


@cache
def lbf_term(t):
    """Left basic factorization of a nonempty omega-term.  Memoized: the
    result is shared, so callers must not mutate it."""
    full = tm.content(t)
    factors = list(t.parts) if isinstance(t, tm.Concat) else [t]
    x_parts, a, y_parts = _split_factors(factors, set(), full)
    x = tm.concat(*x_parts) if x_parts else None
    y = tm.concat(*y_parts) if y_parts else None
    return LbfResult(x, a, y)


@cache
def _zero_offsets(t):
    if isinstance(t, tm.Letter):
        return t
    if isinstance(t, tm.Concat):
        return tm.concat(*[_zero_offsets(p) for p in t.parts])
    e = t.exp if isinstance(t.exp, int) else tm._exponent(t.exp.kind, t.exp.p, 0)
    return tm.power(_zero_offsets(t.base), e)


@cache
def term_signature(t):
    """Normal form with limit-exponent offsets collapsed; sound for cycle
    detection since the factorization scan never consults the offsets,
    and sound for R since R-trivial semigroups are aperiodic.  ilbf_term
    first asks for the signature of canon(t); canon was idempotent on all
    12,000 omega_pairs window images measured (seeds 0 and 1), so that is
    term_signature(t) there."""
    return canon(_zero_offsets(canon(t)))


def ilbf_term(t, cap=60):
    """Iterated left basic factorization of an omega-term: finite,
    infinite (a remainder signature with full content recurred), or
    unknown when the remainder after `cap` factors (cap >= 1) would need
    another one.

    The factors are those of canon(t), the normal form that the first
    signature computes anyway, so each remainder is a suffix of a compact
    term rather than of t as written.  canon is sound over all finite
    semigroups and the left basic factorization of a pseudoword is unique
    (Almeida & Zeitoun, TCS 2007), so every remainder has the value of
    the one cut from t itself: a finite length is the value's.  Where a
    signature first recurs depends on the terms, not only their values;
    tests/test_factorization.py checks outcome, length and witness (up to
    limit-exponent offsets) against factorizing t as written."""
    if cap < 1:
        raise ValueError(f"the factorization cap must be at least 1, got {cap}")
    full = tm.content(t)
    factors = []
    seen = set()
    rem = canon(t)
    while True:
        if rem is None:
            return IlbfResult("finite", factors, remainder=None)
        if tm.content(rem) != full:
            return IlbfResult("finite", factors, remainder=rem)
        sig = term_signature(rem)
        if sig in seen:
            return IlbfResult("infinite", factors, witness=sig)
        if len(factors) == cap:
            return IlbfResult("unknown", factors, cap=cap)
        seen.add(sig)
        res = lbf_term(rem)
        factors.append((res.x, res.a))
        rem = res.y


# ---------------------------------------------------------------------------
# ilbf2: factorizations through the window map at k = 1


def _unphi_word(blocks):
    return (blocks[0][0],) + tuple(b[-1] for b in blocks)


@cache
def _lastmap(t):
    if isinstance(t, tm.Letter):
        return tm.Letter(t.symbol[-1])
    if isinstance(t, tm.Concat):
        return tm.concat(*[_lastmap(p) for p in t.parts])
    return tm.power(_lastmap(t.base), t.exp)


def _unphi_term(t):
    """Preimage of a well-formed window term under phi_1: the first letter
    of the first block followed by the last letters of all blocks."""
    first_block = tm.prefix_word(t, 1)[0][0]
    return tm.concat(tm.Letter(first_block[0]), _lastmap(t))


def _ilbf2_degenerate(u, img_content, length, is_word):
    # c(phi_1(u)) is a single block (x, y): either u = xy, or x = y and
    # every factor is the letter x
    (x, y) = next(iter(img_content))
    if x != y:
        # u is the two-letter word xy
        q = (tm.tau_k(u, 1)[0]) if not is_word else u[-1]
        u1 = (x,) if is_word else tm.Letter(x)
        return Ilbf2Result("finite", [u1], q=(q,) if is_word else tm.Letter(q))
    u_i = (x,) if is_word else tm.Letter(x)
    if length is None:
        return Ilbf2Result("infinite", [], q=None, witness=u_i)
    factors = [u_i] * length
    q = (x,) if is_word else tm.Letter(x)
    return Ilbf2Result("finite", factors, q=q)


def window_image(t, k):
    """The window image phi_k of the pseudoword t, lifted from its normal
    form canon(t) (None for the empty image).

    phi_k is a function of the pseudoword, not of the term that spells it,
    and canon holds in every finite semigroup, so this is the image of t
    itself; a term and every term with the same normal form share one
    lift and one set of factorization memo entries."""
    return dk.phi_k_term(canon(t), k)


def ilbf2(u, cap=60):
    """The induced factorization through phi_1: factors u_i with
    phi_1(u_i) the x-parts of ilbf(phi_1(u)), plus the final factor q.

    Words always come back finite; omega-terms may be infinite or unknown
    (cap, at least 1, bounds the factors taken on a term).  A term's
    window image is lifted from canon(u) (`window_image`): phi_1 reads the
    pseudoword, canon holds in every finite semigroup and the left basic
    factorization of a pseudoword is unique (Almeida & Zeitoun, TCS 2007),
    so the outcome and a finite length are those of u as written."""
    if cap < 1:
        raise ValueError(f"the factorization cap must be at least 1, got {cap}")
    is_word = not isinstance(u, tm.Term)
    if is_word:
        w = tm._as_word(u)
        if len(w) < 2:
            raise ValueError("ilbf2 requires |u| >= 2")
        img = dk.phi_k(w, 1).blocks
        res = ilbf(img)
        img_content = set(img)
        if len(img_content) == 1:
            return _ilbf2_degenerate(w, img_content, len(res.factors), True)
        factors = [_unphi_word(x) for (x, _a) in res.factors]
        if res.remainder:
            q = _unphi_word(res.remainder)
        else:
            q = (w[-1],)
        return Ilbf2Result("finite", factors, q=q)
    img = window_image(u, 1)
    if img is None:
        raise ValueError("ilbf2 requires a term longer than 1")
    return induced_factorization(u, img, ilbf_term(img, cap=cap))


def induced_factorization(u, img, res):
    """ilbf2's answer for the term u from res, an iterated left basic
    factorization of its window image img at k = 1."""
    if res.outcome == "unknown":
        return Ilbf2Result("unknown", [], witness=res.cap)
    img_content = tm.content(img)
    if len(img_content) == 1:
        return _ilbf2_degenerate(u, img_content, res.length, False)
    factors = [_unphi_term(x) if x is not None else None for (x, _a) in res.factors]
    if any(f is None for f in factors):
        raise UnsupportedShape("empty x-part outside the degenerate case")
    if res.outcome == "infinite":
        return Ilbf2Result("infinite", factors, witness=res.witness)
    if res.remainder is not None:
        q = _unphi_term(res.remainder)
    else:
        q = tm.Letter(tm.tau_k(u, 1)[0])
    return Ilbf2Result("finite", factors, q=q)


# ---------------------------------------------------------------------------
# Regularity over DS * D_k and the R word problem


def ds_dk_regular(t, k):
    """Regularity over DS * D_k: Proved iff the iterated left basic
    factorization of the window image is infinite, Refuted iff finite.

    A term's image is lifted from canon(t) (`window_image`): phi_k is a
    function of the pseudoword, canon holds in every finite semigroup and
    the left basic factorization of a pseudoword is unique (Almeida &
    Zeitoun, TCS 2007), so the verdict is that of t as written."""
    if not isinstance(t, tm.Term):
        if not dk.phi_k(t, k).blocks:
            raise ValueError("ds_dk_regular requires input longer than k")
        return refuted("finite words have finite factorizations")
    img = window_image(t, k)
    if img is None:
        raise ValueError("ds_dk_regular requires a term longer than k")
    res = ilbf_term(img)
    if res.outcome == "infinite":
        return PROVED
    if res.outcome == "finite":
        return refuted(res)
    return UNKNOWN


@cache
def _r_members():
    """The members of R in the order-<=4 corpus."""
    return tuple(S for S in all_semigroups_upto(4) if member(S, "R"))


@cache
def _regressive_monoid(n):
    """The order-decreasing maps of an n-chain under composition: an
    R-trivial monoid of order n!."""
    maps = [f for f in product(range(n), repeat=n) if all(f[i] <= i for i in range(n))]
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[tuple(g[f[x]] for x in range(n))] for g in maps] for f in maps]
    return sg.FiniteSemigroup(table, check=False)


def _refuted_in_r(models, u, v):
    """A model among `models`, all R-trivial, with an assignment that
    separates u and v; None when none does or the pair has more than three
    letters."""
    letters = tuple(sorted(tm.content(u) | tm.content(v), key=str))
    if len(letters) > 3:
        return None
    pi = tm.PseudoIdentity(u, v, letters)
    for S in models:
        ok, asg = tm.satisfies(S, pi, witness=True)
        if not ok:
            return {"semigroup": S, "assignment": asg}
    return None


R_EQUAL_DEPTH_CAP = 40  # factorization depth past which r_equal is unknown


def r_equal(u, v):
    """Equality over R by coinductive comparison of left basic
    factorizations, with refutation via the R-corpus.

    Why PROVED on a revisited (sx, sy) pair is sound, following Almeida &
    Zeitoun, *An automata-theoretic approach to the word problem for
    omega-terms over R* (TCS 2007).  Over R the left basic factorization
    u = x a y of a pseudoword is unique, and equal signatures mean equal
    values (the signature is sound for R).  The top call proves only if
    every call proved, so the visited pairs then form a finite relation
    in which each pair has equal signatures, or equal contents and
    completing letters with its x-pair and y-pair again in the relation.
    The x-parts have smaller content, so by induction on content they are
    equal over R.  Along the y-parts a pair either ends equal, drops
    content (induction again), or recurs with full content: both sides
    then have infinite factorizations u = x1 a1 ... xn an yn whose
    factors agree.  In a finite R-trivial semigroup the prefixes
    p_n = x1 a1 ... xn an descend in the R-order and so stop at some
    p_N, which then absorbs on the right every letter of c(u); u and v
    both take the value of p_N.  A revisited pair thus needs no second
    unfolding.  Refutations past the corpus ("one side empty", differing
    completing letters) rest on uniqueness alone; they carry the
    R-trivial monoid of order 120 (`_regressive_monoid(5)`) with a
    separating assignment when it has one, and the reason text
    otherwise."""
    memo = set()

    def go(x, y, depth):
        if x is None and y is None:
            return PROVED
        if x is None or y is None:
            return refuted("one side empty")
        if tm.content(x) != tm.content(y):
            return refuted("contents differ")
        sx, sy = term_signature(x), term_signature(y)
        if sx == sy:
            return PROVED
        if depth > R_EQUAL_DEPTH_CAP:
            return UNKNOWN
        if (sx, sy) in memo:
            return PROVED  # coinductive closure
        memo.add((sx, sy))
        lx, ly = lbf_term(x), lbf_term(y)
        if lx.a != ly.a:
            return refuted(f"completing letters {lx.a} != {ly.a}")
        rx = go(lx.x, ly.x, depth + 1)
        if rx.refuted:
            return rx
        ry = go(lx.y, ly.y, depth + 1)
        if ry.refuted:
            return ry
        if rx.proved and ry.proved:
            return PROVED
        return UNKNOWN

    if not isinstance(u, tm.Term):
        u = tm.word_term(tm._as_word(u))
    if not isinstance(v, tm.Term):
        v = tm.word_term(tm._as_word(v))
    if canon_equal(u, v):
        return PROVED
    w = _refuted_in_r(_r_members(), u, v)
    if w is not None:
        return refuted(w)
    verdict = go(u, v, 0)
    if verdict.refuted:
        w = _refuted_in_r((_regressive_monoid(5),), u, v)
        if w is not None:
            return refuted(w)
    return verdict
