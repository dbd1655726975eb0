"""The window calculus for semidirect products with D_k.

phi_k reads the consecutive length-(k+1) factors of a word; words of
length <= k map to the empty window word.  The map satisfies the product
rule phi_k(uv) = phi_k(u b_k(v)) . phi_k(v) = phi_k(u) . phi_k(t_k(u) v)
(b_k / t_k the length-k prefix/suffix), which is what makes a structural
lifting to omega-terms possible.

Satisfaction u = v over V * D_k is decided by the triple criterion:
equal length-k prefixes, equal length-k suffixes, and V |= the window
images.  Two plain words are decided by slicing: ends and windows are
tuple slices, and word_problem_equal compares the block tuples.  Terms
are decided by the structural lifting, which is also the differential
oracle of the slicing path.  The lifting is memoized by (term, k):
terms are frozen, so each distinct subterm is lifted once per process,
however often it recurs inside a term or across the terms decided.

VdkImages folds words into the triple algebra of V * D_k whenever V's
free objects are finite (Sl, K_m, D_m, N_m, D_j): short words plus
(prefix, suffix, V-value) triples.  It is the differential oracle of
vdk_satisfies.
"""

from dataclasses import dataclass
from functools import cache

from . import semigroups as sg
from . import terms as tm
from .errors import BudgetExceeded, PreconditionViolated, UnsupportedShape
from .pseudovarieties import (
    PROVED,
    get_pseudovariety,
    refuted,
    word_problem_equal,
)


@dataclass(frozen=True)
class WindowWord:
    """A word over the block alphabet A^(k+1); consecutive blocks overlap
    in exactly k letters."""

    k: int
    blocks: tuple

    def __post_init__(self):
        for b1, b2 in zip(self.blocks, self.blocks[1:]):
            if b1[1:] != b2[:-1]:
                raise ValueError(f"blocks {b1} and {b2} do not overlap in {self.k}")

    def __len__(self):
        return len(self.blocks)

    def spelled(self):
        return ["".join(map(str, b)) for b in self.blocks]


def _windows(w, k):
    """The consecutive length-(k+1) factors of a word tuple, by slicing:
    none when |w| <= k."""
    return tuple(w[i:i + k + 1] for i in range(len(w) - k))


def _check_k(k):
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def phi_k(u, k):
    """Window word of a plain word: empty when |u| <= k."""
    _check_k(k)
    return WindowWord(k, _windows(tm._as_word(u), k))


# ---------------------------------------------------------------------------
# Structural lifting of phi_k to omega-terms


def _cat(*pieces):
    parts = [p for p in pieces if p is not None]
    if not parts:
        return None
    return tm.concat(*parts)


def _word_image(w, k):
    blocks = phi_k(w, k).blocks
    return tm.word_term(blocks) if blocks else None


def _phi_prefixed(prefix, f, k):
    """phi_k(prefix . f) for a word prefix of length <= k.  f is a part of
    a flattened Concat, so a Letter or a Power, and one that is no finite
    word is a Power."""
    if not prefix:
        return phi_k_term(f, k)
    w = tm.is_finite_word(f)
    if w is not None:
        return _word_image(tuple(prefix) + w, k)
    head = _word_image(tuple(prefix) + tm.beta_k(f, k), k)
    return _cat(head, phi_k_term(f, k))


@cache
def phi_k_term(t, k):
    """The window image of an omega-term, as a term over block letters
    (None for the empty image).  Blocks are tuples of base letters.
    Memoized by (t, k); an UnsupportedShape is raised again on each call."""
    _check_k(k)
    w = tm.is_finite_word(t)
    if w is not None:
        return _word_image(w, k)
    if isinstance(t, tm.Concat):
        acc = phi_k_term(t.parts[0], k)
        suffix = tm.tau_k(t.parts[0], k)
        for f in t.parts[1:]:
            acc = _cat(acc, _phi_prefixed(suffix, f, k))
            suffix = tm.tau_k(tm.concat(*map(tm.Letter, suffix), f), k)
        return acc
    # t is a Power that is no finite word (a Letter is one)
    base, exp = t.base, t.exp
    head, exact = tm.prefix_word(base, k + 1)
    if exact and len(head) <= k:
        # a short word base, so exp is a limit (a finite word under an
        # integer power is a finite word): raise the base to a power of
        # length >= k+1 first
        if exp.kind != "omega":
            raise UnsupportedShape(
                "p^omega power of a base shorter than k+1 is not liftable")
        j = -(-(k + 1) // len(head))
        q2, r = divmod(exp.offset, j)
        return phi_k_term(tm.concat(tm.power(tm.word_term(head * j), tm.omega(q2)),
                                    tm.word_term(head * r) if r else None), k)
    # base of length >= k+1: phi(u^e) = phi(u b_k(u))^(e-1) . phi(u)
    core = phi_k_term(tm.concat(base, *map(tm.Letter, tm.beta_k(base, k))), k)
    tail = phi_k_term(base, k)
    return _cat(tm.power(core, tm._exp_minus_one(exp)), tail)


# ---------------------------------------------------------------------------
# The triple criterion


def _criterion_characterizes(V):
    # The monoid hypothesis makes the prefix/suffix components recoverable
    # from V * D_k; for K, D and N the V side itself carries unbounded
    # prefix/suffix memory, so the criterion stays exact there too.  For
    # the bounded families (D_j, K_j, N_j) it is genuinely finer than
    # V * D_k equality.
    return V.has_nontrivial_monoid or V.name in ("K", "D", "N")


def _word_prefix(w, k):
    return w[:k]


def _word_suffix(w, k):
    return w[max(len(w) - k, 0):]


def vdk_satisfies(V, k, u, v, require_nontrivial_monoid=True):
    """Does V * D_k satisfy u = v, by the triple criterion: equal
    length-k prefixes and suffixes, and V |= phi_k(u) = phi_k(v).

    Two plain words are compared by slicing: their ends, and their window
    words as tuples of blocks, which word_problem_equal decides.  Any
    omega-term (a plain word next to one is spelled out as a term) goes
    through beta_k, tau_k and the structural lifting phi_k_term.

    When the criterion does not characterize V * D_k (bounded-memory V
    like a raw D_j) the call raises unless `require_nontrivial_monoid`
    is disabled; the verdict is then still the sound triple-criterion
    comparison (Proved implies V * D_k |= u = v)."""
    _check_k(k)
    if isinstance(V, str):
        V = get_pseudovariety(V)
    if require_nontrivial_monoid and not _criterion_characterizes(V):
        raise PreconditionViolated(
            f"{V.name} contains no nontrivial monoid; the triple criterion "
            f"does not characterize {V.name} * D_k")
    if isinstance(u, tm.Term) or isinstance(v, tm.Term):
        u, v = (t if isinstance(t, tm.Term) else tm.word_term(tm._as_word(t))
                for t in (u, v))
        prefix, suffix, image = tm.beta_k, tm.tau_k, phi_k_term
    else:
        u, v = tm._as_word(u), tm._as_word(v)
        if not u or not v:
            raise ValueError("empty concatenation")
        prefix, suffix, image = _word_prefix, _word_suffix, _windows
    if prefix(u, k) != prefix(v, k):
        return refuted("length-k prefixes differ")
    if suffix(u, k) != suffix(v, k):
        return refuted("length-k suffixes differ")
    pu, pv_ = image(u, k), image(v, k)  # None or () for an empty image
    if not pu and not pv_:
        return PROVED
    if not pu or not pv_:
        return refuted("one window image is empty, the other is not")
    return word_problem_equal(V, pu, pv_)


# ---------------------------------------------------------------------------
# The triple algebra of locally finite V * D_k


class VdkImages:
    """The canonical map of words into the triple algebra of V * D_k:
    short words (length <= k) plus triples (b_k, t_k, [phi_k]_V), with
    multiplication induced by the product rule.  No materialization."""

    def __init__(self, V, k):
        if isinstance(V, str):
            V = get_pseudovariety(V)
        if k < 1:
            raise PreconditionViolated(f"the triple algebra needs k >= 1, got {k}")
        if V.word_problem not in sg.FREE_RULES:
            raise BudgetExceeded(f"{V.name} has no finite free-object backend")
        self.rule = V.word_problem
        self.V = V
        self.k = k
        self.bound = V.word_problem_bound

    def _value(self, w):
        """The V-value of the window image of a word longer than k."""
        return sg.free_value(self.rule, phi_k(w, self.k).blocks, self.bound)

    def _mul(self, e1, e2):
        k, rule, bound = self.k, self.rule, self.bound
        if e1[0] == "short" and e2[0] == "short":
            w = e1[1] + e2[1]
            if len(w) <= k:
                return ("short", w)
            return ("triple", w[:k], w[-k:], self._value(w))
        if e1[0] == "short":
            _, p, s, f = e2
            w = e1[1] + p
            return ("triple", w[:k], s, sg.free_mul(rule, self._value(w), f, bound))
        if e2[0] == "short":
            _, p, s, f = e1
            w = s + e2[1]
            return ("triple", p, w[-k:], sg.free_mul(rule, f, self._value(w), bound))
        _, p1, s1, f1 = e1
        _, p2, s2, f2 = e2
        left = sg.free_mul(rule, f1, self._value(s1 + p2), bound)  # f1 . bridge
        return ("triple", p1, s2, sg.free_mul(rule, left, f2, bound))

    def image_of_word(self, word):
        """Fold a word through the letter images; the canonical homomorphism."""
        w = tm._as_word(word)
        if not w:
            raise ValueError("empty concatenation")
        acc = ("short", (w[0],))
        for a in w[1:]:
            acc = self._mul(acc, ("short", (a,)))
        return acc
