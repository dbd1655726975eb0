"""Pseudovariety catalog, membership, word problems, and the permanence
checker.

A pseudovariety here is a named basis of omega-identities, optionally
with an exact word problem for its free profinite semigroup and a link
to its dual.  Membership of a finite semigroup is decided by checking
the basis under all assignments.

The module also houses `proves_equal_over_S`, a sound certifier for
equality of omega-terms over all finite semigroups: terms are rewritten
to a normal form using only rules valid in every finite semigroup, and
inequality is witnessed by model checking over small semigroups.
"""

from dataclasses import dataclass
from functools import cache

from . import semigroups as sg
from . import terms as tm
from .corpus import all_semigroups_upto
from .errors import UnknownName, WrongAlphabet
from .semigroups import FREE_RULES


@dataclass(frozen=True, eq=True)
class Verdict:
    """Three-valued result: proved / refuted(witness) / unknown."""

    status: str
    witness: object = None

    @property
    def proved(self):
        return self.status == "proved"

    @property
    def refuted(self):
        return self.status == "refuted"

    @property
    def unknown(self):
        return self.status == "unknown"

    def __bool__(self):
        raise TypeError("Verdict is three-valued; test .proved/.refuted/.unknown")


PROVED = Verdict("proved")
UNKNOWN = Verdict("unknown")


def refuted(witness=None):
    return Verdict("refuted", witness)


# ---------------------------------------------------------------------------
# Normal form for omega-terms, sound over all finite semigroups.
#
# Rules used (each valid in every finite semigroup):
#   - flattening / associativity
#   - x^a x^b = x^(a+b) whenever the exponent sum is expressible
#     (int+int, int+limit, omega+omega, omega+p^omega with offsets added)
#   - integer powers expand to repeated factors (bounded)
#   - (x^e)^f collapses for the sound exponent combinations
#   - word bases are replaced by their primitive root
#   - t^e = t when t t = t is certified (idempotent collapse)
#   - s t^e = t^e and t^e s = t^e when s t = t (resp. t s = t) is certified

_EXPAND_CAP = 64


@cache
def _term_size(t):
    if isinstance(t, tm.Letter):
        return 1
    if isinstance(t, tm.Concat):
        return 1 + sum(_term_size(p) for p in t.parts)
    return 1 + _term_size(t.base)


def _add_exp(e1, e2):
    """Sound sum of exponents, or None when not expressible."""
    if isinstance(e1, int) and isinstance(e2, int):
        return e1 + e2
    if isinstance(e1, int):
        return e2.shifted(e1)
    if isinstance(e2, int):
        return e1.shifted(e2)
    if e1.kind == "omega":
        return tm._exponent(e2.kind, e2.p, e1.offset + e2.offset)
    if e2.kind == "omega":
        return tm._exponent(e1.kind, e1.p, e1.offset + e2.offset)
    return None  # p^omega + q^omega has no representation here


def _factors(t):
    return list(t.parts) if isinstance(t, tm.Concat) else [t]


def _emit_run(base, exp):
    """Render one combined run as a factor list: spelled out while it has
    at most _EXPAND_CAP factors, else one power.  An integer exponent is
    at least 2: _canon_power passes a Power's exponent, at least 2 in
    every Power term, and _combine_pass passes either that or a merged
    run, a sum of two or more positive counts."""
    if isinstance(exp, int):
        base_fs = _factors(base)
        if exp * len(base_fs) <= _EXPAND_CAP:
            return base_fs * exp
    return [tm._power(base, exp)]


def _gather_word_copies(factors):
    """Fold spelled-out copies of a power's base into its exponent:
    a b (ab)^e -> (ab)^(e+1), u v (uv)^e -> (uv)^(e+1), both sides.
    The input list is returned when nothing folds."""
    out = factors
    i = 0
    while i < len(out):
        f = out[i]
        i += 1
        if type(f) is not tm.Power or type(f.base) is not tm.Concat:
            continue  # single-factor runs merge in the main pass
        parts = f.base.parts
        n = len(parts)
        first, last = parts[0], parts[-1]
        base_fs = list(parts)
        exp = f.exp
        lo, hi = i - 1, i
        # equal terms are identical, so two identity tests rule out most
        # candidate copies before a slice is built
        while (lo >= n and out[lo - n] is first and out[lo - 1] is last
               and out[lo - n:lo] == base_fs):
            bumped = _add_exp(exp, 1)
            if bumped is None:
                break
            exp, lo = bumped, lo - n
        while (hi + n <= len(out) and out[hi] is first and out[hi + n - 1] is last
               and out[hi:hi + n] == base_fs):
            bumped = _add_exp(exp, 1)
            if bumped is None:
                break
            exp, hi = bumped, hi + n
        if (lo, hi) != (i - 1, i):
            out = out[:lo] + [tm._power(f.base, exp)] + out[hi:]
            # out[:lo] is unchanged, so a power left of the fold can fold
            # again only if its first right copy reaches into the fold
            i = next((p for p in range(lo) if _right_copy_reaches(out[p], p, lo)), lo)
    return out


def _right_copy_reaches(f, p, lo):
    """Whether f, at position p, is a power whose first right copy of its
    base overlaps position lo."""
    return (type(f) is tm.Power and type(f.base) is tm.Concat
            and p + 1 + len(f.base.parts) > lo)


def _combine_pass(factors):
    factors = _gather_word_copies(factors)
    # 1. merge adjacent factors with equal bases where exponents add; a
    # factor left alone is kept, unless it is an integer power to expand
    out = []
    i, n = 0, len(factors)
    while i < n:
        f = factors[i]
        if type(f) is tm.Power:
            base, exp = f.base, f.exp
        else:
            base, exp = f, 1
        j = i + 1
        while j < n:
            g = factors[j]
            if type(g) is tm.Power:
                if g.base is not base:
                    break
                s = _add_exp(exp, g.exp)
            elif g is base:
                s = _add_exp(exp, 1)
            else:
                break
            if s is None:
                break
            exp = s
            j += 1
        if j > i + 1 or type(f) is tm.Power and type(exp) is int:
            out.extend(_emit_run(base, exp))
        else:
            out.append(f)
        i = j
    # 2. absorption into neighbouring infinite powers
    res = []
    for f in out:
        if res and type(f) is tm.Power and type(f.exp) is not int:
            while res and _absorbs("L", res[-1], f.base):
                res.pop()
        res.append(f)
    out2 = []
    for f in reversed(res):
        if out2 and type(f) is tm.Power and type(f.exp) is not int:
            while out2 and _absorbs("R", out2[-1], f.base):
                out2.pop()
        out2.append(f)
    return list(reversed(out2))


def _combine(factors):
    while True:
        new = _combine_pass(factors)
        if new == factors:
            return factors
        factors = new


@cache
def _absorbs(side, g, base):
    """Whether g t = t (side "L") or t g = t (side "R") is certified,
    for t the product of base's factors.

    The recursion through _combine is well-founded.  Every nested call
    _absorbs(s', x, c), made while combining [g] + fs (or fs + [g]), has
    _term_size(x) + _term_size(c) < _term_size(g) + _term_size(base):
      - c is the base of a limit power in the list, so a proper subterm
        of g or of a factor of base: merges, word-copy folds and integer
        power expansions build limit exponents only from limit powers
        already there, and keep their bases;
      - x, the neighbour, is built from the other material of g and
        base, or from a disjoint part of one expanded integer power.
    So no call waits on itself, and the answer depends only on the key."""
    fs = _factors(base)
    return _combine([g] + fs if side == "L" else fs + [g]) == fs


@cache
def _certified_idempotent(t):
    fs = _factors(t)
    return _combine(fs + fs) == fs


def _power_of_power(s, e1, e2):
    """Sound collapse of (s^e1)^e2; returns a replacement term or None."""
    if isinstance(e2, int):
        if isinstance(e1, int):
            return tm.power(s, e1 * e2)
        if e1.kind == "omega":
            return tm.Power(s, tm.omega(e1.offset * e2))
        return None
    if e2.kind == "omega":
        q = e2.offset
        if isinstance(e1, int):
            return tm.Power(s, tm.omega(e1 * q))
        if e1.kind == "omega":
            return tm.Power(s, tm.omega(e1.offset * q))
        if q == 0:
            return tm.Power(s, tm.OMEGA)
        if q == 1:
            return tm.Power(s, e1)
        return None
    # e2 is p^omega + q
    if isinstance(e1, int):
        return None
    if e1.kind == "omega" and e1.offset == 0:
        return tm.Power(s, tm.OMEGA)
    if (e1.kind == "primeomega" and e1.p == e2.p
            and e1.offset == 0 and e2.offset == 0):
        return tm.Power(s, e1)
    return None


@cache
def canon(t):
    """Normal form of t under the sound rewriting rules."""
    if isinstance(t, tm.Letter):
        return t
    if isinstance(t, tm.Concat):
        parts = []
        for p in t.parts:
            parts.extend(_factors(canon(p)))
        return tm.concat_flat(_combine(parts))
    return _canon_power(canon(t.base), t.exp)


def _canon_power(base, exp):
    """canon of base^exp for a normal form base and the exponent of a
    Power: an integer of at least 2, or a limit."""
    # collapse nested powers where sound
    if isinstance(base, tm.Power):
        collapsed = _power_of_power(base.base, base.exp, exp)
        if collapsed is not None:
            return canon(collapsed)
    # rebase powers of a repeated factor sequence on the primitive root:
    # (v^j)^(w+q) = v^(w+jq)
    fs = _factors(base)
    if len(fs) > 1:
        root, j = tm._primitive_root(tuple(fs))
        if j > 1:
            root_term = tm.concat_flat(root)
            if isinstance(exp, int):
                return canon(tm.power(root_term, exp * j))
            if exp.kind == "omega":
                return canon(tm.Power(root_term, tm.omega(exp.offset * j)))
            # p^omega over a proper power of the root is not expressible
    if _certified_idempotent(base):
        return base
    if isinstance(exp, int):
        return tm.concat_flat(_combine(_emit_run(base, exp)))
    return tm.concat_flat(_combine([tm.Power(base, exp)]))


# ---------------------------------------------------------------------------
# Refutation by model checking


@cache
def _fast_bank():
    return (
        sg.catalog("U1"),
        sg.catalog("left_zero", 2),
        sg.catalog("right_zero", 2),
        sg.catalog("cyclic", 2),
        sg.catalog("cyclic", 3),
        sg.catalog("null", 2),
        sg.catalog("B2"),
        sg.catalog("B2_1"),
        sg.catalog("free_band_2"),
        sg.catalog("cyclic", 6),
        _two_idempotent_monster(),
    )


def _two_idempotent_monster():
    # Boolean matrix monoid fragment {e, f, ef, 0} where ef is not idempotent.
    e, f, t, z = 0, 1, 2, 3
    tab = [[z] * 4 for _ in range(4)]
    tab[e][e] = e
    tab[f][f] = f
    tab[e][f] = t
    tab[e][t] = t
    tab[t][f] = t
    return sg.FiniteSemigroup(tab, labels=["e", "f", "ef", "0"])


ASSIGNMENT_CAP = 5000  # largest |S|^letters that refute_over_models tries
PROOF_SIZE_CAP = 4000  # largest joint term size proves_equal_over_S takes
REFUTATION_MAX_ORDER = 4  # largest corpus order refute_over_models tries


def first_generating_failure(models, pi):
    """The first model S in `models` with an assignment under which the
    sides of pi differ, as {"semigroup": S, "assignment": ...}, reading
    only assignments whose values generate S, or None when none does.

    `models` must run by nondecreasing order and hold, up to isomorphism,
    every subsemigroup of each member: the corpus of order <= n does, and
    so do its members in a pseudovariety, which is closed under
    subsemigroups (R, for `factorization.r_equal`).  The answer is then
    the first failure of the full search, in `itertools.product` order.
    Take the first member S that fails, under an assignment whose values
    generate a proper subsemigroup T.  T is isomorphic to a member of
    smaller order, which comes earlier and fails too: a contradiction.
    So every failing assignment of S generates S, and the members before
    S fail under none."""
    check = tm._compiled_check(pi)
    k = len(pi.alphabet)
    for S in models:
        values = check(S, sg.generating_tuples(S, k))
        if values is not None:
            return {"semigroup": S, "assignment": dict(zip(pi.alphabet, values))}
    return None


def refute_over_models(lhs, rhs):
    """Search small semigroups for an assignment separating lhs and rhs:
    the fixed bank under every assignment, then the corpus of order <=
    REFUTATION_MAX_ORDER under generating assignments only
    (`first_generating_failure`; the bank is not closed under
    subsemigroups).  A semigroup with more than ASSIGNMENT_CAP
    assignments is skipped."""
    letters = tuple(sorted(tm.content(lhs) | tm.content(rhs), key=str))
    pi = tm.PseudoIdentity(lhs, rhs, letters)
    k = len(letters)
    for S in _fast_bank():
        if S.order ** k > ASSIGNMENT_CAP:
            continue
        ok, asg = tm.satisfies(S, pi, witness=True)
        if not ok:
            return {"semigroup": S, "assignment": asg}
    corpus = all_semigroups_upto(REFUTATION_MAX_ORDER)
    return first_generating_failure(
        (S for S in corpus if S.order ** k <= ASSIGNMENT_CAP), pi)


def canon_equal(u, v):
    """The certifier's proof step alone: whether u and v have one normal
    form, or None, computing none, when their joint size exceeds
    PROOF_SIZE_CAP.  True proves u = v over all finite semigroups."""
    if _term_size(u) + _term_size(v) > PROOF_SIZE_CAP:
        return None
    return canon(u) == canon(v)


def proves_equal_over_S(u, v):
    """Sound three-valued equality of omega-terms over all finite semigroups."""
    same = canon_equal(u, v)
    if same is None:
        return UNKNOWN
    if same:
        return PROVED
    w = refute_over_models(u, v)
    if w is not None:
        return refuted(w)
    return UNKNOWN


# ---------------------------------------------------------------------------
# Pseudovariety definitions


@dataclass(frozen=True)
class PseudovarietyDef:
    name: str
    basis: tuple  # of PseudoIdentity
    word_problem: str | None = None
    word_problem_bound: int | None = None
    has_nontrivial_monoid: bool = True

    # consistent with the generated __eq__, and cheap: the generated hash
    # would walk every basis term on each verdict lookup
    def __hash__(self):
        return hash(self.name)

    def __str__(self):
        return self.name


def _chi_identity(pi):
    return tm.pseudo_identity(tm.reverse_chi(pi.lhs), tm.reverse_chi(pi.rhs),
                              pi.alphabet)


def _dk_identity(k):
    # y x1 ... xk = x1 ... xk, with y named x_{k+1}
    xs = [tm.Letter(f"x{i}") for i in range(1, k + 1)]
    y = tm.Letter(f"x{k + 1}")
    return tm.pseudo_identity(tm.concat(y, *xs), tm.concat(*xs))


def _build_catalog():
    cat = {}

    def add(defn):
        cat[defn.name] = defn

    add(PseudovarietyDef("I", (tm.parse_identity("x1 = x2"),),
                         has_nontrivial_monoid=False))
    add(PseudovarietyDef("Sl", (tm.parse_identity("x1 x1 = x1"),
                                tm.parse_identity("x1 x2 = x2 x1")),
                         word_problem="SL_CONTENT"))
    k_basis = (tm.parse_identity("x1^w x2 = x1^w"),)
    add(PseudovarietyDef("K", k_basis, word_problem="K_PREFIX",
                         has_nontrivial_monoid=False))
    d_basis = tuple(_chi_identity(p) for p in k_basis)
    add(PseudovarietyDef("D", d_basis, word_problem="D_SUFFIX",
                         has_nontrivial_monoid=False))
    add(PseudovarietyDef("N", k_basis + d_basis, word_problem="N_FINITE",
                         has_nontrivial_monoid=False))
    kg_basis = (tm.parse_identity("x1^w x2^w = x1^w"),)
    dg_basis = tuple(_chi_identity(p) for p in kg_basis)
    add(PseudovarietyDef("KvG", kg_basis))
    add(PseudovarietyDef("DvG", dg_basis))
    add(PseudovarietyDef("NvG", kg_basis + dg_basis))
    add(PseudovarietyDef("LI", (tm.parse_identity("x1^w x2 x1^w = x1^w"),),
                         has_nontrivial_monoid=False))
    add(PseudovarietyDef("LG", (tm.parse_identity("(x1^w x2 x1^w)^w = x1^w"),)))
    for p in (2, 3):
        add(PseudovarietyDef(f"LG_{p}",
                             (tm.parse_identity(f"(x1^w x2 x1^w)^({p}^w) = x1^w"),)))
    add(PseudovarietyDef("A", (tm.parse_identity("x2^w = x2^(w+1)"),)))
    g_basis = (tm.parse_identity("x1^w x2 = x2"),
               tm.parse_identity("x2 x1^w = x2"))
    add(PseudovarietyDef("G", g_basis, word_problem="G_FREEGROUP"))
    for p in (2, 3):
        add(PseudovarietyDef(f"G_{p}",
                             g_basis + (tm.parse_identity(f"x1^({p}^w) = x1^w"),)))
    r_basis = (tm.parse_identity("(x1 x2)^w x1 = (x1 x2)^w"),)
    l_basis = tuple(_chi_identity(p) for p in r_basis)
    add(PseudovarietyDef("R", r_basis, word_problem="R_LBF"))
    add(PseudovarietyDef("L", l_basis))
    add(PseudovarietyDef("J", r_basis + l_basis))
    ds_basis = (
        tm.parse_identity("((x1 x2)^w (x2 x1)^w (x1 x2)^w)^w = (x1 x2)^w"),)
    add(PseudovarietyDef("DS", ds_basis))
    add(PseudovarietyDef("DA", ds_basis + (tm.parse_identity("x2^w = x2^(w+1)"),)))
    add(PseudovarietyDef("DG", (tm.parse_identity("(x1 x2)^w = (x2 x1)^w"),)))
    for k in range(1, 5):
        dk = (_dk_identity(k),)
        kk = tuple(_chi_identity(p) for p in dk)
        add(PseudovarietyDef(f"D_{k}", dk, word_problem="BOUNDED_SUFFIX",
                             word_problem_bound=k, has_nontrivial_monoid=False))
        add(PseudovarietyDef(f"K_{k}", kk, word_problem="BOUNDED_PREFIX",
                             word_problem_bound=k, has_nontrivial_monoid=False))
        add(PseudovarietyDef(f"N_{k}", dk + kk, word_problem="BOUNDED_WORD",
                             word_problem_bound=k, has_nontrivial_monoid=False))
    return cat


CATALOG = _build_catalog()

_ALIASES = {
    "K∨G": "KvG", "D∨G": "DvG", "N∨G": "NvG",
    "K v G": "KvG", "D v G": "DvG", "N v G": "NvG",
}


def get_pseudovariety(name):
    name = _ALIASES.get(name, name)
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown pseudovariety {name!r}") from None


def member(S, V):
    """S in V, by checking every basis pseudoidentity of V; cached on S."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    verdict = S._derived.get(V)
    if verdict is None:
        verdict = S._derived[V] = all(tm.satisfies(S, pi) for pi in V.basis)
    return verdict


def load_pseudovariety(d):
    """Pseudovariety from a JSON dict {"name", "basis": [{"lhs","rhs"}]}."""
    basis = tuple(
        tm.pseudo_identity(tm.parse_term(b["lhs"]), tm.parse_term(b["rhs"]))
        for b in d["basis"]
    )
    return PseudovarietyDef(d["name"], basis)


# ---------------------------------------------------------------------------
# Word problems


def _free_group_word(t):
    """Reduced free-group word of t (omega -> 0), or None for p^omega parts."""
    if isinstance(t, tm.Letter):
        seq = [(t.symbol, 1)]
    elif isinstance(t, tm.Concat):
        seq = []
        for p in t.parts:
            w = _free_group_word(p)
            if w is None:
                return None
            seq.extend(w)
    else:
        base = _free_group_word(t.base)
        if base is None:
            return None
        e = t.exp
        if isinstance(e, int):
            q = e
        elif e.kind == "omega":
            q = e.offset
        else:
            return None
        if q >= 0:
            seq = base * q
        else:
            inv = [(s, -x) for (s, x) in reversed(base)]
            seq = inv * (-q)
    out = []
    for item in seq:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    return out


def word_problem_equal(V, u, v):
    """Exact or semi-decision of V |= u = v via V's word problem.

    u and v are omega-terms, or both plain nonempty words (sequences of
    symbols).  Plain words are sliced for Sl, K_m, D_m and N_m and spelled
    out as terms for every other word problem."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    wp = V.word_problem
    if wp is None:
        raise ValueError(f"{V.name} has no word problem")
    words = not isinstance(u, tm.Term) and not isinstance(v, tm.Term)
    if words:
        u, v = tm._as_word(u), tm._as_word(v)
        if not u or not v:
            raise ValueError("empty concatenation")
        if wp not in FREE_RULES:
            u, v, words = tm.word_term(u), tm.word_term(v), False
    if wp == "SL_CONTENT":
        same = set(u) == set(v) if words else tm.content(u) == tm.content(v)
        return PROVED if same else refuted("content differs")
    if wp == "K_PREFIX":
        cu, cv = tm.left_contour(u), tm.left_contour(v)
        return PROVED if cu == cv else refuted("left contours differ")
    if wp == "D_SUFFIX":
        return word_problem_equal("K", tm.reverse_chi(u), tm.reverse_chi(v))
    if wp == "N_FINITE":
        wu, wv = tm.is_finite_word(u), tm.is_finite_word(v)
        return PROVED if wu == wv else refuted("distinct as pro-N elements")
    if wp == "G_FREEGROUP":
        gu, gv = _free_group_word(u), _free_group_word(v)
        if gu is None or gv is None:
            return UNKNOWN
        return PROVED if gu == gv else refuted("free group images differ")
    if wp == "R_LBF":
        from .factorization import r_equal
        return r_equal(u, v)
    if wp == "BOUNDED_PREFIX":
        # words of length m are identified with all their extensions, so
        # only the (length <= m)-prefix matters, not the exactness flag
        m = V.word_problem_bound
        same = u[:m] == v[:m] if words else tm.beta_k(u, m) == tm.beta_k(v, m)
        return PROVED if same else refuted(f"prefixes of length {m} differ")
    if wp == "BOUNDED_SUFFIX":
        m = V.word_problem_bound
        same = u[-m:] == v[-m:] if words else tm.tau_k(u, m) == tm.tau_k(v, m)
        return PROVED if same else refuted(f"suffixes of length {m} differ")
    if wp == "BOUNDED_WORD":
        # a word shorter than m is its own element; every other is the zero
        m = V.word_problem_bound
        if words:
            iu = u if len(u) < m else None
            iv = v if len(v) < m else None
        else:
            wu, eu = tm.prefix_word(u, m - 1) if m > 1 else ((), False)
            wv, ev = tm.prefix_word(v, m - 1) if m > 1 else ((), False)
            iu = wu if eu else None
            iv = wv if ev else None
        return PROVED if iu == iv else refuted(f"distinct in the free N_{m} object")
    raise ValueError(f"unknown word problem id {wp!r}")


# ---------------------------------------------------------------------------
# Permanent pseudoidentities


def _check_alphabet(pi):
    vs = tm.content(pi.lhs) | tm.content(pi.rhs)
    if not vs <= {"x1", "x2"}:
        raise WrongAlphabet("permanence requires an identity over x1, x2")


def _permanence_conditions(pi, side):
    u, v = pi.lhs, pi.rhs
    sub = {"x1": u, "x2": v}
    absorbed = tm.concat(u, v) if side == "left" else tm.concat(v, u)
    return [
        ("u u = u", tm.concat(u, u), u),
        ("u(u,v) = u", tm.substitute(u, sub), u),
        ("v(u,v) = v", tm.substitute(v, sub), v),
        (f"v = {'uv' if side == 'left' else 'vu'}", absorbed, v),
    ]


def _check_permanence(pi, side):
    _check_alphabet(pi)
    verdicts = []
    for tag, lhs, rhs in _permanence_conditions(pi, side):
        verdict = proves_equal_over_S(lhs, rhs)
        if verdict.refuted:
            # enrich the witness so the refutation replays from it alone
            return refuted({"condition": tag,
                            "lhs": tm.term_to_text(lhs),
                            "rhs": tm.term_to_text(rhs),
                            **verdict.witness})
        verdicts.append(verdict)
    if all(v.proved for v in verdicts):
        return PROVED
    return UNKNOWN


def is_left_permanent(pi):
    """u=v with u idempotent, u and v fixed under substituting (u, v),
    and v absorbed on the left (v = uv).

    Each of the four conditions (uu = u, u(u,v) = u, v(u,v) = v, v = uv)
    must hold in every finite semigroup, not only modulo u = v itself.
    PAPER.md holds only the abstract, so this reading of the paper's
    definition is unconfirmed.  Under it, x1^w = x1^w x2^w is refuted on
    v(u,v) = v, while x1^w = (x1^w x2^w)^w is proved."""
    return _check_permanence(pi, "left")


def is_right_permanent(pi):
    """The mirror of is_left_permanent: the same conditions, each required
    in every finite semigroup (unconfirmed against the paper, as there),
    with v absorbed on the right (v = vu)."""
    return _check_permanence(pi, "right")
