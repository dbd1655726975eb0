"""Semilocal-theory congruences and Mal'cev product membership.

For a regular J-class J of S, the action kernels on J^0 (right action,
right action on L-classes, two-sided, and duals) realize the canonical
quotients onto right mapping / right letter mapping / generalized group
mapping semigroups and their variants.  Each kernel is a label vector
over S, read from J as a class of S's Green data and cached on S by
(Z, J), so that LI and LG take the cached kernels of K and K v G as
their first stage.  The mu_Z congruence is the kernel of the tuple of
labels over all regular J-classes, and its quotient decides membership
in Z m V for Z in the eight-element family handled here; N and N v G
route through intersections of the K/D (resp. K v G / D v G) sides.
"""

from . import semigroups as sg
from . import terms as tm
from .errors import NotRegular, UnsupportedZ
from .pseudovarieties import get_pseudovariety, member, word_problem_equal

V_SET = ("LI", "K", "D", "N", "LG", "KvG", "DvG", "NvG")


# Each *_signatures function takes a J-class J of S, a frozenset from its
# Green data, and yields for every element s of S in turn the action of s
# on J^0 as a tuple: one entry per element (or per L- or R-class) of J,
# None where the product leaves J and so is the zero.  Only the kernel of
# s -> signature is used, so the order of the entries does not matter.


def _right_signatures(S, J):
    return zip(*([v if v in J else None for v in S.table[x]] for x in J))


def _left_signatures(S, J):
    return zip(*([row[x] if row[x] in J else None for row in S.table] for x in J))


def _right_on_l_signatures(S, J):
    # L is a right congruence, so the action descends to L-classes of J
    # and any element of a class stands for it
    l_of = S.green().l_class_of
    reps = {l_of[x]: x for x in J}.values()
    return zip(*([l_of[v] if v in J else None for v in S.table[x]] for x in reps))


def _left_on_r_signatures(S, J):
    # dually, R is a left congruence
    r_of = S.green().r_class_of
    reps = {r_of[x]: x for x in J}.values()
    return zip(*([r_of[row[x]] if row[x] in J else None for row in S.table]
                 for x in reps))


def _sequential_labels(S, J, lab, second):
    """Kernel of S -> T1 (the image under the first-action labels `lab`)
    -> (second action of T1 on the image of J).  This staged composition
    is what makes the generalized group mapping quotients collapse
    correctly; the direct meet of the two action kernels is strictly
    finer in general.  The image of J lies in one J-class of T1, found
    from any element of J.  The second action is evaluated once per
    element of T1."""
    reps = sg.least_elements(lab)
    T1 = sg.FiniteSemigroup([[lab[S.table[x][y]] for y in reps] for x in reps],
                            check=False)
    j1_of = T1.green().j_class_of
    j1 = j1_of[lab[next(iter(J))]]
    # T1 is dropped after this call: build only the J-class read here
    J1 = frozenset([c for c, j in enumerate(j1_of) if j == j1])
    lab2 = sg.kernel_labels(second(T1, J1))
    return tuple([lab2[c] for c in lab])


_ACTIONS = {"K": _right_signatures, "D": _left_signatures,
            "KvG": _right_on_l_signatures, "DvG": _left_on_r_signatures}
# the first stage of LI (of LG) is the kernel of K (of K v G)
_STAGES = {"LI": ("K", _left_signatures), "LG": ("KvG", _left_on_r_signatures)}


def _mu_zj_labels(S, J, Z):
    """The mu_{Z,J} kernel as a label vector, cached on S by (Z, J)."""
    lab = S._derived.get((Z, J))
    if lab is None:
        if Z in _ACTIONS:
            lab = sg.kernel_labels(_ACTIONS[Z](S, J))
        elif Z in _STAGES:
            first, second = _STAGES[Z]
            lab = _sequential_labels(S, J, _mu_zj_labels(S, J, first), second)
        else:
            raise UnsupportedZ(f"mu is not defined for Z = {Z} (use intersections)")
        S._derived[(Z, J)] = lab
    return lab


def mu_zj(S, j, Z):
    """The mu_{Z,J} congruence for the regular J-class with id j: kernel of
    the canonical map of S onto the right mapping (K), right letter
    mapping (K v G), generalized group mapping (LI), or AGGM (LG)
    semigroup of the J-class, or the dual constructions for D and D v G.
    Raises NotRegular when the J-class has no idempotent."""
    g = S.green()
    if j not in g.regular_j:
        raise NotRegular(f"J-class {j} has no idempotent")
    return sg.Congruence(S, _mu_zj_labels(S, g.j_classes[j], Z), check=False)


def mu_z(S, Z):
    """Meet of the mu_{Z,J} kernels over all regular J-classes."""
    g = S.green()
    kernels = [_mu_zj_labels(S, g.j_classes[j], Z) for j in g.regular_j]
    return sg.Congruence(S, zip(*kernels), check=False)


def mu_quotient(S, Z):
    """S / mu_Z, cached on S; element c of the quotient is the mu_Z class
    with label c.  The congruence is not kept: it refers back to S, and
    that cycle would leave S to the cyclic garbage collector."""
    Q = S._derived.get(Z)
    if Q is None:
        Q = S._derived[Z] = sg.quotient(S, mu_z(S, Z))
    return Q


def malcev_member_with(S, Z, pred):
    """S in Z m W, where W-membership is the predicate `pred`."""
    comps = {"N": ("K", "D"), "NvG": ("KvG", "DvG")}.get(Z)
    if comps:
        return all(malcev_member_with(S, c, pred) for c in comps)
    return pred(mu_quotient(S, Z))


def malcev_member(S, Z, V):
    """Exact membership of S in Z m V for Z in the eight-element family."""
    if Z not in V_SET:
        raise UnsupportedZ(f"Z must be one of {V_SET}")
    if isinstance(V, str):
        V = get_pseudovariety(V)
    return malcev_member_with(S, Z, lambda T: member(T, V))


def lv_member(S, V):
    """Whether every local monoid eSe belongs to V."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    return all(member(sg.local_monoid(S, e), V) for e in S.idempotents())


def locality_commutation_check(S, Z, V):
    """Both sides of L(Z m V) = Z m LV, computed independently; True when
    they agree on S."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    side_locals = all(
        malcev_member(sg.local_monoid(S, e), Z, V) for e in S.idempotents()
    )
    side_mu = malcev_member_with(S, Z, lambda T: lv_member(T, V))
    return side_locals == side_mu


def ladder_member(S, family, m):
    """The R_m / L_m ladder: R_1 = L_1 = Sl, R_{m+1} = K m L_m,
    L_{m+1} = D m R_m."""
    if m < 1:
        raise ValueError("ladder starts at m = 1")
    if m == 1:
        return member(S, "Sl")
    if family == "R_m":
        return malcev_member_with(S, "K", lambda T: ladder_member(T, "L_m", m - 1))
    if family == "L_m":
        return malcev_member_with(S, "D", lambda T: ladder_member(T, "R_m", m - 1))
    raise ValueError("family must be 'R_m' or 'L_m'")


# ---------------------------------------------------------------------------
# Pin-Weil refutation and witness search


def _substitution_pool():
    texts = [
        "a", "b", "a a", "a b", "b a", "b b", "a b a", "b a b", "a a b",
        "a^w", "b^w", "(a b)^w", "(b a)^w", "a^w b", "b a^w", "a^w b a^w",
        "a^(w+1)", "(a b)^w a",
    ]
    return [tm.parse_term(t) for t in texts]


def pinweil_refute(S, z_basis, V, budget=4000):
    """Search for a Pin-Weil refutation of S in Z m V.

    Substitutions phi with V |= phi(x1) = phi(x2) = phi(x2)^2 certified by
    V's exact word problem are enumerated by size; the first basis
    pseudoidentity of Z whose phi-image fails in S is returned as
    (identity, substitution, assignment), else None.
    """
    if isinstance(V, str):
        V = get_pseudovariety(V)
    pool = _substitution_pool()
    tried = 0
    for t2 in pool:
        sq = word_problem_equal(V, tm.concat(t2, t2), t2)
        if not sq.proved:
            continue
        for t1 in pool:
            eq = word_problem_equal(V, t1, t2)
            if not eq.proved:
                continue
            sub = {"x1": t1, "x2": t2}
            for pi in z_basis:
                tried += 1
                if tried > budget:
                    return None
                phi_u = tm.substitute(pi.lhs, sub)
                phi_v = tm.substitute(pi.rhs, sub)
                image = tm.pseudo_identity(phi_u, phi_v)
                ok, asg = tm.satisfies(S, image, witness=True)
                if not ok:
                    return {"identity": pi, "substitution": sub, "assignment": asg}
    return None


def witness_homomorphism(S, Z, V):
    """A congruence whose quotient is in V with every idempotent-class
    preimage in Z, or None.  Exact up to sg.CONGRUENCE_MAX_ORDER."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    z_def = get_pseudovariety(Z) if isinstance(Z, str) else Z
    for c in sg.congruences(S):
        Q = sg.quotient(S, c)
        if not member(Q, V):
            continue
        ok = True
        for e in Q.idempotents():
            cls = sorted(c.classes[e])
            idx = {x: i for i, x in enumerate(cls)}
            sub = sg.FiniteSemigroup(
                [[idx[S.table[x][y]] for y in cls] for x in cls], check=False)
            if not member(sub, z_def):
                ok = False
                break
        if ok:
            return (c, Q)
    return None
