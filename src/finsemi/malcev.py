"""Semilocal-theory congruences and Mal'cev product membership.

For a regular J-class J of S, the kernel of S's action on J^0, on its
elements (K) or on its L-classes (K v G), is the canonical map onto the
right (letter) mapping image of J; on the transposed table the same two
actions give the duals D and D v G.  LI and LG stage K (K v G) and then D
(D v G) on the first-stage image.  Each kernel is a label vector read from
a Cayley table and J alone, and cached on S by (Z, J).  The mu_Z
congruence is the kernel of the tuple of labels over all regular
J-classes, itself a label vector, and its quotient decides membership in
Z m V for Z in the eight-element family handled here; N and N v G route
through intersections of the K/D (resp. K v G / D v G) sides.  The same
congruence is the witness of a member (mu_witness), which checks that
it is one.
"""

from . import semigroups as sg
from . import terms as tm
from .errors import UnsupportedZ
from .pseudovarieties import get_pseudovariety, member, word_problem_equal

V_SET = ("LI", "K", "D", "N", "LG", "KvG", "DvG", "NvG")
# N (N v G) is the meet of K and D (K v G and D v G)
MEETS = {"N": ("K", "D"), "NvG": ("KvG", "DvG")}


# Each action takes a Cayley table t and a J-class J (a frozenset) of the
# semigroup t multiplies, and yields for every element s the right action
# of s on J^0: a tuple with one entry per element, or per L-class, of J,
# None where the product leaves J.  Only the kernel of s -> tuple is read.
# On the transposed table t[x][s] is s x and column x is the row x S, so
# the same routines give the left actions, on elements and on R-classes.


def _on_elements(t, J):
    return zip(*([v if v in J else None for v in t[x]] for x in J))


def _on_classes(t, J):
    # the L-class of x in J is S^1 x meet J (stability), from column x, named
    # by its least element; L is a right congruence, so the action descends
    l_of = {x: min(J.intersection([x, *[row[x] for row in t]])) for x in J}
    return zip(*([l_of.get(v) for v in t[x]] for x in set(l_of.values())))


# Z -> (action, whether it acts on the transposed table); LI and LG -> stages
_ACTIONS = {"K": (_on_elements, False), "D": (_on_elements, True),
            "KvG": (_on_classes, False), "DvG": (_on_classes, True)}
_STAGES = {"LI": ("K", "D"), "LG": ("KvG", "DvG")}


def _action_labels(t, J, Z):
    action, left = _ACTIONS[Z]
    return sg.kernel_labels(action(list(zip(*t)) if left else t, J))


def _mu_zj_labels(S, J, Z):
    """The mu_{Z,J} kernel as a label vector, cached on S by (Z, J).

    LI (LG) is staged: phi: S -> T1, the kernel of K (K v G), then the
    action D (D v G) of T1 on J1 = phi(J); the meet of the two kernels is
    finer in general.  J1 is a J-class of T1, which D v G needs to key its
    R-classes by stability.  Proof: T1 acts on J^0 (on the L-classes of J
    and 0) through phi, fixing 0, as phi is that action's kernel and no
    product that leaves J comes back.  phi(J) lies in the J-class of
    phi(e), e an idempotent of J.  Conversely, if t J phi(e), then t =
    phi(ced) and phi(e) = phi(a) t phi(b) for some a, b, c, d in S^1.  As
    phi(e) moves e (L_e) to itself, not to 0, y = ea is in J and y t = y ced
    is not 0.  So J <=_J ced <=_J e, ced is in J and t = phi(ced)."""
    lab = S._derived.get((Z, J))
    if lab is None:
        if Z in _ACTIONS:
            lab = _action_labels(S.table, J, Z)
        elif Z in _STAGES:
            first, second = _STAGES[Z]
            lab = _mu_zj_labels(S, J, first)
            reps = sg.least_elements(lab)
            t1 = [[lab[S.table[x][y]] for y in reps] for x in reps]
            lab2 = _action_labels(t1, frozenset([lab[x] for x in J]), second)
            lab = tuple([lab2[c] for c in lab])
        else:
            raise UnsupportedZ(f"mu is not defined for Z = {Z} (use intersections)")
        S._derived[(Z, J)] = lab
    return lab


def mu_z(S, Z):
    """Meet of the mu_{Z,J} kernels over all regular J-classes, as a
    kernel_labels vector."""
    g = S.green()
    return sg.kernel_labels(zip(*[_mu_zj_labels(S, g.j_classes[j], Z)
                                  for j in g.regular_j]))


def mu_quotient(S, Z):
    """S / mu_Z, cached on S; element c of the quotient is the mu_Z class
    with label c."""
    Q = S._derived.get(Z)
    if Q is None:
        Q = S._derived[Z] = sg.quotient(S, mu_z(S, Z))
    return Q


def malcev_member_with(S, Z, pred):
    """S in Z m W, where W-membership is the predicate `pred`."""
    comps = MEETS.get(Z)
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


# ---------------------------------------------------------------------------
# Membership certificates: the mu witness and the Pin-Weil refutation

PINWEIL_BUDGET = 4000  # substituted basis identities tried per search


def _substitution_pool():
    texts = [
        "a", "b", "a a", "a b", "b a", "b b", "a b a", "b a b", "a a b",
        "a^w", "b^w", "(a b)^w", "(b a)^w", "a^w b", "b a^w", "a^w b a^w",
        "a^(w+1)", "(a b)^w a",
    ]
    return [tm.parse_term(t) for t in texts]


def pinweil_refute(S, z_basis, V):
    """Search for a Pin-Weil refutation of S in Z m V.

    Substitutions phi with V |= phi(x1) = phi(x2) = phi(x2)^2 certified by
    V's exact word problem are enumerated by size; the first basis
    pseudoidentity of Z whose phi-image fails in S is returned as
    (identity, substitution, assignment), else None (also past the budget).
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
                if tried > PINWEIL_BUDGET:
                    return None
                phi_u = tm.substitute(pi.lhs, sub)
                phi_v = tm.substitute(pi.rhs, sub)
                image = tm.pseudo_identity(phi_u, phi_v)
                ok, asg = tm.satisfies(S, image, witness=True)
                if not ok:
                    return {"identity": pi, "substitution": sub, "assignment": asg}
    return None


def mu_witness(S, Z, V):
    """A witness of S in Z m V, as (labels, S/labels) for the label vector
    of a congruence whose quotient is in V and whose idempotent classes,
    as subsemigroups of S, are in Z; None when the labels fail any of the
    three checks (Pin & Weil, "Profinite semigroups, Mal'cev products and
    identities", J. Algebra 1996).

    The labels are mu_Z's, or for N (N v G) the meet of the K and D (K v G
    and D v G) kernels, so the quotient is a subdirect product of the
    quotients that malcev_member reads.  Compatibility is checked by
    is_congruence and both memberships by member, none read off mu."""
    if isinstance(V, str):
        V = get_pseudovariety(V)
    labels = sg.kernel_labels(zip(*[mu_z(S, z) for z in MEETS.get(Z, (Z,))]))
    if not sg.is_congruence(S, labels):
        return None
    Q = sg.quotient(S, labels)
    if not member(Q, V):
        return None
    z_def = get_pseudovariety(Z)
    classes = sg.classes_of(labels)
    if not all(member(sg.subsemigroup(S, classes[e]), z_def) for e in Q.idempotents()):
        return None
    return labels, Q
