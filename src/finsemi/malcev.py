"""Semilocal-theory congruences and Mal'cev product membership.

For a regular J-class J of S, the action kernels on J^0 (right action,
right action on L-classes, two-sided, and duals) realize the canonical
quotients onto right mapping / right letter mapping / generalized group
mapping semigroups and their variants.  Intersecting over all regular
J-classes gives the mu_Z congruence whose quotient decides membership
in Z m V for Z in the eight-element family handled here; N and N v G
route through intersections of the K/D (resp. K v G / D v G) sides.
"""

from . import semigroups as sg
from . import terms as tm
from .errors import NotRegular, UnsupportedZ
from .pseudovarieties import get_pseudovariety, member, word_problem_equal

V_SET = ("LI", "K", "D", "N", "LG", "KvG", "DvG", "NvG")

MU_KIND = {
    "K": "RM", "KvG": "RLM", "LI": "GGM", "LG": "AGGM",
    "D": "LM", "DvG": "LLM",
}


class RegularJClassView:
    """One regular J-class with its R/L-class structure and J^0 carrier."""

    def __init__(self, S, j_id):
        g = S.green()
        if j_id not in g.regular_j:
            raise NotRegular(f"J-class {j_id} has no idempotent")
        self.semigroup = S
        self.j_id = j_id
        self.elements = tuple(sorted(g.j_classes[j_id]))
        self.element_set = frozenset(self.elements)
        self.r_ids = tuple(sorted({g.r_class_of[x] for x in self.elements}))
        self.l_ids = tuple(sorted({g.l_class_of[x] for x in self.elements}))


def regular_j_views(S):
    return [RegularJClassView(S, j) for j in sorted(S.green().regular_j)]


def _right_signature(S, view, s):
    # x . s = xs when xs stays in J, else 0
    inside = view.element_set
    return tuple(
        S.table[x][s] if S.table[x][s] in inside else None for x in view.elements
    )


def _left_signature(S, view, s):
    inside = view.element_set
    return tuple(
        S.table[s][x] if S.table[s][x] in inside else None for x in view.elements
    )


def _right_on_l_signature(S, view, s):
    # L is a right congruence, so the action descends to L-classes of J
    g = view.semigroup.green()
    inside = view.element_set
    sig = []
    for lid in view.l_ids:
        x = min(e for e in view.elements if g.l_class_of[e] == lid)
        xs = S.table[x][s]
        sig.append(g.l_class_of[xs] if xs in inside else None)
    return tuple(sig)


def _left_on_r_signature(S, view, s):
    g = view.semigroup.green()
    inside = view.element_set
    sig = []
    for rid in view.r_ids:
        x = min(e for e in view.elements if g.r_class_of[e] == rid)
        sx = S.table[s][x]
        sig.append(g.r_class_of[sx] if sx in inside else None)
    return tuple(sig)


def _kernel_of(S, view, fn):
    groups = {}
    for s in range(S.order):
        groups.setdefault(fn(S, view, s), set()).add(s)
    return sg.Congruence(S, groups.values(), check=False)


def _sequential_kernel(S, view, first_fn, second_fn):
    """Kernel of S -> (first-action image) -> (second action of the image
    on the image of J).  This staged composition is what makes the
    generalized group mapping quotients collapse correctly; the direct
    meet of the two action kernels is strictly finer in general."""
    c1 = _kernel_of(S, view, first_fn)
    T1 = sg.quotient(S, c1)
    jbar = T1.green().j_class_of[c1.class_of[view.elements[0]]]
    view1 = RegularJClassView(T1, jbar)
    groups = {}
    for s in range(S.order):
        sig = second_fn(T1, view1, c1.class_of[s])
        groups.setdefault(sig, set()).add(s)
    return sg.Congruence(S, groups.values(), check=False)


def mu_zj(S, view, Z):
    """The mu_{Z,J} congruence: kernel of the canonical map of S onto the
    right mapping (K), right letter mapping (K v G), generalized group
    mapping (LI), or AGGM (LG) semigroup of the regular J-class, or the
    dual constructions for D and D v G."""
    if isinstance(view, int):
        view = RegularJClassView(S, view)
    if Z == "K":
        return _kernel_of(S, view, _right_signature)
    if Z == "D":
        return _kernel_of(S, view, _left_signature)
    if Z == "KvG":
        return _kernel_of(S, view, _right_on_l_signature)
    if Z == "DvG":
        return _kernel_of(S, view, _left_on_r_signature)
    if Z == "LI":
        return _sequential_kernel(S, view, _right_signature, _left_signature)
    if Z == "LG":
        return _sequential_kernel(S, view, _right_on_l_signature,
                                  _left_on_r_signature)
    raise UnsupportedZ(f"mu is not defined for Z = {Z} (use intersections)")


def mu_z(S, Z):
    """Meet of the mu_{Z,J} kernels over all regular J-classes."""
    kerns = [mu_zj(S, v, Z) for v in regular_j_views(S)]
    groups = {}
    for s in range(S.order):
        sig = tuple(k.class_of[s] for k in kerns)
        groups.setdefault(sig, set()).add(s)
    return sg.Congruence(S, groups.values(), check=False)


def mu_quotient(S, Z):
    """S / mu_Z, cached on S.  The congruence is not kept: it refers back to
    S, and that cycle would leave S to the cyclic garbage collector."""
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
