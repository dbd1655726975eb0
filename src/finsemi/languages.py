"""Regular languages, syntactic semigroups, and marked products.

Languages are +-languages (subsets of A+); the bridge to pseudovarieties
is the syntactic semigroup: the transition semigroup of the minimal
complete DFA.  Marked products L1 a L2 come with exact predicates for
unambiguity (every word has one factorization) and left/right
determinism (every word has one prefix in L1 a, resp. one suffix in
a L2), decided on product automata.
"""

from dataclasses import dataclass, field

from . import semigroups as sg
from .errors import OutOfRangeEntry, RegexSyntaxError


@dataclass
class Dfa:
    """Complete deterministic automaton: delta[state][letter-index]."""

    alphabet: tuple
    delta: tuple  # tuple of tuples, states x alphabet
    initial: int
    finals: frozenset

    def __post_init__(self):
        n = len(self.delta)

        def check_state(q, what):
            if not (isinstance(q, int) and 0 <= q < n):
                raise OutOfRangeEntry(f"{what} {q!r} out of range [0, {n})")

        for row in self.delta:
            if len(row) != len(self.alphabet):
                raise OutOfRangeEntry(
                    f"delta row has {len(row)} entries for {len(self.alphabet)} letters")
            for q in row:
                check_state(q, "delta entry")
        check_state(self.initial, "initial state")
        for q in self.finals:
            check_state(q, "final state")

    @property
    def states(self):
        return len(self.delta)

    def step(self, q, letter):
        return self.delta[q][self.alphabet.index(letter)]

    def accepts(self, word):
        q = self.initial
        for ch in word:
            q = self.step(q, ch)
        return q in self.finals

    def to_json_dict(self):
        return {"states": self.states, "alphabet": list(self.alphabet),
                "delta": [list(r) for r in self.delta],
                "initial": self.initial, "finals": sorted(self.finals)}

    @classmethod
    def from_json_dict(cls, d):
        dfa = cls(tuple(d["alphabet"]), tuple(tuple(r) for r in d["delta"]),
                  d["initial"], frozenset(d["finals"]))
        if "states" in d and d["states"] != dfa.states:
            raise OutOfRangeEntry("declared states do not match delta")
        return dfa


# ---------------------------------------------------------------------------
# Regex -> NFA -> DFA -> minimal DFA


@dataclass
class _Nfa:
    alphabet: tuple
    transitions: dict = field(default_factory=dict)  # (state, letter) -> set
    eps: dict = field(default_factory=dict)  # state -> set
    initial: int = 0
    finals: frozenset = frozenset()
    states: int = 0


class _RegexParser:
    """concatenation, |, *, +, parentheses, single lowercase letters."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.text):
            raise RegexSyntaxError(f"trailing input at {self.pos}")
        return node

    def alternation(self):
        branches = [self.concatenation()]
        while self.peek() == "|":
            self.pos += 1
            branches.append(self.concatenation())
        return ("alt", branches) if len(branches) > 1 else branches[0]

    def concatenation(self):
        items = []
        while self.peek() is not None and self.peek() not in "|)":
            items.append(self.postfix())
        if not items:
            raise RegexSyntaxError(f"empty branch at {self.pos}")
        return ("cat", items) if len(items) > 1 else items[0]

    def postfix(self):
        node = self.atom()
        while self.peek() in ("*", "+"):
            node = (self.text[self.pos], node)
            self.pos += 1
        return node

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.alternation()
            if self.peek() != ")":
                raise RegexSyntaxError(f"missing ')' at {self.pos}")
            self.pos += 1
            return node
        if c is not None and c.isalpha() and c.islower():
            self.pos += 1
            return ("lit", c)
        raise RegexSyntaxError(f"unexpected {c!r} at {self.pos}")


def _thompson(node, nfa):
    """Returns (start, end); end has no outgoing edges of its own."""
    def new():
        nfa.states += 1
        return nfa.states - 1

    kind = node[0]
    if kind == "lit":
        s, e = new(), new()
        nfa.transitions.setdefault((s, node[1]), set()).add(e)
        return s, e
    if kind == "cat":
        s, e = _thompson(node[1][0], nfa)
        for item in node[1][1:]:
            s2, e2 = _thompson(item, nfa)
            nfa.eps.setdefault(e, set()).add(s2)
            e = e2
        return s, e
    if kind == "alt":
        s, e = new(), new()
        for item in node[1]:
            si, ei = _thompson(item, nfa)
            nfa.eps.setdefault(s, set()).add(si)
            nfa.eps.setdefault(ei, set()).add(e)
        return s, e
    if kind == "*":
        s, e = new(), new()
        si, ei = _thompson(node[1], nfa)
        nfa.eps.setdefault(s, set()).update({si, e})
        nfa.eps.setdefault(ei, set()).update({si, e})
        return s, e
    if kind == "+":
        si, ei = _thompson(node[1], nfa)
        nfa.eps.setdefault(ei, set()).add(si)
        return si, ei
    raise RegexSyntaxError(f"bad node {node!r}")


def _eps_closure(nfa, states):
    out = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in nfa.eps.get(q, ()):
            if r not in out:
                out.add(r)
                stack.append(r)
    return frozenset(out)


def _determinize(nfa):
    alphabet = nfa.alphabet
    start = _eps_closure(nfa, {nfa.initial})
    subsets = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for a in alphabet:
            nxt = set()
            for q in cur:
                nxt |= nfa.transitions.get((q, a), set())
            closed = _eps_closure(nfa, nxt)
            if closed not in subsets:
                subsets[closed] = len(order)
                order.append(closed)
            row.append(subsets[closed])
        delta.append(tuple(row))
        i += 1
    finals = frozenset(i for i, ss in enumerate(order) if ss & nfa.finals)
    return Dfa(alphabet, tuple(delta), 0, finals)


def minimize(d):
    """Trim to reachable states, refine by Moore's algorithm, and rename
    canonically (BFS order); the result is the unique minimal complete DFA."""
    reach = {d.initial}
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for r in d.delta[q]:
            if r not in reach:
                reach.add(r)
                stack.append(r)
    states = sorted(reach)
    remap = {q: i for i, q in enumerate(states)}
    delta = [tuple(remap[d.delta[q][a]] for a in range(len(d.alphabet)))
             for q in states]
    finals = {remap[q] for q in d.finals if q in reach}
    initial = remap[d.initial]

    n = len(states)
    block = sg.kernel_labels(q in finals for q in range(n))
    while True:
        new_block = sg.kernel_labels(
            (block[q],) + tuple(block[r] for r in delta[q]) for q in range(n))
        if new_block == block:
            break
        block = new_block
    m = max(block) + 1
    mdelta = [None] * m
    for q in range(n):
        mdelta[block[q]] = tuple(block[r] for r in delta[q])
    mfinals = frozenset(block[q] for q in finals)
    mi = block[initial]
    # canonical BFS renaming
    seen = {mi: 0}
    order = [mi]
    i = 0
    while i < len(order):
        q = order[i]
        for a in range(len(d.alphabet)):
            r = mdelta[q][a]
            if r not in seen:
                seen[r] = len(order)
                order.append(r)
        i += 1
    final_delta = tuple(
        tuple(seen[mdelta[q][a]] for a in range(len(d.alphabet))) for q in order
    )
    return Dfa(d.alphabet, final_delta,
               0, frozenset(seen[q] for q in mfinals if q in seen))


def parse_regex(text, alphabet=None):
    """Minimal complete DFA of a regex (concatenation, |, *, +, parens)."""
    if not text:
        raise RegexSyntaxError("empty regex")
    node = _RegexParser(text).parse()
    letters = sorted(set(c for c in text if c.isalpha() and c.islower()))
    if alphabet is not None:
        if not set(letters) <= set(alphabet):
            raise RegexSyntaxError("regex uses letters outside the alphabet")
        letters = sorted(alphabet)
    nfa = _Nfa(tuple(letters))
    s, e = _thompson(node, nfa)
    nfa.initial = s
    nfa.finals = frozenset({e})
    return minimize(_determinize(nfa))


# ---------------------------------------------------------------------------
# Syntactic semigroups


@dataclass
class SyntacticSemigroup:
    semigroup: sg.FiniteSemigroup
    maps: tuple  # the transformation each element induces on the DFA states
    letter_of: dict  # letter -> element index
    accepting: frozenset  # elements whose map sends initial into finals

    def eval(self, word):
        acc = None
        for ch in word:
            x = self.letter_of[ch]
            acc = x if acc is None else self.semigroup.table[acc][x]
        return acc


def syntactic_semigroup(d):
    """Transition semigroup of the minimal DFA: closure of the letter maps
    under composition, within sg.CLOSURE_BUDGET elements."""
    d = minimize(d)
    letter_maps = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]

    def compose(f, g):  # f, then g
        return tuple(map(g.__getitem__, f))

    maps, index = sg.closure(letter_maps, compose)
    table = sg.cayley(maps, index, compose)
    S = sg.FiniteSemigroup(table, check=False)
    letter_of = {d.alphabet[a]: index[letter_maps[a]] for a in range(len(d.alphabet))}
    accepting = frozenset(i for i, mp in enumerate(maps) if mp[d.initial] in d.finals)
    return SyntacticSemigroup(S, tuple(maps), letter_of, accepting)


# ---------------------------------------------------------------------------
# Marked products


def marked_product(d1, a, d2):
    """DFA for L1 a L2 via the NFA that adds a marker jump from final
    states of L1 to the start of L2."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("marked product needs a shared alphabet")
    alphabet = d1.alphabet
    n1 = d1.states
    nfa = _Nfa(alphabet)
    nfa.states = n1 + d2.states
    for q in range(n1):
        for i, letter in enumerate(alphabet):
            nfa.transitions.setdefault((q, letter), set()).add(d1.delta[q][i])
    for q in range(d2.states):
        for i, letter in enumerate(alphabet):
            nfa.transitions.setdefault((n1 + q, letter), set()).add(
                n1 + d2.delta[q][i])
    for f in d1.finals:
        nfa.transitions.setdefault((f, a), set()).add(n1 + d2.initial)
    nfa.initial = d1.initial
    nfa.finals = frozenset(n1 + q for q in d2.finals)
    return minimize(_determinize(nfa))


def is_unambiguous(d1, a, d2):
    """Every word of L1 a L2 has exactly one factorization u a v with
    u in L1, v in L2: no reachable two-marker configuration accepts."""
    alphabet = d1.alphabet
    ai = alphabet.index(a)
    # phases: ("A", q1) before any marker; ("B", q2, q1') tracking one
    # factorization in L2 and a later-marker candidate still in L1;
    # ("C", q2, q2') two factorizations in L2
    start = ("A", d1.initial)
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        succs = []
        if state[0] == "A":
            q1 = state[1]
            for i in range(len(alphabet)):
                succs.append(("A", d1.delta[q1][i]))
            if q1 in d1.finals:
                succs.append(("B", d2.initial, d1.delta[q1][ai]))
        elif state[0] == "B":
            _, q2, q1 = state
            for i in range(len(alphabet)):
                succs.append(("B", d2.delta[q2][i], d1.delta[q1][i]))
            if q1 in d1.finals:
                succs.append(("C", d2.delta[q2][ai], d2.initial))
        else:
            _, q2, q2b = state
            if q2 in d2.finals and q2b in d2.finals:
                return False
            for i in range(len(alphabet)):
                succs.append(("C", d2.delta[q2][i], d2.delta[q2b][i]))
        for s in succs:
            if s[0] == "C" and s[1] in d2.finals and s[2] in d2.finals:
                return False
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return True


def is_left_deterministic(d1, a, d2):
    """Every word of L1 a L2 has exactly one prefix in L1 a."""
    alphabet = d1.alphabet
    ai = alphabet.index(a)
    prod = marked_product(d1, a, d2)
    # track (product-state, d1-state, #prefixes-in-L1a capped at 2)
    start = (prod.initial, d1.initial, 0)
    seen = {start}
    stack = [start]
    while stack:
        p, q1, cnt = stack.pop()
        for i in range(len(alphabet)):
            bump = 1 if (i == ai and q1 in d1.finals) else 0
            nxt = (prod.delta[p][i], d1.delta[q1][i], min(2, cnt + bump))
            if nxt[0] in prod.finals and nxt[2] >= 2:
                return False
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def reverse_dfa(d):
    """Minimal DFA of the reversed language."""
    alphabet = d.alphabet
    nfa = _Nfa(alphabet)
    nfa.states = d.states + 1
    fresh = d.states
    for q in range(d.states):
        for i, letter in enumerate(alphabet):
            nfa.transitions.setdefault((d.delta[q][i], letter), set()).add(q)
    for f in d.finals:
        nfa.eps.setdefault(fresh, set()).add(f)
    nfa.initial = fresh
    nfa.finals = frozenset({d.initial})
    return minimize(_determinize(nfa))


def is_right_deterministic(d1, a, d2):
    """Every word of L1 a L2 has exactly one suffix in a L2 (the mirror
    condition, checked on the reversed languages)."""
    return is_left_deterministic(reverse_dfa(d2), a, reverse_dfa(d1))
