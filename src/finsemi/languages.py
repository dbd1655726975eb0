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


def _reachable(starts, successors):
    """The states reachable from starts, where successors(q) lists the
    states one step from q, as a dict from each state to its position in
    breadth-first order (iteration follows that order)."""
    order = list(dict.fromkeys(starts))
    position = {q: i for i, q in enumerate(order)}
    for q in order:  # also visits the states appended on the way
        for r in successors(q):
            if r not in position:
                position[r] = len(order)
                order.append(r)
    return position


def _determinize(nfa):
    rows = {}  # subset -> its successor subsets, one per letter

    def successors(subset):
        row = []
        for a in nfa.alphabet:
            nxt = set()
            for q in subset:
                nxt |= nfa.transitions.get((q, a), set())
            row.append(_eps_closure(nfa, nxt))
        rows[subset] = row
        return row

    position = _reachable([_eps_closure(nfa, {nfa.initial})], successors)
    delta = tuple(tuple(position[r] for r in rows[subset]) for subset in position)
    finals = frozenset(i for subset, i in position.items() if subset & nfa.finals)
    return Dfa(nfa.alphabet, delta, 0, finals)


def minimize(d):
    """Refine by Moore's algorithm and rename canonically (BFS order from
    the initial block); the result is the unique minimal complete DFA.
    Unreachable states change no class of a reachable one, and the
    renaming drops the blocks that hold no reachable state."""
    n = d.states
    block = sg.kernel_labels(q in d.finals for q in range(n))
    while True:
        new_block = sg.kernel_labels(
            (block[q],) + tuple(block[r] for r in d.delta[q]) for q in range(n))
        if new_block == block:
            break
        block = new_block
    m = max(block) + 1
    mdelta = [None] * m
    for q in range(n):
        mdelta[block[q]] = tuple(block[r] for r in d.delta[q])
    position = _reachable([block[d.initial]], mdelta.__getitem__)
    delta = tuple(tuple(position[r] for r in mdelta[b]) for b in position)
    finals = frozenset(position[block[q]] for q in d.finals if block[q] in position)
    return Dfa(d.alphabet, delta, 0, finals)


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
    letter_of: dict  # letter -> element index
    accepting: frozenset  # elements whose map sends initial into finals

    def eval(self, word):
        acc = None
        for ch in word:
            x = self.letter_of[ch]
            acc = x if acc is None else self.semigroup.table[acc][x]
        return acc


def syntactic_semigroup(d):
    """Transition semigroup of d, which must be a minimal complete DFA (as
    parse_regex, marked_product and reverse_dfa return): closure of the
    letter maps under composition, within sg.CLOSURE_BUDGET elements.  Of
    a DFA that is not minimal this is the transition semigroup, which may
    be larger than the syntactic one."""
    letter_maps = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]

    def compose(f, g):  # f, then g
        return tuple(map(g.__getitem__, f))

    maps, index = sg.closure(letter_maps, compose)
    table = sg.cayley(maps, index, compose)
    S = sg.FiniteSemigroup(table, check=False)
    letter_of = {d.alphabet[a]: index[letter_maps[a]] for a in range(len(d.alphabet))}
    accepting = frozenset(i for i, mp in enumerate(maps) if mp[d.initial] in d.finals)
    return SyntacticSemigroup(S, letter_of, accepting)


# ---------------------------------------------------------------------------
# Marked products


def _marker_index(d1, a, d2):
    """The position of the marker a in the alphabet that d1 and d2 share;
    ValueError when they do not share one or a is not in it."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("marked product needs a shared alphabet")
    if a not in d1.alphabet:
        raise ValueError(f"marker {a!r} is not a letter of the alphabet {d1.alphabet!r}")
    return d1.alphabet.index(a)


def marked_product(d1, a, d2):
    """DFA for L1 a L2 via the NFA that adds a marker jump from final
    states of L1 to the start of L2."""
    _marker_index(d1, a, d2)
    alphabet = d1.alphabet
    n1 = d1.states
    nfa = _Nfa(alphabet)
    for offset, d in ((0, d1), (n1, d2)):
        for q, row in enumerate(d.delta):
            for letter, r in zip(alphabet, row):
                nfa.transitions[offset + q, letter] = {offset + r}
    for f in d1.finals:
        nfa.transitions.setdefault((f, a), set()).add(n1 + d2.initial)
    nfa.initial = d1.initial
    nfa.finals = frozenset(n1 + q for q in d2.finals)
    return minimize(_determinize(nfa))


def is_unambiguous(d1, a, d2):
    """Every word of L1 a L2 has exactly one factorization u a v with
    u in L1, v in L2: no reachable two-marker configuration accepts."""
    ai = _marker_index(d1, a, d2)
    letters = range(len(d1.alphabet))

    # phases: ("A", q1) before any marker; ("B", q2, q1') tracking one
    # factorization in L2 and a later-marker candidate still in L1;
    # ("C", q2, q2') two factorizations in L2
    def successors(state):
        if state[0] == "A":
            q1 = state[1]
            succs = [("A", d1.delta[q1][i]) for i in letters]
            if q1 in d1.finals:
                succs.append(("B", d2.initial, d1.delta[q1][ai]))
        elif state[0] == "B":
            _, q2, q1 = state
            succs = [("B", d2.delta[q2][i], d1.delta[q1][i]) for i in letters]
            if q1 in d1.finals:
                succs.append(("C", d2.delta[q2][ai], d2.initial))
        else:
            _, q2, q2b = state
            succs = [("C", d2.delta[q2][i], d2.delta[q2b][i]) for i in letters]
        return succs

    reachable = _reachable([("A", d1.initial)], successors)
    return not any(state[0] == "C" and state[1] in d2.finals and state[2] in d2.finals
                   for state in reachable)


def is_left_deterministic(d1, a, d2):
    """Every word of L1 a L2 has exactly one prefix in L1 a."""
    ai = _marker_index(d1, a, d2)
    prod = marked_product(d1, a, d2)
    letters = range(len(d1.alphabet))

    # track (product-state, d1-state, #prefixes-in-L1a capped at 2); the
    # marker read in a final state of d1 ends one more prefix in L1 a
    def successors(state):
        p, q1, cnt = state
        bumped = min(2, cnt + 1) if q1 in d1.finals else cnt
        return [(prod.delta[p][i], d1.delta[q1][i], bumped if i == ai else cnt)
                for i in letters]

    reachable = _reachable([(prod.initial, d1.initial, 0)], successors)
    return not any(p in prod.finals and cnt >= 2 for p, _, cnt in reachable)


def reverse_dfa(d):
    """Minimal DFA of the reversed language."""
    alphabet = d.alphabet
    nfa = _Nfa(alphabet)
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
