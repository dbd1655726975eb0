"""Omega-terms: the term language of limit powers over finite semigroups.

A term is a letter, a concatenation, or a power t^e where e is either an
integer >= 2 or a limit exponent: omega+q (the limit of n!+q) or
p^omega+q (the limit of p^(n!)+q, p prime).  Every term has a
well-defined value in every finite semigroup under every assignment of
its letters.

Letters are arbitrary hashable symbols; plain identities use one-char
strings or x1, x2, ...; the window calculus reuses the same machinery
with tuples of letters as opaque block symbols.
"""

import operator
from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .errors import BudgetExceeded, TermSyntaxError, UnboundLetter


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Exponent:
    """A limit exponent: kind 'omega' (n!+offset) or 'primeomega' (p^(n!)+offset)."""

    kind: str
    p: int | None
    offset: int

    def __post_init__(self):
        if self.p is not None:
            _check_int("p", self.p)
        _check_int("offset", self.offset)
        if self.kind not in ("omega", "primeomega"):
            raise ValueError(f"bad exponent kind {self.kind!r}")
        if self.kind == "primeomega" and not (self.p and _is_prime(self.p)):
            raise ValueError(f"primeomega requires a prime, got {self.p!r}")
        if self.kind == "omega" and self.p is not None:
            raise ValueError("omega exponent carries no prime")

    def __hash__(self):
        # hash(None) is the address of None before Python 3.12, so the
        # missing prime of an omega exponent hashes as 0
        return hash((self.kind, self.p or 0, self.offset))

    def shifted(self, d):
        offset = self.offset + d
        _check_int("offset", offset)
        return _exponent(self.kind, self.p, offset)


def _check_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"exponent {name} must be an integer, got {value!r}")


@cache
def _exponent(kind, p, offset):
    """The one shared Exponent for its fields.  Check an offset with
    _check_int before calling: True == 1 and 1.0 == 1 hash alike, so an
    unchecked value would be answered with the int's exponent."""
    return Exponent(kind, p, offset)


OMEGA = _exponent("omega", None, 0)


def omega(offset=0):
    _check_int("offset", offset)
    return _exponent("omega", None, offset)


def prime_omega(p, offset=0):
    return Exponent("primeomega", p, offset)


class Term:
    """An omega-term node.  Nodes are hash-consed: each constructor
    validates its fields, then returns the one shared node for them, so
    equal terms are the same object and equality is identity.  The hash
    is structural (the node kind and its fields' stored hashes, never the
    address), computed once and stored; `content` is stored on first use."""

    __slots__ = ("_hash", "_content")

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def _fields(self):
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __reduce__(self):  # pickle and copy go through the constructor
        return (type(self), self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(type(self).__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


def _node(cls, *values):
    """A new node of cls with the given field values, in slot order."""
    node = object.__new__(cls)
    object.__setattr__(node, "_hash", hash((cls.__name__, *values)))
    object.__setattr__(node, "_content", None)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(node, name, value)
    return node


# The intern builders: one node per distinct field tuple, for the life of
# the process.  Never clear them, or equal terms stop being identical.


@cache
def _letter(symbol):
    return _node(Letter, symbol)


@cache
def _concat(parts):
    return _node(Concat, parts)


@cache
def _power(base, exp):
    return _node(Power, base, exp)


class Letter(Term):
    __slots__ = ("symbol",)

    def __new__(cls, symbol):
        return _letter(symbol)

    def __repr__(self):
        return f"Letter({self.symbol!r})"


class Concat(Term):
    __slots__ = ("parts",)

    def __new__(cls, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Concat needs at least two parts")
        if any(isinstance(p, Concat) for p in parts):
            raise ValueError("Concat parts must be flattened")
        return _concat(parts)


class Power(Term):
    __slots__ = ("base", "exp")  # exp: an int >= 2 or an Exponent

    def __new__(cls, base, exp):
        if isinstance(exp, bool) or not isinstance(exp, (int, Exponent)):
            raise ValueError(f"bad exponent {exp!r}")
        if isinstance(exp, int) and exp < 2:
            raise ValueError("integer powers must be >= 2")
        return _power(base, exp)


def concat(*terms):
    """Flattening concatenation constructor."""
    parts = []
    for t in terms:
        if t is None:
            continue
        if isinstance(t, Concat):
            parts.extend(t.parts)
        else:
            parts.append(t)
    return concat_flat(parts)


def concat_flat(parts):
    """concat(*parts) for a list that is already flat, holding no None and
    no Concat, as the certifier's factor lists are: built by the intern
    builder without checking the parts again."""
    if not parts:
        raise ValueError("empty concatenation")
    if len(parts) == 1:
        return parts[0]
    return _concat(tuple(parts))


def power(base, exp):
    """Power constructor; exp 1 collapses to the base."""
    if isinstance(exp, int) and not isinstance(exp, bool):
        if exp == 1:
            return base
        if exp < 1:
            raise ValueError("integer powers must be positive")
    return Power(base, exp)


def word_term(symbols):
    """A term spelling out a finite word (sequence of symbols)."""
    return concat(*[Letter(s) for s in symbols])


# ---------------------------------------------------------------------------
# Parsing and printing (grammar in ASCII: w for omega, ^(p^w+q) for p^omega+q)


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()^+-":
            toks.append((c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append((("int", int(text[i:j])), i))
            i = j
        elif c == "x" and i + 1 < len(text) and text[i + 1].isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append((("letter", text[i:j]), i))
            i = j
        elif c.isalpha() and c.islower():
            toks.append((("letter", c), i))
            i += 1
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def here(self):
        return self.toks[self.pos][1] if self.pos < len(self.toks) else len(self.text)

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, sym):
        if self.peek() != sym:
            raise TermSyntaxError(f"expected {sym!r}", self.here())
        self.take()

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            nxt = self.peek()
            if nxt is None or nxt == ")":
                break
            factors.append(self.parse_factor())
        return concat(*factors)

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp = self.parse_exp()
            if isinstance(exp, int) and exp < 2:
                raise TermSyntaxError("integer powers must be >= 2", self.here())
            return power(atom, exp)
        return atom

    def parse_atom(self):
        nxt = self.peek()
        if nxt == "(":
            self.take()
            t = self.parse_term()
            self.expect(")")
            return t
        if isinstance(nxt, tuple) and nxt[0] == "letter":
            return Letter(self.take()[1])
        raise TermSyntaxError("expected a letter or '('", self.here())

    def parse_exp(self):
        nxt = self.peek()
        if isinstance(nxt, tuple) and nxt[0] == "int":
            return self.take()[1]
        if nxt == ("letter", "w"):
            self.take()
            return OMEGA
        if nxt == "(":
            self.take()
            exp = self._parse_paren_exp()
            self.expect(")")
            return exp
        raise TermSyntaxError("expected an exponent", self.here())

    def _parse_paren_exp(self):
        nxt = self.peek()
        if nxt == ("letter", "w"):
            self.take()
            return omega(self._parse_offset())
        if isinstance(nxt, tuple) and nxt[0] == "int":
            p = self.take()[1]
            self.expect("^")
            if self.peek() != ("letter", "w"):
                raise TermSyntaxError("expected w after p^", self.here())
            self.take()
            return prime_omega(p, self._parse_offset())
        raise TermSyntaxError("expected w or p^w", self.here())

    def _parse_offset(self):
        nxt = self.peek()
        if nxt in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            val = self.peek()
            if not (isinstance(val, tuple) and val[0] == "int"):
                raise TermSyntaxError("expected an integer offset", self.here())
            return sign * self.take()[1]
        return 0


def parse_term(text):
    p = _Parser(text)
    t = p.parse_term()
    if p.pos != len(p.toks):
        raise TermSyntaxError("trailing input", p.here())
    return t


def _exp_to_text(exp):
    if isinstance(exp, int):
        return str(exp)
    if exp.kind == "omega":
        if exp.offset == 0:
            return "w"
        sign = "+" if exp.offset > 0 else "-"
        return f"(w{sign}{abs(exp.offset)})"
    core = f"{exp.p}^w"
    if exp.offset == 0:
        return f"({core})"
    sign = "+" if exp.offset > 0 else "-"
    return f"({core}{sign}{abs(exp.offset)})"


def _sym_text(sym):
    return sym if isinstance(sym, str) else "[" + "".join(map(str, sym)) + "]"


def term_to_text(t):
    if isinstance(t, Letter):
        return _sym_text(t.symbol)
    if isinstance(t, Concat):
        # Concat parts are flattened, so no part needs parentheses
        return " ".join(map(term_to_text, t.parts))
    base = term_to_text(t.base)
    if not isinstance(t.base, Letter):
        base = f"({base})"
    return f"{base}^{_exp_to_text(t.exp)}"


# ---------------------------------------------------------------------------
# Structure


def content(t):
    """The set of letters occurring in t, stored on the node."""
    c = t._content
    if c is None:
        if isinstance(t, Letter):
            c = frozenset((t.symbol,))
        elif isinstance(t, Concat):
            c = frozenset().union(*map(content, t.parts))
        else:
            c = content(t.base)
        object.__setattr__(t, "_content", c)
    return c


def substitute(t, mapping):
    """Simultaneous substitution of terms for letters."""
    if isinstance(t, Letter):
        return mapping.get(t.symbol, t)
    if isinstance(t, Concat):
        return concat(*[substitute(p, mapping) for p in t.parts])
    return power(substitute(t.base, mapping), t.exp)


def reverse_chi(t):
    """The mirror image: concatenations reversed recursively, powers kept."""
    if isinstance(t, Letter):
        return t
    if isinstance(t, Concat):
        return concat(*[reverse_chi(p) for p in reversed(t.parts)])
    return power(reverse_chi(t.base), t.exp)


def prefix_word(t, k):
    """(first min(k, |t|) symbols of t's unfolding, whether |t| <= k)."""
    if k <= 0:
        return ((), False)  # terms are nonempty
    if isinstance(t, Letter):
        return ((t.symbol,), True)
    if isinstance(t, Concat):
        w = []
        for p in t.parts:
            wp, exact = prefix_word(p, k + 1 - len(w))
            w.extend(wp)
            if not exact or len(w) > k:
                return (tuple(w[:k]), False)
        return (tuple(w), True)
    wb, exact = prefix_word(t.base, k + 1)
    if isinstance(t.exp, int):
        if not exact:
            return (tuple(wb[:k]), False)
        full_len = len(wb) * t.exp
        reps = min(t.exp, k // len(wb) + 1)
        w = (tuple(wb) * reps)[:k]
        return (w, full_len <= k)
    # infinite exponent: the unfolding is unbounded
    if exact:
        reps = k // len(wb) + 1
        return ((tuple(wb) * reps)[:k], False)
    return (tuple(wb[:k]), False)


def suffix_word(t, k):
    """(last min(k, |t|) symbols of t's unfolding, whether |t| <= k): the
    mirror of prefix_word, read from the right."""
    if k <= 0:
        return ((), False)
    if isinstance(t, Letter):
        return ((t.symbol,), True)
    if isinstance(t, Concat):
        w = ()
        for p in reversed(t.parts):
            wp, exact = suffix_word(p, k + 1 - len(w))
            w = wp + w
            if not exact or len(w) > k:
                return (w[-k:], False)
        return (w, True)
    wb, exact = suffix_word(t.base, k + 1)
    if isinstance(t.exp, int):
        if not exact:
            return (wb[-k:], False)
        reps = min(t.exp, k // len(wb) + 1)
        return ((wb * reps)[-k:], len(wb) * t.exp <= k)
    # infinite exponent: the unfolding is unbounded
    if exact:
        return ((wb * (k // len(wb) + 1))[-k:], False)
    return (wb[-k:], False)


def _as_word(u):
    """A plain word (string or sequence of symbols) as a tuple of symbols."""
    return tuple(u)


def _exp_minus_one(e):
    """The exponent e - 1, integer or limit."""
    return e - 1 if isinstance(e, int) else e.shifted(-1)


def beta_k(t, k):
    """Length-<=k prefix of the unfolding (the whole word if shorter)."""
    return prefix_word(t, k)[0]


def tau_k(t, k):
    """Length-<=k suffix of the unfolding."""
    return suffix_word(t, k)[0]


def is_finite_word(t):
    """The spelled word if t contains no limit exponent, else None."""
    if isinstance(t, Letter):
        return (t.symbol,)
    if isinstance(t, Concat):
        out = []
        for p in t.parts:
            w = is_finite_word(p)
            if w is None:
                return None
            out.extend(w)
        return tuple(out)
    if isinstance(t.exp, int):
        w = is_finite_word(t.base)
        return None if w is None else w * t.exp
    return None


@dataclass(frozen=True)
class LeftContour:
    """Either a finite word or an ultimately periodic right-infinite word."""

    kind: str  # 'finite' | 'up'
    prefix: tuple
    period: tuple  # empty for finite contours


def _primitive_root(seq):
    """(root, reps) with seq = root repeated reps times and reps maximal;
    works for letter words and for factor sequences alike."""
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return seq[:d], n // d
    return seq, 1


def _normalize_up(prefix, period):
    period = _primitive_root(tuple(period))[0]
    prefix = list(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return LeftContour("up", tuple(prefix), _primitive_root(period)[0])


def left_contour(t):
    """The leftmost unfolding of t: a finite word, or prefix + period of
    the right-infinite word reached at the first infinite power."""
    if isinstance(t, Letter):
        return LeftContour("finite", (t.symbol,), ())
    if isinstance(t, Concat):
        acc = []
        for p in t.parts:
            c = left_contour(p)
            if c.kind == "finite":
                acc.extend(c.prefix)
            else:
                return _normalize_up(tuple(acc) + c.prefix, c.period)
        return LeftContour("finite", tuple(acc), ())
    c = left_contour(t.base)
    if c.kind == "up":
        return c
    if isinstance(t.exp, int):
        return LeftContour("finite", c.prefix * t.exp, ())
    return _normalize_up((), c.prefix)


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(t, S, assignment):
    """Value of t in S under a letter -> element assignment.

    Every step is a read of `S.table` or one of the power methods of S, so
    over the stand-in `_SourceSemigroup` the same walk writes the Python
    expression of the value instead (see `_compiled_check`)."""
    if isinstance(t, Letter):
        try:
            return assignment[t.symbol]
        except KeyError:
            raise UnboundLetter(f"letter {t.symbol!r} not assigned") from None
    if isinstance(t, Concat):
        acc = evaluate(t.parts[0], S, assignment)
        for p in t.parts[1:]:
            acc = S.table[acc][evaluate(p, S, assignment)]
        return acc
    x = evaluate(t.base, S, assignment)
    e = t.exp
    if isinstance(e, int):
        return S.power(x, e)
    if e.kind == "omega":
        return S.omega_power(x, e.offset)
    return S.prime_omega_power(x, e.p, e.offset)


@dataclass(frozen=True)
class PseudoIdentity:
    lhs: Term
    rhs: Term
    alphabet: tuple

    def __post_init__(self):
        vs = content(self.lhs) | content(self.rhs)
        if not vs <= set(self.alphabet):
            raise ValueError("identity uses letters outside its alphabet")

    def __str__(self):
        return f"{term_to_text(self.lhs)} = {term_to_text(self.rhs)}"


def pseudo_identity(lhs, rhs, alphabet=None):
    if alphabet is None:
        alphabet = tuple(sorted(content(lhs) | content(rhs), key=str))
    return PseudoIdentity(lhs, rhs, tuple(alphabet))


def parse_identity(text):
    if "=" not in text:
        raise TermSyntaxError("identity needs '='", len(text))
    lhs_text, rhs_text = text.split("=", 1)
    return pseudo_identity(parse_term(lhs_text), parse_term(rhs_text))


# Past this many characters an operand of the generated code is bound to a
# temporary first.  Each nesting level of a generated expression costs at
# least 3 characters, so nothing nests deeper than 100 levels, well inside
# the 200 that Python's parser accepts.
_MAX_INLINE = 300

# |S|^k assignments that satisfies may check for one identity in k letters.
SATISFIES_BUDGET = 10**7


def _int_text(n):
    """The literal of an int; anything else raises TypeError."""
    return str(operator.index(n))


class _SourceRow:
    __slots__ = ("source", "x")

    def __init__(self, source, x):
        self.source = source
        self.x = x

    def __getitem__(self, y):
        return f"t[{self.x}][{self.source.operand(y)}]"


class _SourceSemigroup:
    """A stand-in semigroup whose values are Python expressions over the
    Cayley table `t`, a semigroup `S` and the letter values v0, v1, ...:
    `evaluate` over it writes the code that computes a term's value.
    Only those generated names, the method names below and int literals
    enter the text.  An operand longer than _MAX_INLINE characters is
    bound to a temporary w0, w1, ... by a statement kept in `lines`."""

    def __init__(self):
        self.table = self
        self.lines = []

    def operand(self, text):
        if len(text) <= _MAX_INLINE:
            return text
        name = f"w{len(self.lines)}"
        self.lines.append(f"{name} = {text}")
        return name

    def __getitem__(self, x):  # a row of the table
        return _SourceRow(self, self.operand(x))

    def power(self, x, n):
        return f"S.power({self.operand(x)}, {_int_text(n)})"

    def omega_power(self, x, offset=0):
        return f"S.omega_power({self.operand(x)}, {_int_text(offset)})"

    def prime_omega_power(self, x, p, offset=0):
        return (f"S.prime_omega_power({self.operand(x)}, {_int_text(p)}, "
                f"{_int_text(offset)})")


@cache
def _compiled_check(pi):
    """The assignment loop of `satisfies` for pi, compiled: a function of
    S and an iterable of assignments, each a tuple of element indices, one
    per letter of pi.alphabet, that returns the first assignment under
    which the two sides differ, as such a tuple, or None.  Letter i of the
    alphabet is the name v<i>; a repeated letter takes its last position,
    as in `dict(zip(alphabet, values))`."""
    k = len(pi.alphabet)
    names = {sym: f"v{i}" for i, sym in enumerate(pi.alphabet)}
    source = _SourceSemigroup()
    lhs = evaluate(pi.lhs, source, names)
    rhs = evaluate(pi.rhs, source, names)
    values = "".join(f"v{i}, " for i in range(k))
    body = "".join(f"        {line}\n" for line in source.lines)
    code = (f"def check(S, assignments):\n"
            f"    t = S.table\n"
            f"    for {values}in assignments:\n"
            f"{body}"
            f"        if {lhs} != {rhs}:\n"
            f"            return ({values})\n"
            f"    return None\n")
    namespace = {}
    exec(compile(code, "<satisfies>", "exec"), namespace)
    return namespace["check"]


def satisfies(S, pi, witness=False):
    """Whether S |= pi, checking all |S|^|alphabet| assignments in
    `itertools.product` order.  pi is compiled once into a loop over the
    Cayley table (`_compiled_check`), so one call runs generated code
    instead of walking the terms for every assignment.

    With witness=True, returns (bool, assignment or None), the assignment
    being the first failing one as a letter -> element dict.  Raises
    BudgetExceeded, before compiling, past SATISFIES_BUDGET assignments."""
    syms = pi.alphabet
    assignments = S.order ** len(syms)
    if assignments > SATISFIES_BUDGET:
        raise BudgetExceeded(f"satisfies search |S|^{len(syms)} = {assignments} "
                             f"exceeds {SATISFIES_BUDGET}")
    values = _compiled_check(pi)(S, iproduct(range(S.order), repeat=len(syms)))
    if values is None:
        return (True, None) if witness else True
    return (False, dict(zip(syms, values))) if witness else False
