"""Braid words on n strands, stored as shared-subterm DAGs.

A word is a tree (with sharing) over five node kinds: literal runs of
generators sigma_i^{+-1}, concatenations, inverses, integer powers, and
group commutators [x, y] = x y x^-1 y^-1.  Sharing matters: the words the
approximation engine produces nest commutators of commutators, and their
flattened length can be exponential in the DAG size.

Free reduction (cancelling sigma_i sigma_i^-1) happens only when a word is
flattened to a literal sequence, never inside the DAG, so evaluation order
is deterministic.

The surface grammar (parse/format round-trip):

    word := term*            terms separated by whitespace
    term := atom ("^" int)?
    atom := "s" index        generator sigma_i
          | "S" index        its inverse
          | "A" index index  pure-braid twist A_ij (two single digits,
                             or parenthesized: "A(10)(12)")
          | "[" word "," word "]"
          | "(" word ")"
          | NAME             resolved through a let-binding table

Indices are 1-based.  Names are user bindings (for example ALPHA); the
reserved shapes "s<digits>", "S<digits>", "A<digits>" cannot be bound.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .laurent import square_and_multiply


class ParseError(ValueError):
    """Syntax error in a braid-word string, with position and expectations."""

    def __init__(self, text: str, pos: int, expected: Sequence[str], message: str = ""):
        self.text = text
        self.pos = pos
        self.expected = tuple(expected)
        detail = message or f"expected {', '.join(self.expected)}"
        super().__init__(f"parse error at position {pos}: {detail}")


class IndexOutOfRange(ValueError):
    """A strand or generator index outside the valid range for this n."""


# ---------------------------------------------------------------------------
# permutations


class Perm:
    """A permutation of {1..n}, composed left-to-right: (p * q)(i) = q(p(i)).

    Words act left-to-right as well, so the permutation of a concatenation
    uv is word_permutation(u) * word_permutation(v).
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        self.images = tuple(images)
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a permutation of 1..n")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @staticmethod
    def transposition(n: int, i: int, j: int | None = None) -> "Perm":
        j = i + 1 if j is None else j
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Perm(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Perm(other.images[i - 1] for i in self.images)

    def inverse(self) -> "Perm":
        out = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return Perm(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def all_perms(n: int) -> list[Perm]:
    """All n! permutations, in lexicographic order of their image tuples."""
    import itertools
    return [Perm(p) for p in itertools.permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# word DAG


class BraidWord:
    """Base class of word nodes; all nodes are immutable after construction.

    A node is equal only to itself and hashes by identity, so a dict keyed
    by nodes holds the nodes it keys."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("strand count must be positive")
        self.n = n

    def _check(self, other: "BraidWord") -> None:
        if self.n != other.n:
            raise ValueError("strand-count mismatch")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        self._check(other)
        return Concat(self.n, (self, other))

    def __pow__(self, k: int) -> "BraidWord":
        return Power(self.n, self, k)

    def inverse(self) -> "BraidWord":
        return Inverse(self.n, self)

    def __repr__(self) -> str:
        # the text of a shared DAG can be exponential in its size; the node
        # count is linear
        return f"{type(self).__name__}(n={self.n}, nodes={node_count(self)})"


class Literal(BraidWord):
    __slots__ = ("letters",)

    def __init__(self, n: int, letters: Iterable[tuple[int, int]] = ()):
        super().__init__(n)
        self.letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in self.letters:
            if not 1 <= i <= n - 1:
                raise IndexOutOfRange(f"generator index {i} not in 1..{n - 1}")
            if s not in (1, -1):
                raise ValueError("generator sign must be +-1")


class Concat(BraidWord):
    __slots__ = ("parts",)

    def __init__(self, n: int, parts: Iterable[BraidWord]):
        super().__init__(n)
        self.parts = tuple(parts)
        for p in self.parts:
            self._check(p)


class Inverse(BraidWord):
    __slots__ = ("child",)

    def __init__(self, n: int, child: BraidWord):
        super().__init__(n)
        self._check(child)
        self.child = child


class Power(BraidWord):
    __slots__ = ("child", "exponent")

    def __init__(self, n: int, child: BraidWord, exponent: int):
        super().__init__(n)
        self._check(child)
        self.child = child
        self.exponent = int(exponent)


class Commutator(BraidWord):
    """[x, y] = x y x^-1 y^-1."""

    __slots__ = ("left", "right")

    def __init__(self, n: int, left: BraidWord, right: BraidWord):
        super().__init__(n)
        self._check(left)
        self._check(right)
        self.left = left
        self.right = right


# -- constructors ------------------------------------------------------------


def empty_word(n: int) -> Literal:
    return Literal(n)

def gen(n: int, i: int, sign: int = 1) -> Literal:
    """The generator sigma_i (sign +1) or its inverse (sign -1)."""
    return Literal(n, [(i, sign)])

def concat(*words: BraidWord) -> BraidWord:
    if not words:
        raise ValueError("concat needs at least one word")
    if len(words) == 1:
        return words[0]
    return Concat(words[0].n, words)

def commutator(x: BraidWord, y: BraidWord) -> Commutator:
    return Commutator(x.n, x, y)


def pure_gen(n: int, i: int, j: int) -> Literal:
    """The pure-braid twist A_ij = (sigma_{j-1}..sigma_{i+1}) sigma_i^2
    (sigma_{i+1}^-1..sigma_{j-1}^-1), for 1 <= i < j <= n.

    The word has trivial permutation image, and its image under the Burau
    map has first-order coefficient X_ij; the latter is asserted by the
    test suite, which is what pins this convention down.
    """
    if not (1 <= i < j <= n):
        raise IndexOutOfRange(f"need 1 <= i < j <= n, got ({i}, {j}) at n={n}")
    letters = [(r, 1) for r in range(j - 1, i, -1)]
    letters += [(i, 1), (i, 1)]
    letters += [(r, -1) for r in range(i + 1, j)]
    return Literal(n, letters)


# -- the word fold -----------------------------------------------------------

V = TypeVar("V")
Letters = tuple[tuple[int, int], ...]
_UNSEEN = object()


def _mul_all(values: list) -> object:
    return functools.reduce(operator.mul, values)


def fold(w: BraidWord, leaf: Callable[[Letters], V], one: V,
         product: Callable[[list[V]], V] = _mul_all,
         memo: dict[tuple[BraidWord, bool], V] | None = None,
         power: Callable[[V, int], V] | None = None) -> V:
    """Evaluate w in a monoid, once per shared node and inverse flag.

    ``leaf(letters)`` is the value of a literal run, its letters already
    reversed and negated under an inverse; ``one`` is the identity;
    ``product(values)`` multiplies a non-empty list left to right (by ``*``
    unless given).  Inverses are pushed down to the leaves, so the monoid
    needs no inversion.  ``power(value, k)`` raises the value of a power's
    child, under the inverse flag that the exponent's sign implies, to
    k = |exponent| >= 0; unless given, it is ``square_and_multiply``
    through ``product`` of two values.  Every node is folded, the child of
    a zero power too.  ``memo``, when given, receives the value of every
    (node, inverse flag) folded.
    """
    memo = {} if memo is None else memo
    if power is None:
        def power(value: V, k: int) -> V:
            return square_and_multiply(value, k,
                                       lambda a, b: product([a, b]), one)

    def go(node: BraidWord, inv: bool) -> V:
        key = (node, inv)
        got = memo.get(key, _UNSEEN)
        if got is not _UNSEEN:
            return got
        if isinstance(node, Literal):
            out = leaf(tuple((i, -s) for i, s in reversed(node.letters))
                       if inv else node.letters)
        elif isinstance(node, Concat):
            parts = reversed(node.parts) if inv else node.parts
            values = [go(p, inv) for p in parts]
            out = product(values) if values else one
        elif isinstance(node, Inverse):
            out = go(node.child, not inv)
        elif isinstance(node, Power):
            k = node.exponent
            out = power(go(node.child, inv != (k < 0)), abs(k))
        elif isinstance(node, Commutator):
            x, y = (node.right, node.left) if inv else (node.left, node.right)
            out = product([go(x, False), go(y, False), go(x, True), go(y, True)])
        else:
            raise TypeError(f"unknown word node {type(node).__name__}")
        memo[key] = out
        return out

    return go(w, False)


def word_permutation(w: BraidWord) -> Perm:
    """The image of w in S_n (left-to-right composition; sigma_i -> (i, i+1))."""
    n = w.n
    one = Perm.identity(n)
    return fold(w, lambda letters: _mul_all(
        [one] + [Perm.transposition(n, i) for i, _sign in letters]), one)


def perm_lift(p: Perm) -> Literal:
    """A positive word with word_permutation(perm_lift(p)) = p.

    Bubble sort of the one-line form by adjacent position swaps; the swap
    sequence, read in the order performed, is the generator sequence.
    """
    line = list(p.images)
    letters: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(line) - 1):
            if line[j] > line[j + 1]:
                line[j], line[j + 1] = line[j + 1], line[j]
                letters.append((j + 1, 1))
                changed = True
    out = Literal(p.n, letters)
    assert word_permutation(out) == p
    return out


def flatten(w: BraidWord, cap: int | None = None) -> Letters:
    """Freely reduced literal sequence of w.

    Free reduction is applied here and only here.  If the reduced length of
    any intermediate exceeds ``cap``, a ValueError is raised; DAG words can
    be exponentially longer than their node count.  A negative cap is a
    ValueError before any folding.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")

    def splice(seqs: Iterable[Letters]) -> Letters:
        acc: list[tuple[int, int]] = []
        for seq in seqs:
            for letter in seq:
                if acc and acc[-1][0] == letter[0] and acc[-1][1] == -letter[1]:
                    acc.pop()
                else:
                    acc.append(letter)
            if cap is not None and len(acc) > cap:
                raise ValueError(f"flattened word exceeds cap of {cap} letters")
        return tuple(acc)

    return fold(w, lambda letters: splice([letters]), (), splice)


def node_count(w: BraidWord) -> int:
    """Number of distinct DAG nodes (shared subterms counted once)."""
    memo: dict[tuple[BraidWord, bool], None] = {}
    fold(w, lambda letters: None, None, lambda values: None, memo)
    return len({node for node, _inv in memo})


def letter_bound(w: BraidWord) -> int:
    """Upper bound on flattened length, computed without expanding."""
    return fold(w, len, 0, sum)


# ---------------------------------------------------------------------------
# formatting


def _format_node(node: BraidWord) -> str:
    if isinstance(node, Literal):
        parts = []
        run_gen, run_sign, run_len = None, 0, 0

        def emit():
            if run_len == 0:
                return
            if run_sign > 0:
                parts.append(f"s{run_gen}" if run_len == 1 else f"s{run_gen}^{run_len}")
            else:
                parts.append(f"S{run_gen}" if run_len == 1 else f"s{run_gen}^-{run_len}")

        for i, s in node.letters:
            if i == run_gen and s == run_sign:
                run_len += 1
            else:
                emit()
                run_gen, run_sign, run_len = i, s, 1
        emit()
        return " ".join(parts)
    if isinstance(node, Concat):
        return " ".join(filter(None, (_format_node(p) for p in node.parts)))
    if isinstance(node, Inverse):
        return f"({_format_node(node.child)})^-1"
    if isinstance(node, Power):
        inner = _format_node(node.child)
        atomic = isinstance(node.child, Commutator) or (
            isinstance(node.child, Literal) and len(node.child.letters) == 1
            and node.child.letters[0][1] == 1)
        body = inner if atomic else f"({inner})"
        return f"{body}^{node.exponent}"
    if isinstance(node, Commutator):
        return f"[{_format_node(node.left)},{_format_node(node.right)}]"
    raise TypeError(f"unknown word node {type(node).__name__}")


def word_format(w: BraidWord) -> str:
    """Grammar string for w; parse(format(w)) evaluates to the same element."""
    return _format_node(w)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>-?\d+)
  | (?P<lbrack>\[) | (?P<rbrack>\]) | (?P<comma>,)
  | (?P<lparen>\() | (?P<rparen>\)) | (?P<caret>\^)
""", re.VERBOSE)

_GEN_SHAPE = re.compile(r"^(?P<kind>[sS])(?P<index>\d+)$")
_PURE_SHAPE = re.compile(r"^A(?P<i>\d)(?P<j>\d)$")
_RESERVED = re.compile(r"^([sS]\d*|A\d*)$")


def reserved_name(name: str) -> bool:
    """True for names that collide with generator syntax and cannot be bound."""
    return bool(_RESERVED.match(name))


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(text, pos, ("generator", "name", "'['", "'('"),
                                 f"unexpected character {text[pos]!r}")
            if m.lastgroup != "ws":
                self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(self.text, tok[2], (what,))
        return self.next()


class _Parser:
    def __init__(self, text: str, n: int, bindings: Mapping[str, BraidWord],
                 table: dict[tuple, BraidWord] | None = None):
        self.toks = _Tokens(text)
        self.n = n
        self.bindings = bindings
        self.table = table

    def _node(self, key: tuple, make: Callable[[], BraidWord]) -> BraidWord:
        """make(), or with an intern table the node it holds under key:
        the node type, then the child nodes and the letters or exponent."""
        if self.table is None:
            return make()
        key = (self.n, *key)
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = make()
        return node

    def parse(self) -> BraidWord:
        w = self.word()
        kind, _val, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError(self.toks.text, pos, ("end of input",))
        return w

    def word(self) -> BraidWord:
        terms = []
        while self.toks.peek()[0] in ("name", "lbrack", "lparen"):
            terms.append(self.term())
        if not terms:
            return self._node((Literal, ()), lambda: empty_word(self.n))
        if len(terms) == 1:
            return terms[0]
        return self._node((Concat, *terms),
                          lambda: Concat(self.n, terms))

    def term(self) -> BraidWord:
        group = self.toks.peek()[0] == "lparen"
        atom = self.atom()
        if self.toks.peek()[0] == "caret":
            self.toks.next()
            kind, val, pos = self.toks.peek()
            if kind != "int":
                raise ParseError(self.toks.text, pos, ("integer exponent",))
            self.toks.next()
            k = int(val)
            if group and k == -1:
                # "(x)^-1" is how word_format writes an Inverse node
                return self._node((Inverse, atom),
                                  lambda: Inverse(self.n, atom))
            return self._node((Power, atom, k),
                              lambda: Power(self.n, atom, k))
        return atom

    def _index(self, after: str) -> int:
        """An index: inline digits already consumed by the name token, or
        a parenthesized integer."""
        kind, val, pos = self.toks.peek()
        if kind == "lparen":
            self.toks.next()
            kind, val, pos = self.toks.expect("int", "index")
            idx = int(val)
            self.toks.expect("rparen", "')'")
            if idx < 1:
                raise ParseError(self.toks.text, pos, ("positive index",),
                                 f"index must be >= 1 after {after}")
            return idx
        raise ParseError(self.toks.text, pos, ("'(' index ')'",),
                         f"expected an index after {after}")

    def atom(self) -> BraidWord:
        kind, val, pos = self.toks.next()
        if kind == "lbrack":
            left = self.word()
            self.toks.expect("comma", "','")
            right = self.word()
            self.toks.expect("rbrack", "']'")
            return self._node((Commutator, left, right),
                              lambda: Commutator(self.n, left, right))
        if kind == "lparen":
            inner = self.word()
            self.toks.expect("rparen", "')'")
            return inner
        if kind == "name":
            m = _GEN_SHAPE.match(val)
            if m:
                return self._gen(int(m.group("index")), m.group("kind"), pos)
            if val in ("s", "S"):
                return self._gen(self._index(f"'{val}'"), val, pos)
            m = _PURE_SHAPE.match(val)
            if m:
                return self._pure(int(m.group("i")), int(m.group("j")), pos)
            if val == "A":
                i = self._index("'A'")
                j = self._index(f"'A({i})'")
                return self._pure(i, j, pos)
            if reserved_name(val):
                raise ParseError(self.toks.text, pos, ("valid atom",),
                                 f"malformed generator atom {val!r}")
            bound = self.bindings.get(val)
            if bound is None:
                raise ParseError(self.toks.text, pos, ("bound name",),
                                 f"unbound name {val!r}")
            if bound.n != self.n:
                raise ParseError(self.toks.text, pos, ("binding for this n",),
                                 f"binding {val!r} is on {bound.n} strands, not {self.n}")
            return bound
        raise ParseError(self.toks.text, pos, ("atom",))

    def _gen(self, i: int, kind: str, pos: int) -> BraidWord:
        if not 1 <= i <= self.n - 1:
            raise IndexOutOfRange(
                f"generator index {i} not in 1..{self.n - 1} (at position {pos})")
        sign = 1 if kind == "s" else -1
        return self._node((Literal, ((i, sign),)),
                          lambda: gen(self.n, i, sign))

    def _pure(self, i: int, j: int, pos: int) -> BraidWord:
        if not (1 <= i < j <= self.n):
            raise IndexOutOfRange(
                f"twist indices ({i},{j}) invalid for n={self.n} (at position {pos})")
        word = pure_gen(self.n, i, j)
        return self._node((Literal, word.letters), lambda: word)


def parse_word(text: str, n: int,
               bindings: Mapping[str, BraidWord] | None = None,
               table: dict[tuple, BraidWord] | None = None) -> BraidWord:
    """Parse a word in the surface grammar.  Empty input is the empty word.

    ``table``, when given, interns the nodes: a subword parsed again,
    here or in any word parsed through the same table, is the node made
    the first time.  The structure, and so ``word_format``, is the same.
    """
    return _Parser(text, n, bindings or {}, table).parse()


# ---------------------------------------------------------------------------
# named elements


def alpha_word(n: int = 5) -> BraidWord:
    """The depth-3 product [A13,A23][A24,A14][A14,A34][A34,A24].

    Needs n >= 4.  Its image under the Burau map lies two filtration steps
    deeper than a generic pure-braid commutator; the degree-3 coefficient is
    X_24 - X_13 (asserted in the test suite).
    """
    pairs = (((1, 3), (2, 3)), ((2, 4), (1, 4)), ((1, 4), (3, 4)), ((3, 4), (2, 4)))
    return concat(*(commutator(pure_gen(n, i, j), pure_gen(n, k, l))
                    for (i, j), (k, l) in pairs))


def delta_word(n: int = 5) -> BraidWord:
    """The depth-5 element [A25^2 A45, [alpha, sigma_4]].  Needs n >= 5."""
    head = Power(n, pure_gen(n, 2, 5), 2) * pure_gen(n, 4, 5)
    return commutator(head, commutator(alpha_word(n), gen(n, 4)))
