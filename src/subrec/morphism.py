"""Alphabet and morphism algebra.

Letters are stored as dense indices; a word is a ``str`` whose characters
are ``chr(index)``.  Display tokens exist only at the I/O boundary: the
tuple ``Morphism.letters`` holds them in index order, and
:func:`parse_morphism`, :meth:`Morphism.encode` and :meth:`Morphism.decode`
translate; words are validated there, so :meth:`Morphism.apply` is one
``str.translate`` by the images tuple.  Image lengths are exact big
integers, never expanded words: a caller that walks consecutive exponents
steps each from the last (:func:`length_rows`, :func:`end_letters`), and
only a lone exponent powers the incidence matrix (:func:`image_lengths`).

A :class:`Morphism` is compared and hashed by value, its fields cannot be
assigned, and everything derived from it (matrix powers, primitivity, the
factor language, the bound constants) is memoized on the instance by
:func:`per_morphism`, so it is computed once and freed with the morphism.
It is a plain ``__slots__`` class, and the result records here and in the
other modules are ``typing.NamedTuple`` classes: importing the package
loads no ``dataclasses`` (nor the ``inspect`` it pulls in), a cost every
fresh interpreter would pay.  The library makes no concurrency promise.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from itertools import count, islice
from operator import or_
from typing import Iterator, NamedTuple

from .errors import InputError, MorphismSyntaxError, SubrecError

Word = str  # characters are chr(letter index)

_BRACKETED = re.compile(r"^\[[^\[\]\s]+\]$")


class Morphism:
    """A non-erasing morphism, given by one image word per letter.

    ``letters[i]`` is the display token of letter ``i`` and ``images[i]``
    its image; all words are index-encoded strings.  Instances are
    hashable and compared by value, and their fields cannot be assigned;
    the memo of derived values takes no part in either.
    """

    __slots__ = ("letters", "images", "_memo", "__weakref__")

    letters: tuple[str, ...]
    images: tuple[Word, ...]
    _memo: dict  # derived values, filled by per_morphism

    def __init__(self, letters: tuple[str, ...], images: tuple[Word, ...]):
        size = len(letters)
        if size == 0:
            raise InputError("empty alphabet")
        if len(images) != size:
            raise InputError("one image per letter required")
        if len(set(letters)) != size:
            raise InputError("display tokens must be pairwise distinct")
        for display, image in zip(letters, images):
            if not image:
                raise InputError(f"image of letter {display!r} is empty")
            for ch in image:
                if ord(ch) >= size:
                    raise InputError(f"image of {display!r} uses an unknown letter")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters and self.images == other.images

    def __hash__(self):
        return hash((self.letters, self.images))

    def __repr__(self):
        return f"Morphism(letters={self.letters!r}, images={self.images!r})"

    def __reduce__(self):
        # pickles and copies carry the fields only and start an empty memo
        return Morphism, (self.letters, self.images)

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def widest(self) -> int:
        """max |sigma(a)| over letters a."""
        return max(len(w) for w in self.images)

    @property
    def narrowest(self) -> int:
        """min |sigma(a)| over letters a."""
        return min(len(w) for w in self.images)

    def apply(self, word: Word) -> Word:
        """sigma(word).  Letter i is chr(i), so the images tuple is a
        translate table; a character past the alphabet is left unchanged."""
        return word.translate(self.images)

    def encode(self, text: str) -> Word:
        """Convert display tokens (contiguous or whitespace-separated) to a word.

        Contiguous text is split as :func:`_is_token` reads a token: a
        bracketed identifier, or one character with the combining marks
        that follow it."""
        by_display = {display: i for i, display in enumerate(self.letters)}
        tokens: list[str] = []
        if any(ch.isspace() for ch in text):
            tokens = text.split()
        else:
            pos = 0
            while pos < len(text):
                if text[pos] == "[":
                    end = text.find("]", pos)
                    if end == -1:
                        raise InputError(f"unterminated bracket token in {text!r}")
                    tokens.append(text[pos : end + 1])
                    pos = end + 1
                else:
                    end = pos + 1
                    while end < len(text) and unicodedata.combining(text[end]):
                        end += 1
                    tokens.append(text[pos:end])
                    pos = end
        try:
            return "".join(chr(by_display[token]) for token in tokens)
        except KeyError as exc:
            raise InputError(f"unknown letter {exc.args[0]!r}") from None

    def decode(self, word: Word) -> str:
        """Render an index-encoded word with display tokens, separated by
        spaces when one of them is longer than a character."""
        chars = set(word)
        require_letters(self, chars)
        if all(len(self.letters[ord(ch)]) == 1 for ch in chars):
            return word.translate(self.letters)
        return " ".join(self.letters[ord(ch)] for ch in word)

    def rules_text(self) -> str:
        lines = []
        for display, image in zip(self.letters, self.images):
            rhs = " ".join(self.letters[ord(ch)] for ch in image)
            lines.append(f"{display} -> {rhs}")
        return "\n".join(lines)


class IncidenceMatrix:
    """Square matrix of arbitrary-precision naturals.

    For a morphism, entry (a, b) counts occurrences of letter a in the
    image of letter b, so column sums are image lengths.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IncidenceMatrix(rows={self.rows!r})"

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IncidenceMatrix") -> "IncidenceMatrix":
        n = self.dim
        cols = tuple(zip(*other.rows))
        return IncidenceMatrix(
            tuple(
                tuple(sum(row[k] * col[k] for k in range(n)) for col in cols)
                for row in self.rows
            )
        )

    def power(self, n: int) -> "IncidenceMatrix":
        """Exact n-th power by square-and-multiply."""
        if n < 0:
            raise InputError("negative matrix power")
        dim = self.dim
        result = identity_matrix(dim)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base if n > 1 else base
            n >>= 1
        return result

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))


def identity_matrix(dim: int) -> IncidenceMatrix:
    return IncidenceMatrix(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))


class FixedPointSeed(NamedTuple):
    """Two-sided fixed point seed: sigma^power(left) ends with left,
    sigma^power(right) starts with right, and left+right is admissible."""

    power: int
    left: str
    right: str


def _is_token(token: str) -> bool:
    """A token is one grapheme cluster (base char plus combining marks)
    or a bracketed identifier."""
    if _BRACKETED.match(token):
        return True
    if not token:
        return False
    if any(unicodedata.combining(ch) for ch in token[:1]):
        return False
    return all(unicodedata.combining(ch) for ch in token[1:])


def parse_morphism(text: str) -> Morphism:
    """Parse the line-oriented rule grammar ``LHS -> RHS``.

    Comment lines start with ``#``; blank lines are skipped; rule order
    defines letter indices.  Refuses with :class:`MorphismSyntaxError`,
    which carries the 1-based line and column.
    """
    order: list[str] = []
    raw_rules: dict[str, list[str]] = {}
    image_tokens: list[tuple[str, int, int]] = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        spans = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        tokens = [t for t, _ in spans]
        if len(tokens) < 2 or tokens[1] != "->":
            col = spans[1][1] if len(spans) > 1 else spans[0][1]
            raise MorphismSyntaxError("expected 'LHS -> RHS'", line_no, col)
        lhs, lhs_col = spans[0]
        if not _is_token(lhs):
            raise MorphismSyntaxError(f"bad token {lhs!r}", line_no, lhs_col)
        if lhs in raw_rules:
            raise MorphismSyntaxError(f"duplicate rule for {lhs!r}", line_no, lhs_col)
        rhs = spans[2:]
        if not rhs:
            raise MorphismSyntaxError(f"rule for {lhs!r} has an empty image", line_no, len(line) + 1)
        for token, col in rhs:
            if not _is_token(token):
                raise MorphismSyntaxError(f"bad token {token!r}", line_no, col)
            image_tokens.append((token, line_no, col))
        order.append(lhs)
        raw_rules[lhs] = [t for t, _ in rhs]

    if not order:
        raise MorphismSyntaxError("no rules found", 1, 1)
    index = {token: i for i, token in enumerate(order)}
    for token, line_no, col in image_tokens:
        if token not in index:
            raise MorphismSyntaxError(f"no rule for letter {token!r}", line_no, col)

    images = tuple("".join(chr(index[t]) for t in raw_rules[tok]) for tok in order)
    return Morphism(tuple(order), images)


def per_morphism(fn):
    """Memoize ``fn(m, *args)`` on the morphism ``m``.

    Values are keyed by the arguments as given and live exactly as long
    as ``m``.  A library refusal (a :class:`SubrecError`) is stored too:
    a later call raises it again, with a fresh traceback, and does not
    run ``fn`` a second time.  Other exceptions are not stored."""

    @functools.wraps(fn)
    def memoized(m: Morphism, *args):
        key = (fn, args)
        memo = m._memo
        if key not in memo:
            try:
                memo[key] = fn(m, *args)
            except SubrecError as exc:
                memo[key] = exc
                raise
        value = memo[key]
        if isinstance(value, SubrecError):
            raise value.with_traceback(None)
        return value

    return memoized


def incidence_matrix(m: Morphism) -> IncidenceMatrix:
    size = m.size
    rows = [[0] * size for _ in range(size)]
    for b, image in enumerate(m.images):
        for ch in image:
            rows[ord(ch)][b] += 1
    return IncidenceMatrix(tuple(tuple(row) for row in rows))


@per_morphism
def image_lengths(m: Morphism, n: int) -> tuple[int, ...]:
    """|sigma^n(a)| for every letter a at a lone n, via matrix powers (exact)."""
    return incidence_matrix(m).power(n).column_sums()


def length_rows(m: Morphism) -> Iterator[list[int]]:
    """The rows 1^T M^n of image lengths for n = 0, 1, ..., each from the
    last: |sigma^n(a)| sums |sigma^(n-1)(c)| over the letters c of
    sigma(a).  Not memoized, as the rows of a large alphabet grow long."""
    codes = [[ord(c) for c in image] for image in m.images]
    row = [1] * m.size
    while True:
        yield row
        row = [sum(map(row.__getitem__, code)) for code in codes]


def extreme_lengths(m: Morphism, n: int) -> tuple[int, int]:
    """(|sigma^n|, <sigma^n>): widest and narrowest image lengths of sigma^n."""
    sums = image_lengths(m, n)
    return max(sums), min(sums)


def power(m: Morphism, n: int) -> Morphism:
    """The morphism sigma^n over the same alphabet (n >= 1)."""
    if n < 1:
        raise InputError("power must be >= 1")
    images = m.images
    for _ in range(n - 1):
        images = tuple(m.apply(w) for w in images)
    return Morphism(m.letters, images)


def wielandt_bound(dim: int) -> int:
    return dim * dim - 2 * dim + 2


def is_primitive(matrix: IncidenceMatrix) -> int | None:
    """The smallest k with M^k > 0, or None when M is not primitive; a
    witness is >= 1, so the value is truthy exactly for primitive M.

    Only the positivity pattern matters: column b of M^k is a bit set,
    the union of the columns of M^(k-1) at the rows of column b of M; the
    verdict is conclusive either way because a primitive d x d matrix
    must have M^k > 0 for some k <= d^2 - 2d + 2.
    """
    dim, full = matrix.dim, (1 << matrix.dim) - 1
    sources = [[a for a in range(dim) if matrix.rows[a][b]] for b in range(dim)]
    columns = [sum(1 << a for a in source) for source in sources]
    for k in range(1, wielandt_bound(dim) + 1):
        if all(column == full for column in columns):
            return k
        columns = [functools.reduce(or_, map(columns.__getitem__, src), 0) for src in sources]
    return None


@per_morphism
def primitivity(m: Morphism) -> int | None:
    """The primitivity witness of the incidence matrix of m (is_primitive)."""
    return is_primitive(incidence_matrix(m))


def require_primitive(m: Morphism):
    """The guard of every computation that needs a primitive morphism."""
    if primitivity(m) is None:
        raise InputError("the morphism is not primitive")


def require_letters(m: Morphism, chars: set[str]):
    """Refuse an index-encoded word, given as its set of characters, that
    holds a character past the alphabet, naming the character: a caller
    who passes display text instead of ``m.encode(text)`` meets this."""
    for ch in sorted(chars):
        if ord(ch) >= m.size:
            raise InputError(
                f"character {ch!r} is not a letter index of this {m.size}-letter morphism; "
                "index-encode words with Morphism.encode"
            )


def end_letters(m: Morphism) -> Iterator[tuple[int, list[int], list[int]]]:
    """(e, first, last) for e = 0, 1, ...: first[i] and last[i] are the
    indices of the first and the last letter of sigma^e(i), each map one
    step from the last."""
    heads, tails = ([ord(image[end]) for image in m.images] for end in (0, -1))
    first = last = list(range(m.size))
    for e in count():
        yield e, first, last
        first, last = [heads[i] for i in first], [tails[i] for i in last]


def admissible_seeds(m: Morphism) -> list[FixedPointSeed]:
    """All admissible seeds (e, a, b) at the least power e: sigma^e(a)
    ends with a, sigma^e(b) starts with b, and ab is a factor.  Some e <=
    #A^2 has one once an image is longer than a letter: for a factor cd
    and k >= #A, the last letter a of sigma^k(c) and the first letter b of
    sigma^k(d) lie on cycles of the last- and first-letter maps, ab is a
    factor, and e = the lcm of the cycle lengths works.  One-letter images
    make a permutation, primitive only as a -> a, which has no seed."""
    require_primitive(m)
    if m.widest == 1:
        return []  # single-letter identity: no growing fixed point

    from .language import factor_language  # deferred: language builds on this module

    pairs = factor_language(m, 2)
    for e, first_e, last_e in islice(end_letters(m), 1, None):
        lefts = [chr(i) for i in range(m.size) if last_e[i] == i]
        rights = [chr(i) for i in range(m.size) if first_e[i] == i]
        seeds = [FixedPointSeed(e, a, b) for a in lefts for b in rights if a + b in pairs]
        if seeds:
            return seeds  # sorted by (left, right), as lefts and rights are


def power_scaled_constant(L: int, k: int, widest: int) -> int:
    """Scale a level-1 recognizability constant to level k:
    L * (widest^k - 1) / (widest - 1), exactly.

    widest == 1 means every image is a single letter and the fixed point is
    periodic; that degenerate case is rejected.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if widest < 1:
        raise InputError("widest must be >= 1")
    if widest == 1:
        raise InputError("widest image length is 1 (periodic fixed point)")
    return L * (widest**k - 1) // (widest - 1)
