"""Two-sided fixed-point windows with exact desubstitution towers.

A window materializes x[lo, hi) around the seed junction of an admissible
fixed point of sigma^e, together with the whole chain of preimage words
(one per sigma-level), so cut positions and preimage letters at every
level are exact by construction.  :func:`cutting_points` reads one
level's cuts off the tower as a single map, cut position -> (image index
counted from the junction, preimage letter).  Nothing here ever searches
for a desubstitution; that would presuppose the recognizability the
verifier is trying to test.

Window coordinates are absolute integers: position 0 is the first letter
of the right ray, position -1 the last letter of the left ray.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import CapExceeded, InputError
from .language import language_of
from .morphism import FixedPointSeed, Morphism, Word, end_letters, image_lengths, length_rows

# Letters a window may hold.  verify --L 1 on Fibonacci peaks at about 112
# bytes a letter plus 30 MB (212 MB RSS at 1,664,080 letters), so a window
# at the cap stays near 255 MB, far below a 1 GB address space.
WINDOW_MAX_LETTERS = 2_000_000


class Window(NamedTuple):
    """A slice x[lo, hi) of a two-sided fixed point of sigma^e.

    ``tower[p]`` is the level-p preimage pair (left, right): applying
    sigma^p to it, junction-anchored, reproduces the window content.  The
    tower depth ``max_level`` is a multiple of the seed power.
    """

    morphism: Morphism
    seed: FixedPointSeed
    tower: tuple[tuple[Word, Word], ...]

    @property
    def lo(self) -> int:
        return -len(self.tower[0][0])

    @property
    def hi(self) -> int:
        return len(self.tower[0][1])

    @property
    def max_level(self) -> int:
        return len(self.tower) - 1

    @property
    def content(self) -> Word:
        return self.tower[0][0] + self.tower[0][1]


def _validate_seed(m: Morphism, seed: FixedPointSeed):
    if seed.power < 1:
        raise InputError("seed power must be >= 1")
    for letter in (seed.left, seed.right):
        if len(letter) != 1 or ord(letter) >= m.size:
            raise InputError("seed letter out of range")
    _, first, last = next(islice(end_letters(m), seed.power, None))
    a, b = ord(seed.left), ord(seed.right)
    if last[a] != a:
        raise InputError(f"sigma^{seed.power}({m.letters[a]}) does not end with it")
    if first[b] != b:
        raise InputError(f"sigma^{seed.power}({m.letters[b]}) does not start with it")
    if m.widest == 1:
        raise InputError("images of length 1 only: no growing fixed point")

    if seed.left + seed.right not in language_of(m).slice(2):
        raise InputError("seed pair is not admissible (not a factor)")


def build_window(m: Morphism, seed: FixedPointSeed, radius: int, min_level: int = 0) -> Window:
    """Grow the window by repeated sigma^e application, keeping every
    intermediate preimage pair as the desubstitution tower.

    The result has lo <= -radius and hi >= radius, and its tower reaches
    at least min_level sigma-steps.  Each step is priced off length_rows
    and refused with CapExceeded past WINDOW_MAX_LETTERS.
    """
    if radius < 1:
        raise InputError("radius must be >= 1")
    _validate_seed(m, seed)
    a, b = ord(seed.left), ord(seed.right)
    pairs = [(seed.left, seed.right)]
    left, right = seed.left, seed.right
    rows = islice(length_rows(m), 1, None)  # the image lengths of level len(pairs)
    while len(left) < radius or len(right) < radius or len(pairs) <= min_level:
        for lengths in islice(rows, seed.power):
            predicted = lengths[a] + lengths[b]
            if predicted > WINDOW_MAX_LETTERS:
                raise CapExceeded(f"word of length {predicted} exceeds cap {WINDOW_MAX_LETTERS}")
            left = m.apply(left)
            right = m.apply(right)
            pairs.append((left, right))
    return Window(m, seed, tuple(reversed(pairs)))


def cutting_points(window: Window, p: int) -> dict[int, tuple[int, str]]:
    """All level-p cuts in [lo, hi), read off the stored tower: each cut
    position, ascending, mapped to (its image index, the junction cut at
    position 0 being index 0; its preimage letter)."""
    if not 0 <= p <= window.max_level:
        raise InputError(f"level {p} unavailable (tower holds 0..{window.max_level})")
    left, right = window.tower[p]
    lengths = image_lengths(window.morphism, p)
    cuts: dict[int, tuple[int, str]] = {}
    pos = -sum(lengths[ord(c)] for c in left)
    for i, c in enumerate(left + right, -len(left)):
        cuts[pos] = (i, c)
        pos += lengths[ord(c)]
    return cuts
