"""Two-sided fixed-point windows with exact desubstitution towers.

A window materializes x[lo, hi) around the seed junction of an admissible
fixed point of sigma^e, together with the whole chain of preimage words
(one per sigma-level), so cut positions and preimage letters at every
level are exact by construction.  Nothing here ever searches for a
desubstitution; that would presuppose the recognizability the verifier
is trying to test.

Window coordinates are absolute integers: position 0 is the first letter
of the right ray, position -1 the last letter of the left ray.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InputError
from .language import language_of
from .morphism import FixedPointSeed, Morphism, Word, end_letters, image_lengths


@dataclass(frozen=True)
class Window:
    """A slice x[lo, hi) of a two-sided fixed point of sigma^e.

    ``tower[p]`` is the level-p preimage pair (left, right): applying
    sigma^p to it, junction-anchored, reproduces the window content.
    ``level`` counts sigma^e applications, so tower depth is level * e.
    """

    morphism: Morphism
    seed: FixedPointSeed
    level: int
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

    def preimage_pair(self, p: int) -> tuple[Word, Word]:
        if not 0 <= p <= self.max_level:
            raise InputError(f"level {p} unavailable (tower holds 0..{self.max_level})")
        return self.tower[p]


@dataclass(frozen=True)
class CuttingSet:
    """Level-p image boundaries inside a window.

    ``positions[k]`` is where the sigma^p-image of ``preimages[k]`` starts;
    positions are sorted, cover [lo, hi), and include 0 (the junction).
    """

    positions: tuple[int, ...]
    preimages: tuple[str, ...]


def _validate_seed(m: Morphism, seed: FixedPointSeed):
    if seed.power < 1:
        raise InputError("seed power must be >= 1")
    for letter in (seed.left, seed.right):
        if len(letter) != 1 or ord(letter) >= m.size:
            raise InputError("seed letter out of range")
    first, last = end_letters(m, seed.power)
    a, b = ord(seed.left), ord(seed.right)
    if last[a] != a:
        raise InputError(f"sigma^{seed.power}({m.letters[a]}) does not end with it")
    if first[b] != b:
        raise InputError(f"sigma^{seed.power}({m.letters[b]}) does not start with it")
    if m.widest == 1:
        raise InputError("images of length 1 only: no growing fixed point")

    if seed.left + seed.right not in language_of(m).slice(2):
        raise InputError("seed pair is not admissible (not a factor)")


def build_window(
    m: Morphism,
    seed: FixedPointSeed,
    radius: int,
    min_level: int = 0,
    max_letters: int | None = None,
) -> Window:
    """Grow the window by repeated sigma^e application, keeping every
    intermediate preimage pair as the desubstitution tower.

    The result has lo <= -radius and hi >= radius, and its tower reaches
    at least min_level sigma-steps.  Growth is predicted per step and
    refused with CapExceeded once it would pass max_letters.
    """
    if radius < 1:
        raise InputError("radius must be >= 1")
    _validate_seed(m, seed)
    e = seed.power
    lengths = image_lengths(m, 1)
    pairs = [(seed.left, seed.right)]
    left, right = seed.left, seed.right
    k = 0
    while len(left) < radius or len(right) < radius or k * e < min_level:
        for _ in range(e):
            predicted = sum(lengths[ord(c)] for c in left) + sum(
                lengths[ord(c)] for c in right
            )
            if max_letters is not None and predicted > max_letters:
                raise CapExceeded(f"word of length {predicted} exceeds cap {max_letters}")
            left = m.apply(left)
            right = m.apply(right)
            pairs.append((left, right))
        k += 1
    tower = tuple(reversed(pairs))
    return Window(m, seed, k, tower)


def cutting_points(window: Window, p: int) -> CuttingSet:
    """All level-p cuts in [lo, hi) with their preimage letters, read off
    the stored tower."""
    left, right = window.preimage_pair(p)
    lengths = image_lengths(window.morphism, p)
    positions: list[int] = []
    preimages: list[str] = []
    pos = -sum(lengths[ord(c)] for c in left)
    for c in left:
        positions.append(pos)
        preimages.append(c)
        pos += lengths[ord(c)]
    for c in right:
        positions.append(pos)
        preimages.append(c)
        pos += lengths[ord(c)]
    return CuttingSet(tuple(positions), tuple(preimages))
