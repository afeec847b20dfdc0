"""Factor language of a primitive substitution and derived statistics.

The factor sets are exact: they are computed as the least fixed point of
a monotone closure map (seeded from one window of the fixed-point ray;
for a primitive morphism any nonempty seed closes to the whole slice), not
by scanning a finite window and hoping it was long enough.  Long complexity
counts store no slice at all: they rank the windows of the sigma^j-images
of a base slice bucket by bucket, j chosen to hold the fewest bytes, then
find each rank's neighbour LCP in one pass along the images (see
FactorLanguage).  Fixed-point prefixes are scanned only for screens and
lower bounds, each reported as such.  The aperiodicity screen returns the period it finds or None, and
require_aperiodic refuses a periodic fixed point; power_free_index
returns k, or refuses with CapExceeded when the scan cannot pin it;
recurrence_constant_empirical returns the recurrence ratio K_emp, a
lower bound for the linear-recurrence constant that enters no bound, or
refuses with CapExceeded when its return-word scan outgrows
RETURN_WINDOW_CAP.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate, islice, pairwise
from typing import Iterable, Iterator

from .errors import CapExceeded, InputError, NotAperiodicError
from .morphism import (
    Morphism,
    Word,
    end_letters,
    length_rows,
    per_morphism,
    power,
    require_letters,
    require_primitive,
)

DEFAULT_SCAN_LEN = 10_000
DEFAULT_MAX_K = 64
DEFAULT_APERIODICITY_N = 200
RECURRENCE_MAX_LEN = 4  # factor lengths of the empirical recurrence scan
RETURN_WINDOW_CAP = 1_000_000  # letters of the longest return-word scan window
# Periods from here on are scanned in bands of aligned blocks
# (_max_power_exponent).  The scan of a 10,000-letter fixed-point prefix is
# flat for cuts from 16 to 64 and slower at 128, where the whole-shift marks
# of the longer short periods cost more than their bands: 3.2-3.5 ms at 16,
# 32 and 64 against 4.5-4.7 ms at 128, mean over 300 random primitive
# fixed points on 2-5 letters (five runs each, Python 3.11, 2-vCPU Linux
# container).  No input property picks a better cut.
BLOCK_SCAN_PERIOD = 64
# Slices up to this length are closed and stored; longer counts stream from
# the sigma^j-images of a base slice no longer than this.  It is the length
# the aperiodicity screen closes anyway, so a streamed count after the
# screen derives its base slice by prefix-slicing and closes nothing new.
STREAM_BASE = DEFAULT_APERIODICITY_N
# The streamed windows are bucketed by their first ell letters, ell the least
# length up to STREAM_BASE with p(ell) >= STREAM_BUCKETS, so one bucket holds
# about 1/STREAM_BUCKETS of L_n.  512 is at the knee: counting L_6899 of
# f -> uu, p -> fux, u -> ux, x -> xp (40,190 words, from sigma^9) peaks at
# 332, 89, 27, 20 and 19 MB RSS with 1, 8, 64, 512 and 4096 buckets (the
# last capped at the 1,166 words of L_200), in 1.07-1.19, 0.50-0.57,
# 0.41-0.69, 0.31-0.35 and 0.28-0.32 s, and the base slice and the
# interpreter take about 16.5 MB (three fresh interpreters each, Python
# 3.11, 2-vCPU Linux container).
STREAM_BUCKETS = 512
CLOSURE_MAX_LETTERS = 10**8  # letters a slice or count past STREAM_BASE may read


def base_length(n: int, narrowest: int) -> int:
    """t = ceil((n-1)/narrowest) + 1.  With narrowest = <sigma>, a word v
    of length t has |sigma(v)| >= |sigma(v[0])| + (t-1)<sigma> >=
    |sigma(v[0])| + n - 1, so every length-n window of sigma(v) that starts
    inside sigma(v[0]) fits in sigma(v); the same holds for sigma^j."""
    return -(-(n - 1) // narrowest) + 1


class FactorLanguage:
    """Lazily computed exact factor sets and complexity of one primitive
    morphism.

    Slices are built by one closure at a single target length c.  It
    starts from one word, the length-c prefix of the fixed-point ray, and
    each round expands only the words the previous round added: from
    sigma(w) it keeps the length-c windows that start inside sigma(w[0]),
    at offsets o < |sigma(w[0])|.  sigma is applied to the prefix w[:t]
    alone, t = base_length(c, <sigma>), which covers every such window.
    The least fixed point above the seed is exactly the length-c slice L_c:

    - sound: each window kept is a factor of sigma(w), w in the language;
    - complete: take u in L_c and a seed word w_s placed in a point y of
      the shift.  By primitivity u is a factor of sigma^k(w_s[0]) for
      large k.  Tracing the start of u back through sigma^k(y),
      sigma^(k-1)(y), ..., y gives a chain of length-c factors from w_s
      to u in which every step is a first-image window.

    Shorter slices are prefix sets of the longest closed slice.  slice
    builds words; ensure counts them.  Up to STREAM_BASE, ensure(n) counts
    L_n in one pass: in sorted order two neighbours have different
    length-k prefixes iff their longest common prefix is shorter than k,
    so p(k) = 1 + #{neighbour pairs with LCP < k} for every k up to n.

    Past STREAM_BASE, the count stores no length-n slice.  Take any j >= 1
    with t = base_length(n, <sigma^j>) <= STREAM_BASE.  Then L_n is
    exactly the set of length-n windows of sigma^j(v) that start inside
    sigma^j(v[0]), for v in L_t:

    - sound: sigma^j(v) is a factor, so each of its windows is one;
    - complete: every point x of the shift is S^o sigma^j(y) for a point
      y and an offset o < |sigma^j(y_0)| (every power of a primitive
      morphism is primitive, and primitive sigma^j maps the shift into
      itself and covers it up to shifts), so the length-n factor of x at
      0 is the window at o of sigma^j(v), v = y[0:t] in L_t;
    - each of these windows fits in sigma^j(v) (see base_length).

    Call the letters of sigma^j(v) that these windows cover the text of v.
    A text equal to that of the sorted predecessor of v adds no window and
    is dropped.

    Nothing above depends on which j is taken, so the counts do not; j is
    chosen by the bytes the count will hold.  The texts hold at most
    p(t) (n - 1) + W letters, where W, the sum of |sigma^j(v[0])| over v
    in L_t, is the number of windows, and each window costs about 24
    bytes in the bucket and rank arrays below.  A larger j shortens t, so
    there are fewer and shorter texts, but the first images grow, and
    with them W.  _stream_candidates reads t and W for each j off one
    row of length_rows and the prefix sets of the base slice, storing
    nothing; _stream_power takes the least prediction, going up in j
    until it rises or t reaches 2, and only that sigma^j is built.  The
    count then reads the windows in two passes.

    - Pass 1 ranks the distinct words.  The windows are grouped by their
      first ell letters, ell the least length with p(ell) >=
      STREAM_BUCKETS up to STREAM_BASE (STREAM_BASE if there is none),
      which may exceed t since every window is longer.  Two words with
      different ell-prefixes sort as their prefixes do, so the buckets,
      taken in key order and each sorted with equal neighbours dropped,
      give each word its rank in sorted L_n.  One bucket of length-n
      words is alive at a time; what outlives it is one rank per window
      and one window per rank.
    - Pass 2 finds, for each rank r > 0, the LCP of the words of ranks r
      and r - 1, and p(k) = 1 + #{r > 0 with LCP < k} as above.  It walks
      the windows of each text in order, and the LCP of one window bounds
      that of the next (Kasai et al., CPM 2001): let u at offset o have
      LCP h >= 1 with its predecessor w.  Then h < n, w[1:] extends to
      the right to a word w' of L_n (every factor does), and w' sorts
      below the word u' at o + 1 with h - 1 letters in common.  Every
      word between w' and u' shares those letters with u', so u' has an
      LCP of at least h - 1 with its own predecessor.  _common_prefix
      gallops from there, once per rank; a repeated word reads the LCP
      of its rank.

    A slice or count past STREAM_BASE reads every word of L_n: at least
    (n + 1) n letters, since p(n) >= n + 1 when aperiodic (Morse-Hedlund),
    or P n letters when the screen found a period P, which p(n) then
    equals.  Past CLOSURE_MAX_LETTERS it is refused with CapExceeded.  The
    screen is consulted only once (n + 1) n is past the cap, and lengths
    up to STREAM_BASE are not priced: the screen closes them itself.
    """

    def __init__(self, m: Morphism):
        require_primitive(m)
        self.morphism = m
        self._slices: dict[int, frozenset[Word]] = {}
        self._counts = [1]  # p(k) for k < len(_counts)

    def _price(self, n: int):
        """Refuse L_n past the letter cap (see the class docstring)."""
        if n <= STREAM_BASE or (n + 1) * n <= CLOSURE_MAX_LETTERS:
            return
        letters = (aperiodicity_check(self.morphism) or n + 1) * n
        if letters > CLOSURE_MAX_LETTERS:
            raise CapExceeded(
                f"language closure at length {n} holds at least {letters} letters,"
                f" past the cap {CLOSURE_MAX_LETTERS}"
            )

    def _close(self, n: int) -> frozenset[Word]:
        """Close and store L_n from one window of the ray (see above)."""
        self._price(n)
        m = self.morphism
        images, t = m.images, base_length(n, m.narrowest)
        frontier = {fixed_point_prefix(m, n)}
        closed = set(frontier)
        while frontier:
            fresh = set()
            for word in frontier:
                image = m.apply(word[:t])
                fresh.update(image[o : o + n] for o in range(len(images[ord(word[0])])))
            frontier = fresh - closed
            closed |= frontier
        words = self._slices[n] = frozenset(closed)
        return words

    def _stream_candidates(self, n: int) -> Iterator[tuple[int, int, int, int]]:
        """(j, t, p(t), W) for the least j >= 1 of each t = base_length(n,
        <sigma^j>) <= STREAM_BASE, down to t = 2: W = sum over v in L_t of
        |sigma^j(v[0])| is the number of windows a count of L_n from
        sigma^j reads.  t falls as j grows, so each L_t is the prefix set of
        the last, from the stored base slice on; none is stored."""
        words = self.slice(STREAM_BASE)
        last = None
        for j, lengths in enumerate(islice(length_rows(self.morphism), 1, None), 1):
            t = base_length(n, min(lengths))
            if t <= STREAM_BASE and t != last:  # a larger j at the same t reads more
                words = {w[:t] for w in words}
                yield j, t, len(words), sum(lengths[ord(v[0])] for v in words)
                last = t
            if t == 2:
                return

    def _stream_power(self, n: int) -> int:
        """The candidate j whose count of L_n is predicted to hold the fewest
        bytes, scanning until the prediction rises (see the class docstring)."""
        best = None
        for j, _, words, windows in self._stream_candidates(n):
            # the texts' letters, p(t)(n - 1) + W, and 24 bytes a window:
            # its (v, o) in a bucket and its rank, one array('l') long each
            cost = words * (n - 1) + 25 * windows
            if best is not None and cost > best[0]:
                break
            best = cost, j
        return best[1]

    def _streamed_counts(self, n: int) -> list[int]:
        """[p(0), ..., p(n)] from the sigma^j-windows in two passes, storing
        no slice of length n (see the class docstring); n > STREAM_BASE and
        |sigma| > 1."""
        counts = self.ensure(STREAM_BASE)
        ell = next((k for k, p in enumerate(counts) if p >= STREAM_BUCKETS), STREAM_BASE)
        images = power(self.morphism, self._stream_power(n)).images
        t = base_length(n, min(map(len, images)))
        texts: list[Word] = []
        # ell-prefix -> v, o, v, o, ...: window (v, o) is offset o of texts[v]
        buckets = {key: array("l") for key in self.slice(ell)}
        for v in sorted(self.slice(t)):
            lead = len(images[ord(v[0])])
            text = v.translate(images)[: lead + n - 1]
            if texts and text == texts[-1]:
                continue  # the same windows as its sorted predecessor's
            for o in range(lead):
                buckets[text[o : o + ell]].extend((len(texts), o))
            texts.append(text)
        # Pass 1: rank the distinct words bucket by bucket, in sorted order.
        ranks = [array("l", [0]) * (len(text) - n + 1) for text in texts]  # [v][o]
        first_v, first_o = array("l"), array("l")  # one window per rank
        top = -1  # the highest rank given so far
        for key in sorted(buckets):
            pairs = buckets.pop(key)
            vs, offsets = pairs[::2], pairs[1::2]
            words = [texts[v][o : o + n] for v, o in zip(vs, offsets)]
            last = None
            for k in sorted(range(len(words)), key=words.__getitem__):
                if words[k] != last:
                    last, top = words[k], top + 1
                    first_v.append(vs[k])
                    first_o.append(offsets[k])
                ranks[vs[k]][offsets[k]] = top
            del words, last  # one bucket of words alive at a time
        # Pass 2: each rank's LCP with its predecessor, along each text.
        lcp = array("l", [-1]) * (top + 1)  # -1 until found; rank 0 has none
        below = [0] * n  # below[l]: ranks r > 0 whose LCP is l < n
        for text, row in zip(texts, ranks):
            h = 0
            for o, r in enumerate(row):
                if r and lcp[r] < 0:
                    h = _common_prefix(text, texts[first_v[r - 1]], o, first_o[r - 1], max(h - 1, 0))
                    lcp[r] = h
                    below[h] += 1
                else:
                    h = lcp[r]
        return list(accumulate(below, initial=1))

    def ensure(self, n: int) -> list[int]:
        """[p(0), ..., p(n)], held for later calls: counted from the slice
        L_n up to STREAM_BASE, priced and streamed past it (see above)."""
        if n < 0:
            raise InputError("factor length must be >= 0")
        if n >= len(self._counts):
            if n <= STREAM_BASE or self.morphism.widest == 1:
                self._counts = _prefix_counts(sorted(self.slice(n)), n)
            else:
                self._price(n)
                self._counts = self._streamed_counts(n)
        return self._counts[: n + 1]

    def slice(self, n: int) -> frozenset[Word]:
        """L_n: a prefix set of the longest stored slice, or closed anew
        past it."""
        if n < 0:
            raise InputError("factor length must be >= 0")
        if n == 0:
            return frozenset({""})
        cached = self._slices.get(n)
        if cached is not None:
            return cached
        longest = max(self._slices, default=0)
        if n > longest:
            return self._close(n)
        words = self._slices[n] = frozenset({w[:n] for w in self._slices[longest]})
        return words

    def __contains__(self, word: Word) -> bool:
        require_letters(self.morphism, set(word))
        return word in self.slice(len(word))


def _common_prefix(a: Word, b: Word, i: int, j: int, lo: int) -> int:
    """Length of the longest common prefix of a[i:] and b[j:], known to be
    at least lo: gallop from lo by doubling steps, then bisect the last
    step.  Each probe copies only the letters of b not yet known to agree
    and compares them in place in a, so neither tail is copied, and a
    prefix of length l costs O(log(l - lo + 1)) probes."""
    hi = min(len(a) - i, len(b) - j)
    step = 1
    while lo < hi:
        mid = min(lo + step, hi)
        if not a.startswith(b[j + lo : j + mid], i + lo):
            hi = mid - 1
            break
        lo, step = mid, 2 * step
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.startswith(b[j + lo : j + mid], i + lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _prefix_counts(ordered: Iterable[Word], n: int) -> list[int]:
    """[p(0), ..., p(n)] for distinct length-n words in sorted order.

    Read as big-endian integers of w bytes a letter (_codec), two
    neighbours differ first in the code that holds the top set bit of
    their XOR, so their LCP is n - ceil(bit_length / 8w)."""
    words = list(ordered)
    codec, width = _codec(words)
    bits = 8 * width
    below = [0] * n  # below[l]: sorted neighbours whose LCP is l < n
    ints = (int.from_bytes(w.encode(*codec), "big") for w in words)
    for a, b in pairwise(ints):
        below[n - ((a ^ b).bit_length() + bits - 1) // bits] += 1
    return list(accumulate(below, initial=1))


def _codec(texts: list[Word]) -> tuple[tuple[str, ...], int]:
    """(codec, w): text.encode(*codec) writes each of texts in w = 1 byte a letter
    (latin-1) when all their letters are below 256, else in w = 4 (utf-32-be)."""
    try:
        for text in texts:
            text.encode("latin-1")
    except UnicodeEncodeError:
        return ("utf-32-be", "surrogatepass"), 4
    return ("latin-1",), 1


@per_morphism
def language_of(m: Morphism) -> FactorLanguage:
    """The factor language of m, shared by every caller."""
    return FactorLanguage(m)


def factor_language(m: Morphism, n: int) -> frozenset[Word]:
    """The exact set of length-n factors of the substitution language."""
    if n < 1:
        raise InputError("n must be >= 1")
    return language_of(m).slice(n)


def complexity(m: Morphism, n: int) -> int:
    """Number of distinct length-n factors; p(0) = 1."""
    if n == 0:
        return 1
    return language_of(m).ensure(n)[n]


@per_morphism
def right_prolongable_letter(m: Morphism) -> tuple[str, int]:
    """A letter b and the least e (<= #A) with sigma^e(b) starting with b."""
    for e, first_e, _ in islice(end_letters(m), 1, None):
        for i in range(m.size):
            if first_e[i] == i:
                return chr(i), e


def fixed_point_prefix(m: Morphism, length: int) -> Word:
    """A prefix of a one-sided fixed point of some power of sigma.

    For primitive sigma the factor set of this ray equals the two-sided
    language, so it is a valid scan substrate.
    """
    require_primitive(m)  # otherwise the ray need not grow
    if m.widest == 1:
        return chr(0) * length
    letter, e = right_prolongable_letter(m)
    # The longest prefix built so far is kept on the morphism with its
    # preimage length done, word == sigma^e(word[:done]) (done == 0: the bare
    # letter), so each sigma^e step translates only word[done:].
    key = (fixed_point_prefix, "ray")
    word, done = m._memo.get(key, (letter, 0))
    while len(word) < length:
        tail = word[done:]
        for _ in range(e):
            tail = m.apply(tail)
        word, done = (word if done else "") + tail, len(word)
    m._memo[key] = word, done
    return word[:length]


def _longest_return(m: Morphism, u: Word) -> int:
    """Length of the longest return word to u (a word r with ru a factor,
    u a prefix of ru and exactly two occurrences of u in ru) seen in a
    fixed-point prefix, by windows of doubling length.

    The scan stops once two consecutive doublings add no new return word
    and the longest fits in a quarter of the window.  Each window is a
    prefix of the next, so every doubling resumes the search at the last
    occurrence found and only grows the set.
    """
    window = max(64, 16 * len(u))
    returns: set[Word] = set()
    last = -1
    stable_streak = 0
    while True:
        if window > RETURN_WINDOW_CAP:
            raise CapExceeded(f"return-word scan needs window > cap {RETURN_WINDOW_CAP}")
        text = fixed_point_prefix(m, window)
        known = len(returns)
        nxt = text.find(u, last + 1)
        while nxt != -1:
            if last != -1:
                returns.add(text[last:nxt])
            last, nxt = nxt, text.find(u, nxt + 1)
        stable_streak = stable_streak + 1 if returns and len(returns) == known else 0
        longest = max(map(len, returns), default=window)
        if stable_streak >= 2 and longest <= window // 4:
            return longest
        window *= 2


# The warning of every report that rests on the screen's None verdict.
APERIODICITY_HEDGE = f"aperiodicity screened to n={DEFAULT_APERIODICITY_N}, not proven"


@per_morphism
def aperiodicity_check(m: Morphism) -> int | None:
    """The period of the fixed point, or None when Morse-Hedlund screening
    to n = DEFAULT_APERIODICITY_N finds none: p(n) <= n for some n forces
    periodicity.

    For a recurrent word the complexity is strictly increasing until it
    stabilizes at the period, so the first n with p(n) <= n already has
    p(n) equal to the period.  None is a screening verdict, not a proof.
    """
    counts = language_of(m).ensure(DEFAULT_APERIODICITY_N)
    return next((p for n, p in enumerate(counts) if p <= n), None)


def require_aperiodic(m: Morphism) -> None:
    """Refuse a fixed point the aperiodicity screen finds periodic: the
    recognizability constants and bounds exist only for aperiodic ones."""
    period = aperiodicity_check(m)
    if period is not None:
        raise NotAperiodicError(f"fixed point is periodic (period {period}); not recognizable")


def _max_power_exponent(text: Word) -> int:
    """Largest k such that some u^k (u non-empty) occurs in text.

    A run of r consecutive positions i with text[i] == text[i+p] spells a
    power of period p and exponent floor(r/p) + 1.  Only a run of best*p
    such positions can raise the maximum found so far, and periods stop
    once a (best+1)-th power no longer fits: (best+1)*p > len(text).

    Periods below BLOCK_SCAN_PERIOD read the whole shift.  The text is
    encoded once, w bytes a letter (_codec), and read as one big-endian
    integer X.  (X >> 8pw) ^ (X & mask) XORs the codes with their p-shift
    and zeroes exactly the codes of agreeing positions; OR-folding each
    code into its last byte leaves one mark byte per position, zero where
    the letters agree.  One bytes.find per improvement settles the period.

    Longer periods are scanned in bands [P, 2P), from P = BLOCK_SCAN_PERIOD
    on, with h = ceil(best*P/2) for the best at the start of the band.  A
    run [s, s+r) that can raise best at a period p of the band has r >=
    best*p >= best*P >= 2h-1, so it covers the block [j, j+h) at the first
    multiple j of h at or past s (j <= s+h-1, so j+h <= s+2h-1 <= s+r),
    and that block recurs at j+p, with P <= p < 2P.  One str.find loop per
    anchor j, for text[j:j+h] in text[j+P : j+2P-1+h], therefore meets
    every such run as a hit q = j+p.  A hit is extended both ways by
    longest common extension (backwards over the reversed text) to its
    whole run, unless the run of period q-j through j was measured at an
    earlier anchor.  A band then costs about 2*len(text)/(best*P) finds in
    place of P whole-shift marks (see BLOCK_SCAN_PERIOD for the cut).
    """
    n = len(text)
    codec, width = _codec([text])
    whole = int.from_bytes(text.encode(*codec), "big")
    best, p = 1, 1
    while (best + 1) * p <= n and p < BLOCK_SCAN_PERIOD:
        span = (n - p) * width
        diff = (whole >> 8 * p * width) ^ (whole & ((1 << 8 * span) - 1))
        if width == 4:
            diff |= diff >> 8
            diff |= diff >> 16
        marks = diff.to_bytes(span, "big")[width - 1 :: width]
        hit = marks.find(bytes(best * p))
        while hit != -1:
            best += 1
            hit = marks.find(bytes(best * p), hit)
        p += 1
    reverse = text[::-1]
    while (best + 1) * p <= n:
        top = min(2 * p, n // (best + 1) + 1)  # the band [p, top)
        h = -(-best * p // 2)
        reach = [0] * (top - p)  # [period - p]: end of its last measured run
        for j in range(0, n - p - h + 1, h):
            block, end = text[j : j + h], j + top - 1 + h
            q = text.find(block, j + p, end)
            while q != -1:
                period = q - j
                if reach[period - p] <= j:
                    ahead = _common_prefix(text, text, j, q, h)
                    behind = _common_prefix(reverse, reverse, n - j, n - q, 0)
                    reach[period - p] = j + ahead
                    best = max(best, (behind + ahead) // period + 1)
                q = text.find(block, q + 1, end)
        p = top
    return best


@per_morphism
def power_free_index(m: Morphism) -> int:
    """Smallest k such that no k-th power occurs in the first
    DEFAULT_SCAN_LEN letters of the fixed point, refused with CapExceeded
    past DEFAULT_MAX_K.

    This is a screen, not a proof: a longer prefix can hold a higher
    power, so k may grow with the scan length.
    """
    require_aperiodic(m)
    max_exp = _max_power_exponent(fixed_point_prefix(m, DEFAULT_SCAN_LEN))
    if max_exp + 1 > DEFAULT_MAX_K:
        raise CapExceeded(
            f"power-free index inconclusive: exponent {max_exp} in the first "
            f"{DEFAULT_SCAN_LEN} letters puts k past max_k={DEFAULT_MAX_K}"
        )
    return max_exp + 1


@per_morphism
def recurrence_constant_empirical(m: Morphism) -> Fraction:
    """Lower bound for the linear-recurrence constant K: the largest
    (longest return word to u) / |u| over the factors u of length <=
    RECURRENCE_MAX_LEN, an exact rational."""
    require_aperiodic(m)
    lang = language_of(m)
    return max(
        Fraction(_longest_return(m, u), n)
        for n in range(1, RECURRENCE_MAX_LEN + 1)
        for u in sorted(lang.slice(n))
    )
