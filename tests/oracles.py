"""Independent oracles for the test suite.

Everything here works on plain display strings and dict-based rules,
deliberately sharing no code with the package: expansion is a literal
join loop, powers are found by quadratic scanning and by XOR-ing every
shift of the whole text, primitivity by boolean matrix powers, cut sets
by cumulative sums over independently expanded preimage words.
"""

from __future__ import annotations

from fractions import Fraction

FIB_RULES = {"a": "ab", "b": "a"}
TM_RULES = {"a": "ab", "b": "ba"}
TRIB_RULES = {"a": "ab", "b": "ac", "c": "a"}
COLL_RULES = {"a": "bc", "b": "bc", "c": "ab"}
PER_RULES = {"a": "ab", "b": "ab"}
MIXED_RULES = {"a": "aab", "b": "bca", "c": "cab"}


def expand(rules: dict[str, str], word: str, times: int = 1) -> str:
    for _ in range(times):
        word = "".join(rules[ch] for ch in word)
    return word


def prefix(rules: dict[str, str], length: int) -> str:
    """Prefix of a one-sided fixed point, grown from a letter whose image
    starts with itself (searching powers of the first-letter map)."""
    letters = sorted(rules)
    e = 1
    while True:
        for a in letters:
            if expand(rules, a, e).startswith(a):
                word = a
                while len(word) < length:
                    word = expand(rules, word, e)
                return word[:length]
        e += 1


def distinct_factors(text: str, n: int) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def closure_reference(rules: dict[str, str], c: int) -> set[str]:
    """Length-c factors as the least fixed point of the full-window
    closure: seed with the c-windows of a long image of the first letter,
    then add every c-window of the image of every word held, until a
    round adds nothing."""
    first = next(iter(rules))
    if all(len(image) == 1 for image in rules.values()):
        return {first * c}  # a primitive morphism with unit images is a -> a
    seed = first
    while len(seed) < c:
        seed = expand(rules, seed)
    current = distinct_factors(seed, c)
    while True:
        fresh = set()
        for word in current:
            fresh |= distinct_factors(expand(rules, word), c)
        if fresh <= current:
            return current
        current |= fresh


def kernel_partition_reference(rules: dict[str, str], n: int) -> list[list[str]]:
    """The letters grouped by equal expanded n-th images, each class and
    the classes in rule order."""
    classes: dict[str, list[str]] = {}
    for a in rules:
        classes.setdefault(expand(rules, a, n), []).append(a)
    return list(classes.values())


def chain_text(k: int) -> str:
    """A primitive morphism on the k >= 4 letters [x0], ..., [x(k-1)]:
    [x0] and [x1] share the image [x1] [x2], [xi] -> [x(i+1)] [x0] for
    2 <= i <= k-2, and [x(k-1)] -> [x0] [x1]."""
    rules = ["[x0] -> [x1] [x2]", "[x1] -> [x1] [x2]"]
    rules += [f"[x{i}] -> [x{i + 1}] [x0]" for i in range(2, k - 1)]
    rules.append(f"[x{k - 1}] -> [x0] [x1]")
    return "\n".join(rules) + "\n"


def max_power_exponent_brute(text: str, max_period: int) -> int:
    """Largest k with some u^k in text, |u| <= max_period, by direct
    character comparison."""
    best = 1
    n = len(text)
    for p in range(1, max_period + 1):
        run = 0
        for i in range(n - p):
            if text[i] == text[i + p]:
                run += 1
                best = max(best, run // p + 1)
            else:
                run = 0
    return best


def max_power_exponent_reference(text: str) -> int:
    """Largest k such that some u^k (u non-empty) occurs in text.

    A run of r consecutive positions i with text[i] == text[i+p] spells a
    power of period p and exponent floor(r/p) + 1.  Each letter becomes a
    fixed-width big-endian byte code; XOR-ing the codes with their p-shift
    zeroes exactly the codes of those positions, and OR-folding each code
    into its last byte leaves one mark byte per position, zero where the
    letters agree.  Only a run of best*p zero marks can raise the maximum
    found so far, so one bytes.find per improvement settles a period, and
    periods stop once a (best+1)-th power no longer fits:
    (best+1)*p > len(text).
    """
    width = max(1, (ord(max(text, default="\0")).bit_length() + 7) // 8)
    codes = b"".join(ord(c).to_bytes(width, "big") for c in text)
    best, p = 1, 1
    while (best + 1) * p <= len(text):
        span = len(codes) - p * width
        diff = int.from_bytes(codes[:span], "big") ^ int.from_bytes(codes[p * width :], "big")
        for _ in range(width - 1):
            diff |= diff >> 8
        marks = diff.to_bytes(span, "big")[width - 1 :: width]
        hit = marks.find(bytes(best * p))
        while hit != -1:
            best += 1
            hit = marks.find(bytes(best * p), hit)
        p += 1
    return best


def occurrences(text: str, u: str) -> list[int]:
    out = []
    i = text.find(u)
    while i != -1:
        out.append(i)
        i = text.find(u, i + 1)
    return out


def return_words_scan(text: str, u: str) -> set[str]:
    pos = occurrences(text, u)
    return {text[i:j] for i, j in zip(pos, pos[1:])}


def recurrence_ratio_reference(
    rules: dict[str, str], max_len: int = 4, cap: int = 1_000_000
) -> Fraction | None:
    """max (longest return word to u) / |u| over the factors u of length
    <= max_len, or None when some u needs a window past cap.

    Each u is scanned afresh on fixed-point prefixes of doubling length,
    starting at max(64, 16|u|), until the return-word set is unchanged
    across two doublings and its longest word fits in a quarter of the
    window; every window is rescanned from its first letter."""
    best = Fraction(0)
    for n in range(1, max_len + 1):
        for u in sorted(closure_reference(rules, n)):
            window, previous, streak = max(64, 16 * n), None, 0
            while True:
                if window > cap:
                    return None
                found = return_words_scan(prefix(rules, window), u)
                streak = streak + 1 if found and found == previous else 0
                previous = found
                longest = max(map(len, found), default=window)
                if streak >= 2 and longest <= window // 4:
                    break
                window *= 2
            best = max(best, Fraction(longest, n))
    return best


def incidence(rules: dict[str, str]) -> tuple[list[str], list[list[int]]]:
    letters = sorted(rules)
    index = {a: i for i, a in enumerate(letters)}
    mat = [[0] * len(letters) for _ in letters]
    for b, image in rules.items():
        for ch in image:
            mat[index[ch]][index[b]] += 1
    return letters, mat


def first_positive_power(mat: list[list[int]], k_max: int) -> int | None:
    """Smallest k <= k_max with mat^k entirely positive, by boolean matrix
    products: only where an entry is positive matters, so each row is the
    set of its positive columns, and row i of mat^(k+1) is the union of
    the rows of mat indexed by row i of mat^k."""
    support = [{j for j, entry in enumerate(row) if entry > 0} for row in mat]
    current = support
    for k in range(1, k_max + 1):
        if all(len(row) == len(mat) for row in current):
            return k
        current = [set().union(*(support[j] for j in row)) for row in current]
    return None


class OracleWindow:
    """Independent two-sided window with cut sets, from scratch.

    Built by expanding the seed pair with plain string joins; level-p cuts
    are cumulative image lengths over the independently expanded level-p
    preimage pair.
    """

    def __init__(self, rules: dict[str, str], left: str, right: str, e: int, steps: int):
        self.rules = rules
        self.e = e
        self.total = steps * e
        self.pairs = [(left, right)]
        for _ in range(self.total):
            l, r = self.pairs[-1]
            self.pairs.append((expand(rules, l), expand(rules, r)))
        self.left, self.right = self.pairs[-1]
        self.lo = -len(self.left)
        self.hi = len(self.right)
        self.text = self.left + self.right

    def letter(self, pos: int) -> str:
        return self.text[pos - self.lo]

    def segment(self, start: int, stop: int) -> str:
        return self.text[start - self.lo : stop - self.lo]

    def cuts(self, p: int) -> dict[int, str]:
        """position -> preimage letter, for all level-p cuts in [lo, hi)."""
        left, right = self.pairs[self.total - p]
        out = {}
        pos = -len(expand(self.rules, left, p))
        for ch in left:
            out[pos] = ch
            pos += len(expand(self.rules, ch, p))
        for ch in right:
            out[pos] = ch
            pos += len(expand(self.rules, ch, p))
        return out


def check_counterexample(window: OracleWindow, L: int, p: int, cut_pos: int, m_pos: int) -> bool:
    """Re-check the negated recognizability condition verbatim."""
    cuts = window.cuts(p)
    if cut_pos not in cuts:
        return False
    same_context = window.segment(cut_pos - L, cut_pos + L + 1) == window.segment(
        m_pos - L, m_pos + L + 1
    )
    violates = m_pos not in cuts or cuts[m_pos] != cuts[cut_pos]
    return same_context and violates


def verify_reference(window: OracleWindow, L: int, p: int) -> tuple[int, int, int, str] | None:
    """The window verifier by explicit context buckets, as a differential
    reference: every position in [lo+L, hi-L) is grouped with the others
    sharing its (2L+1)-letter context, and each member of a bucket holding
    a cut is compared with every cut of the bucket.

    Returns None when no bucket conflicts, else (i, cut, m, kind) with the
    least (|m|, |i|); ties go to the bucket first met in the window, then
    non-cuts before cuts, then the position.  i is the rank of the cut
    minus the number of cuts at negative positions."""
    cuts = sorted(window.cuts(p).items())
    below = sum(1 for pos, _ in cuts if pos < 0)
    cut_info = {pos: (rank - below, ch) for rank, (pos, ch) in enumerate(cuts)}
    buckets: dict[str, list[int]] = {}
    for pos in range(window.lo + L, window.hi - L):
        buckets.setdefault(window.segment(pos - L, pos + L + 1), []).append(pos)

    best = None
    for members in buckets.values():
        tagged = [(pos, cut_info.get(pos)) for pos in members]
        cut_members = [(pos, info) for pos, info in tagged if info is not None]
        if not cut_members:
            continue
        non_cuts = [pos for pos, info in tagged if info is None]
        preimages = {info[1] for _, info in cut_members}
        candidates = []
        c_pos, (i, _) = min(cut_members, key=lambda cm: abs(cm[1][0]))
        for m_pos in non_cuts:
            candidates.append((i, c_pos, m_pos, "not_a_cut"))
        if len(preimages) > 1:
            # the nearest conflicting cut depends on the member's letter only
            other = {
                ch: min((cm for cm in cut_members if cm[1][1] != ch), key=lambda cm: abs(cm[1][0]))
                for ch in preimages
            }
            for m_pos, m_info in cut_members:
                c_pos, (i, _) = other[m_info[1]]
                candidates.append((i, c_pos, m_pos, "preimage_mismatch"))
        for cand in candidates:
            if best is None or (abs(cand[2]), abs(cand[0])) < (abs(best[2]), abs(best[0])):
                best = cand
    return best


def image_boundaries(rules: dict[str, str], v: str) -> list[int]:
    """0, then the end of each letter's image in expand(rules, v)."""
    ends = [0]
    for ch in v:
        ends.append(ends[-1] + len(rules[ch]))
    return ends


def tight_interpretations_brute(
    rules: dict[str, str], u: str, language: set[str]
) -> set[tuple[str, str, str, tuple[int, ...]]]:
    """All tight (prefix, core, suffix, cuts) by trying every candidate
    core from the given language sample at every offset; cuts are the
    image boundaries of the core that fall in [off, off + |u|], minus off."""
    out = set()
    for v in language:
        sv = expand(rules, v)
        ends = image_boundaries(rules, v)
        for off in range(len(sv)):
            if sv[off : off + len(u)] != u or off + len(u) > len(sv):
                continue
            p, s = sv[:off], sv[off + len(u) :]
            if len(p) < len(rules[v[0]]) and len(s) < len(rules[v[-1]]):
                cuts = tuple(k - off for k in ends if off <= k <= off + len(u))
                out.add((p, v, s, cuts))
    return out


def interpretations_reference(
    rules: dict[str, str], n: int, factors
) -> dict[str, list[tuple[str, str, str, tuple[int, ...]]]]:
    """Tight interpretations of every length-n factor, as (prefix, core,
    suffix, cuts) sorted by core and then prefix length.

    Candidate cores are the factors(t) of every length t in the range
    n/|sigma| <= t <= (n + 2(|sigma|-1))/<sigma>, each expanded and cut
    into its length-n windows at every offset inside the first image whose
    suffix stays inside the last image."""
    widest = max(len(image) for image in rules.values())
    narrowest = min(len(image) for image in rules.values())
    found: dict[str, list[tuple[str, str, str, tuple[int, ...]]]] = {}
    for t in range(max(1, -(-n // widest)), (n + 2 * (widest - 1)) // narrowest + 1):
        for v in factors(t):
            sv = expand(rules, v)
            ends = image_boundaries(rules, v)
            for off in range(len(rules[v[0]])):
                rest = len(sv) - off - n
                if 0 <= rest < len(rules[v[-1]]):
                    cuts = tuple(k - off for k in ends if off <= k <= off + n)
                    found.setdefault(sv[off : off + n], []).append(
                        (sv[:off], v, sv[off + n :], cuts)
                    )
    for interps in found.values():
        interps.sort(key=lambda it: (it[1], len(it[0])))
    return found


def sync_points_reference(
    interps: list[tuple[str, str, str, tuple[int, ...]]], n: int, interior_only: bool
) -> tuple[int, ...]:
    """Positions k >= 1 that are cuts of every interpretation, without
    k = n when interior_only."""
    common = set.intersection(*({k for k in cuts if k >= 1} for *_, cuts in interps))
    if interior_only:
        common.discard(n)
    return tuple(sorted(common))


def delay_reference(
    rules: dict[str, str], n_max: int, interior_only: bool, factors
) -> tuple[int | None, list[tuple[int, list[str]]], bool]:
    """(delay, [(n, unsynchronized factors)], periodic) by the
    interpretations of each length in turn.  The search is skipped as
    periodic when some n <= n_max has p(n) <= n (Morse-Hedlund)."""
    if any(len(factors(n)) <= n for n in range(1, n_max + 1)):
        return None, [], True
    per_length = []
    for n in range(1, n_max + 1):
        interps = interpretations_reference(rules, n, factors)
        assert set(interps) == factors(n)
        bad = sorted(
            u for u, its in interps.items() if not sync_points_reference(its, n, interior_only)
        )
        per_length.append((n, bad))
        if not bad:
            return n, per_length, False
    return None, per_length, False


def random_primitive_rules(
    rng, count: int, letters: tuple[int, int], image: tuple[int, int]
) -> list[dict[str, str]]:
    """count primitive morphisms whose alphabet size and image lengths are
    drawn uniformly from the given inclusive ranges."""
    drawn = []
    while len(drawn) < count:
        alphabet = "abcde"[: rng.randint(*letters)]
        rules = {
            a: "".join(rng.choice(alphabet) for _ in range(rng.randint(*image)))
            for a in alphabet
        }
        d = len(alphabet)
        if first_positive_power(incidence(rules)[1], d * d - 2 * d + 2) is not None:
            drawn.append(rules)
    return drawn


def random_bracketed_texts(
    rng, count: int, letters: tuple[int, int], image: tuple[int, int]
) -> list[str]:
    """count primitive morphisms on the k letters [x0], ..., [x(k-1)], as
    rule text in the form chain_text writes; k and the image lengths are
    drawn uniformly from the given inclusive ranges.  A draw is kept when
    every letter occurs in an image and M^j > 0 for some j <= 2k, so every
    kept draw is primitive; a primitive draw of a larger exponent is
    passed over, so the draws of a seed stay those the tests were written
    against."""
    drawn = []
    while len(drawn) < count:
        k = rng.randint(*letters)
        names = [f"[x{i}]" for i in range(k)]
        rules = {a: [rng.choice(names) for _ in range(rng.randint(*image))] for a in names}
        if {b for im in rules.values() for b in im} != set(names):
            continue  # a letter in no image: M is reducible
        if first_positive_power(incidence(rules)[1], 2 * k) is not None:
            drawn.append("".join(f"{a} -> {' '.join(im)}\n" for a, im in rules.items()))
    return drawn
