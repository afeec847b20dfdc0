"""Correctness checks on the library's outputs, from the benchmark's own
arithmetic in ``corpus``.  Each check returns None when the output is
right and a one-line description of the first problem otherwise.
"""

from __future__ import annotations

import functools
import json

import corpus

PREFIX_LEN = 20_000
REPORT_KEYS = {
    "alphabet", "bounds", "complexity", "constants", "delay", "empirical",
    "primitive", "rules", "seeds", "warnings",
}

# Values pinned by the paper-level acceptance tests and the ROADMAP.
PINNED = {
    "fibonacci": {
        ("bounds", "maindetail", "R"): "24",
        ("bounds", "maindetail", "Q"): "31201",
        ("bounds", "maindetail", "digits"): 6523,
        ("delay", "C"): 2,
        ("empirical", "L_lower"): 1,
        ("empirical", "L_heuristic"): 1,
        ("constants", "k"): "4",
    },
    "thue_morse": {("constants", "k"): "3"},
}


# Outcomes of bound-stress's operations, by name, when the benchmark was
# added.  A solved operation must stay solved.  A refused one may become
# solved, or run into the wall cap on a slower host.  A capped one (the
# address-space or the wall cap) may end in any of these.  Nothing may
# crash.  analyze-cli and verify-wide solve every operation.
BOUND_OUTCOMES = {
    "roadmap4": "capped", "roadmap5": "capped", "roadmap6": "refused",
    "random0": "solved", "random1": "capped", "random2": "solved",
    "random3": "solved", "random4": "solved",
}
ACCEPTED_REASONS = {
    "solved": {"ok"},
    "refused": {"ok", "cap_exceeded", "wall_cap"},
    "capped": {"ok", "cap_exceeded", "wall_cap", "MemoryError"},
}


def check_outcome(pinned: str, reason: str) -> str | None:
    """An operation's outcome against its pinned one (see BOUND_OUTCOMES)."""
    if reason in ACCEPTED_REASONS[pinned]:
        return None
    return f"ended in {reason}, where {pinned} is pinned"


class Reference:
    """Reference values for one morphism, computed once per run."""

    def __init__(self, rules):
        self.rules = rules
        self.prefix = corpus.fixed_point_prefix(rules, PREFIX_LEN)
        self._counts: dict[int, int] = {}

    @functools.cached_property
    def seed(self) -> tuple[int, str, str]:
        return corpus.admissible_seed(self.rules, self.prefix)

    def p_lower(self, n: int) -> int:
        """Distinct length-n factors of the prefix: at most p(n)."""
        if n not in self._counts:
            self._counts.update(corpus.factor_counts(self.prefix, [n]))
        return self._counts[n]


def _dig(data, path):
    for key in path:
        data = data[key]
    return data


def check_breakdown(b: dict, ref: Reference, mode: str) -> str | None:
    if b.get("mode") != mode:
        return f"mode {b.get('mode')!r} != {mode!r}"
    n, k, r, q, d = int(b["N"]), int(b["k"]), int(b["R"]), int(b["Q"]), b["d"]
    if r != n * n * (k + 1) + 2 * n:
        return f"R={r} but N^2(k+1)+2N={n * n * (k + 1) + 2 * n}"
    if k < 2 or not 1 <= d <= len(ref.rules):
        return f"k={k} or d={d} out of range"
    ratio = _ratio_floor(ref.rules)
    if n < ratio:
        return f"N={n} below the sampled ratio {ratio}"
    if mode == "empirical_exact" and r <= 400:
        i_lo, i_hi = -(-r // n), r * n + 2
        partial = sum(ref.p_lower(i) for i in range(i_lo, min(i_hi, i_lo + 8) + 1))
        if q < 1 + ref.p_lower(r) * partial:
            return f"Q={q} below 1 + p(R) * (partial sum of p(i)) from the prefix"
    if isinstance(b["bound"], str) and len(b["bound"]) != b.get("digits"):
        return "bound digit count does not match the bound"
    return None


def _ratio_floor(rules) -> int:
    """ceil of max_n |sigma^n| / <sigma^n> over n <= 12: a lower bound for N."""
    best = 1
    for t in range(1, 13):
        lengths = corpus.image_lengths(rules, t)
        best = max(best, -(-max(lengths) // min(lengths)))
    return best


def check_report(text: bytes, ref: Reference) -> str | None:
    """Invariants of one ``analyze --json`` report of a primitive,
    aperiodic morphism."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if set(rep) != REPORT_KEYS:
        return f"report keys {sorted(rep)}"
    rules = ref.rules
    if rep["alphabet"] != [a for a, _ in rules]:
        return "alphabet differs from the input"
    if rep["rules"] != [f"{a} -> {' '.join(im)}" for a, im in rules]:
        return "rules differ from the input"
    if rep["primitive"]["is"] is not True:
        return "primitive morphism reported as not primitive"
    for n, p in enumerate(rep["complexity"], start=1):
        if p < ref.p_lower(n):
            return f"p({n})={p} below the {ref.p_lower(n)} factors seen in the prefix"
    e, a, b = ref.seed
    power = rep["seeds"]["power"]
    if power is None or power > e or (power == e and [a, b] not in rep["seeds"]["pairs"]):
        return f"seeds {rep['seeds']} miss ({e}, {a}{b})"
    emp = rep["empirical"]
    if emp is not None and emp["L_heuristic"] is not None and emp["L_lower"] > emp["L_heuristic"]:
        return f"L_lower={emp['L_lower']} > L_heuristic={emp['L_heuristic']}"
    delay = rep["delay"]
    if delay["C"] is not None and delay["L_from_C"] != delay["C"] // 2:
        return "L_from_C is not C // 2"
    for key, mode in (("maindetail", "empirical_exact"), ("maindetail_certified", "certified")):
        if key not in rep["bounds"]:
            return f"bounds.{key} missing"
        problem = check_breakdown(rep["bounds"][key], ref, mode)
        if problem:
            return f"bounds.{key}: {problem}"
    return None


def check_pinned(name: str, text: bytes) -> str | None:
    rep = json.loads(text)
    for path, want in PINNED.get(name, {}).items():
        got = _dig(rep, path)
        if got != want:
            return f"{'.'.join(path)}={got!r}, pinned {want!r}"
    return None


def check_bound(text: bytes, ref: Reference) -> str | None:
    """One ``bound --mode empirical --json`` result."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if set(out) != {"maindetail"}:
        return f"keys {sorted(out)}"
    return check_breakdown(out["maindetail"], ref, "empirical_exact")


# ---------------------------------------------------------------------------
# Windows and verifier verdicts.  Window words are index-encoded
# (chr(i) is the i-th rule's letter); they are translated to letters first.


def _decoder(rules):
    return str.maketrans({chr(i): a for i, (a, _) in enumerate(rules)})


def check_window(rules, seed, radius, min_level, tower) -> str | None:
    e, a, b = seed
    table = _decoder(rules)
    pairs = [(left.translate(table), right.translate(table)) for left, right in tower]
    if pairs[-1] != (a, b):
        return f"tower bottom {pairs[-1]} is not the seed {a}.{b}"
    for p in range(len(pairs) - 1):
        left, right = pairs[p + 1]
        if (corpus.apply(rules, left), corpus.apply(rules, right)) != pairs[p]:
            return f"tower level {p} is not the image of level {p + 1}"
    if (len(pairs) - 1) % e:
        return f"tower depth {len(pairs) - 1} is not a multiple of the seed power {e}"
    if len(pairs[0][0]) < radius or len(pairs[0][1]) < radius or len(pairs) - 1 < min_level:
        return "window smaller than requested"
    return None


def _cuts(rules, tower, p):
    """{position: (preimage index, letter)} of the level-p image starts."""
    lengths = corpus.image_lengths(rules, p)
    left, right = tower[p]
    pos = -sum(lengths[ord(c)] for c in left)
    cuts = {}
    for ordinal, c in enumerate(left + right):
        cuts[pos] = (ordinal - len(left), c)
        pos += lengths[ord(c)]
    return cuts


def verify_reference(rules, tower, L, p):
    """(ok, smallest (|m|, |i|) over all refutations) by direct bucketing.

    Positions lo+L .. hi-1-L are grouped by their (2L+1)-letter context.
    A group refutes L when it holds a cut and also a non-cut or cuts of two
    preimage letters; each member m that is a non-cut (or a cut whose
    letter differs from some cut's) pairs with the cut of smallest |i|
    among those it conflicts with."""
    content = tower[0][0] + tower[0][1]
    lo = -len(tower[0][0])
    cuts = _cuts(rules, tower, p)
    groups: dict[str, list[int]] = {}
    for idx in range(L, len(content) - L):
        groups.setdefault(content[idx - L : idx + L + 1], []).append(idx + lo)
    best = None
    for members in groups.values():
        cut_members = [cuts[m] for m in members if m in cuts]
        if not cut_members:
            continue
        nearest = {}
        for i, c in cut_members:
            nearest[c] = min(nearest.get(c, abs(i)), abs(i))
        overall = min(nearest.values())
        for m in members:
            if m not in cuts:
                key = (abs(m), overall)
            else:
                others = [v for c, v in nearest.items() if c != cuts[m][1]]
                if not others:
                    continue
                key = (abs(m), min(others))
            if best is None or key < best:
                best = key
    return best is None, best


def check_verdict(rules, tower, L, p, ok, counterexample) -> str | None:
    """A verdict is right when it agrees with the reference, and a
    counterexample is a genuine refutation with the smallest (|m|, |i|)."""
    ref_ok, best = verify_reference(rules, tower, L, p)
    if ok != ref_ok:
        return f"verdict ok={ok} at L={L} p={p}, reference ok={ref_ok}"
    if ok:
        return None
    i, c_pos, m_pos, kind = counterexample
    content = tower[0][0] + tower[0][1]
    lo = -len(tower[0][0])
    cuts = _cuts(rules, tower, p)

    def context(pos):
        idx = pos - lo
        if idx - L < 0 or idx + L >= len(content):
            return None
        return content[idx - L : idx + L + 1]

    if c_pos not in cuts or cuts[c_pos][0] != i:
        return f"counterexample cut {c_pos} with index {i} is not a level-{p} cut"
    if context(c_pos) is None or context(c_pos) != context(m_pos):
        return "counterexample contexts differ"
    if kind == "not_a_cut" and m_pos in cuts:
        return "counterexample position is a cut"
    if kind == "preimage_mismatch" and (m_pos not in cuts or cuts[m_pos][1] == cuts[c_pos][1]):
        return "counterexample position is not a cut of another letter"
    if (abs(m_pos), abs(i)) != best:
        return f"counterexample key {(abs(m_pos), abs(i))} is not the smallest {best}"
    return None
