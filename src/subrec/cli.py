"""Command-line front end.

Subcommands: analyze | bound | delay | verify | language | seeds.
Exit codes: 0 success, 1 analysis negative (a counterexample or a failed
delay search is still a valid run), 2 input error, 3 resource cap exceeded.

JSON output is deterministic: keys sorted, big integers as decimal strings,
logarithmic values as {"log10": float, "expr": str} with floats rounded to
12 significant digits (a log10 past float range is a string in the same
notation).  Every heuristic verdict in a report is paired with a warning
entry.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal
from pathlib import Path

from .bignum import big_str
from .errors import CapExceeded, InputError, NotAperiodicError
from .fixedpoint import build_window
from .language import (
    DEFAULT_APERIODICITY_N,
    RECURRENCE_MAX_LEN,
    aperiodicity_check,
    factor_language,
    language_of,
    power_free_index,
    recurrence_constant_empirical,
)
from .morphism import (
    FixedPointSeed,
    Morphism,
    admissible_seeds,
    parse_morphism,
    primitivity,
)
from .recognizability import (
    BigValue,
    BoundBreakdown,
    SyncResult,
    certified_constants,
    closed_form_bound,
    exact_ratio_constant,
    injectivity_exponent,
    klouda_medkova_bound,
    minimal_constant_empirical,
    recognizability_bound,
    synchronizing_delay,
    verify_constant,
)

DEFAULT_RADIUS = 1000
DEFAULT_MAX_DELAY = 24
DEFAULT_N_REPORT = 16
DEFAULT_L_MAX = 16
FULL_PRINT_DIGITS = 80


def _log10_json(x: float | Decimal) -> float | str:
    """x to 12 significant digits: a float, or past float range a string."""
    if isinstance(x, Decimal):
        return f"{x:.12g}"
    return float(f"{x:.12g}")


def _fmt_big_human(s: str) -> str:
    """A decimal string, shortened for humans past FULL_PRINT_DIGITS."""
    if len(s) <= FULL_PRINT_DIGITS:
        return s
    return f"<{len(s)} digits, leading {s[:12]}...>"


def _shorten_digits(expr: str) -> str:
    """expr with every digit run past FULL_PRINT_DIGITS shortened for humans."""
    return re.sub(rf"\d{{{FULL_PRINT_DIGITS + 1},}}", lambda run: _fmt_big_human(run[0]), expr)


def _big_value_json(v: BigValue):
    if v.exact is not None:
        return big_str(v.exact)
    return {"expr": v.expr, "log10": _log10_json(v.log10)}


def _breakdown_json(b: BoundBreakdown, mode: str) -> dict:
    out = {
        "mode": mode,
        "N": big_str(b.N),
        "k": big_str(b.k),
        "K": big_str(b.K) if isinstance(b.K, int) else str(b.K),
        "d": b.d,
        "R": big_str(b.R),
        "Q": big_str(b.Q),
        "M": _big_value_json(b.M),
        "bound": _big_value_json(b.bound),
        "log10": _log10_json(b.bound.log10),
        "warnings": list(b.warnings),
    }
    if b.bound.exact is not None:
        out["digits"] = b.bound.digits
    return out


def _seeds_json(m: Morphism, seeds: list[FixedPointSeed]) -> dict:
    return {
        "power": seeds[0].power if seeds else None,
        "pairs": [[m.decode(s.left), m.decode(s.right)] for s in seeds],
    }


def _delay_json(m: Morphism, result: SyncResult, n_max: int | None) -> dict:
    return {
        "C": result.delay,
        "L_from_C": None if result.delay is None else result.delay // 2,
        "n_max": n_max,
        "failures": [[n, [m.decode(u) for u in bad]] for n, bad in result.per_length if bad],
    }


def emit_report(report: dict, as_json: bool) -> str:
    """The report of :func:`analyze` as text for humans, or any payload
    as deterministic JSON: the one JSON writer of every subcommand."""
    if as_json:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    return _human_report(report)


def _human_report(report: dict) -> str:
    lines = []
    lines.append("morphism")
    for rule in report["rules"]:
        lines.append(f"  {rule}")
    prim = report["primitive"]
    lines.append(f"primitive            {prim['is']}" + (
        f" (witness power {prim['witness']})" if prim["is"] else ""))
    seeds = report["seeds"]
    if seeds["pairs"]:
        pairs = ", ".join(f"{a}.{b}" for a, b in seeds["pairs"])
        lines.append(f"seeds                power {seeds['power']}: {pairs}")
    else:
        lines.append("seeds                none found")
    lines.append("constants")
    for key in ("widest", "narrowest", "N", "k", "K_emp", "K_cert", "d", "d_safe"):
        value = report["constants"].get(key)
        if value is None:
            continue
        shown = _fmt_big_human(value) if isinstance(value, str) and value.isdigit() else value
        lines.append(f"  {key:<18} {shown}")
    lines.append(f"complexity p(1..)    {' '.join(str(p) for p in report['complexity'])}")
    delay = report["delay"]
    if delay.get("C") is not None:
        lines.append(f"delay                C={delay['C']}  L_from_C={delay['L_from_C']}")
    elif delay.get("n_max") is None:
        lines.append("delay                search not run")
    else:
        lines.append(f"delay                none up to n={delay.get('n_max')}")
    emp = report["empirical"]
    if emp is not None:
        heuristic = emp["L_heuristic"] if emp["L_heuristic"] is not None else "none"
        lines.append(
            f"empirical constant   lower {emp['L_lower']}, heuristic {heuristic}"
            f" (radius {emp['radius']})"
        )
    for name, payload in sorted(report["bounds"].items()):
        if isinstance(payload, dict):
            value = payload.get("bound", payload.get("value"))
            expr = _shorten_digits(value["expr"]) if isinstance(value, dict) else ""
            shown = (
                _fmt_big_human(value)
                if isinstance(value, str)
                else f"~10^{payload['log10']} ({expr})"
            )
            lines.append(f"bound {name:<20} {shown}")
        else:
            lines.append(f"bound {name:<20} {payload}")
    lines.append("warnings")
    for w in report["warnings"]:
        lines.append(f"  - {w}")
    if not report["warnings"]:
        lines.append("  (none)")
    return "\n".join(lines)


def analyze(
    m: Morphism,
    radius: int = DEFAULT_RADIUS,
    max_delay: int = DEFAULT_MAX_DELAY,
    safe_d: bool = False,
) -> dict:
    """The full report, already JSON-shaped: emit_report renders it."""
    if radius < 1:
        raise InputError("radius must be >= 1")
    if max_delay < 1:
        raise InputError("max_delay must be >= 1")
    warnings: list[str] = []
    witness = primitivity(m)
    # what a non-primitive morphism reports; the rest of the analysis fills it in
    constants = {"widest": str(m.widest), "narrowest": str(m.narrowest)}
    report = {
        "alphabet": list(m.letters),
        "rules": m.rules_text().splitlines(),
        "primitive": {"is": witness is not None, "witness": witness},
        "seeds": _seeds_json(m, []),
        "constants": constants,
        "complexity": [],
        "delay": _delay_json(m, SyncResult(None, ()), None),
        "empirical": None,
        "bounds": {},
        "warnings": warnings,
    }
    if witness is None:
        warnings.append("morphism is not primitive; analysis limited to the matrix")
        return report

    seeds = admissible_seeds(m)
    report["seeds"] = _seeds_json(m, seeds)
    if not seeds:
        warnings.append("no admissible seed: every image is one letter, so no fixed point grows")

    period = aperiodicity_check(m)
    if period is not None:
        warnings.append(f"fixed point is periodic with period {period}")
    else:
        warnings.append(f"aperiodicity screened to n={DEFAULT_APERIODICITY_N}, not proven")

    constants.update(K_cert=big_str(certified_constants(m)[1]), d=injectivity_exponent(m))
    constants["d_safe"] = m.size
    if period is None:
        n_exact, n_warnings = exact_ratio_constant(m)
        warnings.extend(n_warnings)
        constants["N"] = big_str(n_exact)
        try:
            constants["k"] = str(power_free_index(m))
        except CapExceeded:
            constants["k"] = "inconclusive"
        try:
            constants["K_emp"] = str(recurrence_constant_empirical(m))
        except CapExceeded as exc:
            constants["K_emp"] = "inconclusive"
            warnings.append(f"K_emp omitted: {exc}")
        else:
            warnings.append(f"K_emp is a lower bound from a length-{RECURRENCE_MAX_LEN} scan")

    report["complexity"] = language_of(m).ensure(DEFAULT_N_REPORT)[1:]

    delay = synchronizing_delay(m, max_delay)
    report["delay"] = _delay_json(m, delay, max_delay)
    if period is not None:
        warnings.append("delay search skipped: periodic fixed points are never circular")
    elif delay.delay is None:
        warnings.append(f"no synchronizing delay up to n={max_delay}")

    if seeds:
        # Level 1 and one letter past |sigma| on each side: enough for L = 0.
        window = build_window(m, seeds[0], max(radius, m.widest + 1), min_level=1)
        L, checked = minimal_constant_empirical(window, 1, DEFAULT_L_MAX)
        report["empirical"] = {
            "L_lower": L,
            "L_heuristic": L if L <= checked else None,
            "radius": radius,
            "level": 1,
        }
        if L > checked:
            warnings.append(f"no recognizability constant up to L={checked} on the window")
        else:
            warnings.append("heuristic constant is window-relative")

    bounds = report["bounds"]
    if period is None:
        try:
            breakdown = recognizability_bound(m, "empirical_exact", safe_d=safe_d)
        except CapExceeded as exc:
            warnings.append(f"bounds.maindetail omitted: {exc}")
        else:
            bounds["maindetail"] = _breakdown_json(breakdown, "empirical_exact")
        breakdown = recognizability_bound(m, "certified", safe_d=safe_d)
        bounds["maindetail_certified"] = _breakdown_json(breakdown, "certified")
        exponent, value = closed_form_bound(m)
        bounds["closed_form"] = {
            "base": m.widest,
            "exponent": big_str(exponent),
            "addend_power": m.size,
            "value": _big_value_json(value),
            "log10": _log10_json(value.log10),
        }
        if m.size == 2 and len(set(len(im) for im in m.images)) == 1 and m.widest >= 2:
            bounds["klouda_medkova"] = klouda_medkova_bound(m.widest)
    else:
        warnings.append("bounds undefined: the fixed point is periodic")
    return report


def _load(path: str) -> Morphism:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_morphism(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subrec",
        description="Recognizability and circularity analysis for primitive substitutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--max-delay", type=int, default=DEFAULT_MAX_DELAY)
    p.add_argument("--safe-d", action="store_true")

    p = sub.add_parser("bound", help="recognizability bound breakdown")
    p.add_argument("file")
    p.add_argument("--mode", choices=["empirical", "certified"], required=True)
    p.add_argument("--safe-d", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("delay", help="synchronizing delay search")
    p.add_argument("file")
    p.add_argument("--max", type=int, default=DEFAULT_MAX_DELAY)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="window check of one constant")
    p.add_argument("file")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("language", help="factor set of one length")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("seeds", help="admissible fixed-point seeds")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    return parser


def _cmd_analyze(args, out) -> int:
    report = analyze(
        _load(args.file),
        radius=args.radius,
        max_delay=args.max_delay,
        safe_d=args.safe_d,
    )
    print(emit_report(report, args.json), file=out)
    return 0


def _cmd_bound(args, out) -> int:
    m = _load(args.file)
    mode = "empirical_exact" if args.mode == "empirical" else "certified"
    b = recognizability_bound(m, mode, safe_d=args.safe_d)
    if args.json:
        print(emit_report({"maindetail": _breakdown_json(b, mode)}, as_json=True), file=out)
    else:
        print(
            f"mode={mode} N={_fmt_big_human(big_str(b.N))} k={_fmt_big_human(big_str(b.k))}"
            f" d={b.d} R={_fmt_big_human(big_str(b.R))} Q={_fmt_big_human(big_str(b.Q))}",
            file=out,
        )
        if b.bound.exact is not None:
            print(f"bound = {_fmt_big_human(big_str(b.bound.exact))}", file=out)
        else:
            print(f"bound ~ 10^{_log10_json(b.bound.log10)} ({_shorten_digits(b.bound.expr)})", file=out)
        for w in b.warnings:
            print(f"warning: {w}", file=out)
    return 0


def _cmd_delay(args, out) -> int:
    m = _load(args.file)
    result = synchronizing_delay(m, args.max)
    periodic = aperiodicity_check(m) is not None
    payload = _delay_json(m, result, args.max)
    if args.json:
        print(emit_report(payload | {"screened_periodic": periodic}, as_json=True), file=out)
    elif result.delay is not None:
        print(f"C={payload['C']} L_from_C={payload['L_from_C']}", file=out)
    else:
        reason = "periodic fixed point" if periodic else "not reached"
        print(f"C=none up to n={args.max} ({reason})", file=out)
    return 0 if result.delay is not None else 1


def _cmd_verify(args, out) -> int:
    m = _load(args.file)
    seeds = admissible_seeds(m)
    if not seeds:
        raise InputError("no admissible seed; cannot build a window")
    window = build_window(m, seeds[0], args.radius, min_level=args.level)
    result = verify_constant(window, args.L, args.level)
    if args.json:
        payload = {"ok": result.ok, "L": args.L, "level": args.level, "radius": args.radius}
        if result.counterexample is not None:
            payload["counterexample"] = result.counterexample._asdict()
        print(emit_report(payload, as_json=True), file=out)
    elif result.ok:
        print(f"ok: no counterexample for L={args.L} at level {args.level} (window-relative)", file=out)
    else:
        ce = result.counterexample
        print(
            f"counterexample: position {ce.position} matches the context of cut "
            f"{ce.cut_position} (preimage index {ce.preimage_index}) but {ce.kind.replace('_', ' ')}",
            file=out,
        )
    return 0 if result.ok else 1


def _cmd_language(args, out) -> int:
    m = _load(args.file)
    words = sorted(m.decode(w) for w in factor_language(m, args.n))
    if args.json:
        print(emit_report({"n": args.n, "count": len(words), "words": words}, as_json=True), file=out)
    else:
        print(f"p({args.n}) = {len(words)}", *words, sep="\n", file=out)
    return 0


def _cmd_seeds(args, out) -> int:
    m = _load(args.file)
    payload = _seeds_json(m, admissible_seeds(m))
    if args.json:
        print(emit_report(payload, as_json=True), file=out)
    elif payload["pairs"]:
        pairs = ", ".join(f"{a}.{b}" for a, b in payload["pairs"])
        print(f"power {payload['power']}: {pairs}", file=out)
    else:
        print("no admissible seeds: every image is one letter, so no fixed point grows", file=out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "bound": _cmd_bound,
    "delay": _cmd_delay,
    "verify": _cmd_verify,
    "language": _cmd_language,
    "seeds": _cmd_seeds,
}


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except CapExceeded as exc:
        print(f"subrec: cap exceeded: {exc}", file=err)
        return 3
    except NotAperiodicError as exc:
        print(f"subrec: {exc}", file=err)
        return 1
    except (InputError, OSError) as exc:
        print(f"subrec: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
