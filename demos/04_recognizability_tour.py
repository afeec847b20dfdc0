"""Recognizability at desk scale.

Interpretations, synchronizing points and delays, and the window verifier
that refutes or (window-relatively) confirms candidate constants.
"""

from subrec import (
    admissible_seeds,
    build_window,
    injectivity_exponent,
    interpretations,
    minimal_constant_empirical,
    synchronizing_delay,
    synchronizing_point,
    verify_constant,
)
from subrec import zoo

fib, per = zoo.FIBONACCI, zoo.PERIODIC

print("interpretations of 'aba' under the fibonacci substitution:")
for it in interpretations(fib, fib.encode("aba")):
    print(
        f"  prefix={fib.decode(it.prefix)!r} core={fib.decode(it.core)!r} "
        f"suffix={fib.decode(it.suffix)!r} cuts={it.cuts}"
    )

print("synchronizing point of 'aba':", synchronizing_point(fib, fib.encode("aba")))
print("synchronizing point of 'a':  ", synchronizing_point(fib, fib.encode("a")), "(none)")

for name, m in [("fibonacci", fib), ("thue-morse", zoo.THUE_MORSE), ("periodic", per)]:
    result = synchronizing_delay(m, 16)
    shown = result.delay if result.delay is not None else "none (<= 16)"
    print(f"synchronizing delay, {name:11}: {shown}")

print("\nkernel chains (injectivity exponents):")
for name, m in [("fibonacci", fib), ("collapsing", zoo.COLLAPSING)]:
    print(f"  {name:11} d = {injectivity_exponent(m)}, safe d = {m.size}")

print("\nwindow verification on fibonacci (radius 1000):")
w = build_window(fib, admissible_seeds(fib)[0], 1000)
for L in (0, 1):
    result = verify_constant(w, L, 1)
    if result.ok:
        print(f"  L={L}: ok (window-relative)")
    else:
        ce = result.counterexample
        print(f"  L={L}: refuted, position {ce.position} vs cut {ce.cut_position} ({ce.kind})")
L, checked = minimal_constant_empirical(w, 1, 16)
print(f"  minimal: L={L} (the window checks L up to {checked})")

print("\nthe periodic control never verifies:")
pw = build_window(per, admissible_seeds(per)[0], 200)
print("  L=8:", verify_constant(pw, 8, 1).counterexample)
