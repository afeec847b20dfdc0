"""Morphisms, incidence matrices, and primitivity.

Walks the basic vocabulary: parse a substitution from its rule text,
apply it, predict image lengths with exact big-integer matrix powers,
and test primitivity with the Wielandt-capped positivity search.
"""

from subrec import (
    admissible_seeds,
    build_window,
    extreme_lengths,
    incidence_matrix,
    is_primitive,
    parse_morphism,
    wielandt_bound,
)
from subrec.errors import CapExceeded

fib = parse_morphism("a -> a b\nb -> a")
print("rules:")
print(fib.rules_text())

word = fib.encode("ab")
for step in range(6):
    print(f"sigma^{step}(ab) = {fib.decode(word)}")
    word = fib.apply(word)

print("\nincidence matrix (rows/columns in letter order):")
for row in incidence_matrix(fib).rows:
    print("  ", row)

print("\nimage lengths grow like Fibonacci numbers, computed without expansion:")
for n in (1, 4, 16, 64, 256):
    widest, narrowest = extreme_lengths(fib, n)
    print(f"  |sigma^{n}| = {widest}   <sigma^{n}> = {narrowest}")

print("\nbuild_window() refuses blowups, predicting the length first:")
try:
    build_window(fib, admissible_seeds(fib)[0], 10**9)
except CapExceeded as exc:
    print("  ", exc)

print("\nprimitivity with smallest positivity witness:")
for text in ("a -> a b\nb -> a", "a -> b c\nb -> b c\nc -> a b", "a -> a b\nb -> b"):
    m = parse_morphism(text)
    witness = is_primitive(incidence_matrix(m))
    label = f"witness {witness}" if witness else "not primitive"
    print(f"  {text.replace(chr(10), ', '):32} -> {label} (cap {wielandt_bound(m.size)})")
