"""Factor languages and their statistics.

The factor sets are exact (closure of a monotone map, no window-length
assumptions), and everything downstream is labeled: exact, certified, or
heuristic.
"""

from subrec import (
    aperiodicity_check,
    complexity,
    factor_language,
    power_free_index,
    recurrence_constant_empirical,
)
from subrec import zoo
from subrec.errors import NotAperiodicError
from subrec.language import DEFAULT_APERIODICITY_N, RECURRENCE_MAX_LEN

for name, m in [("fibonacci", zoo.FIBONACCI), ("thue-morse", zoo.THUE_MORSE), ("tribonacci", zoo.TRIBONACCI)]:
    profile = [complexity(m, n) for n in range(1, 13)]
    print(f"{name:11} p(1..12) = {profile}")

print("\nlength-3 factors of the Thue-Morse language:")
tm = zoo.THUE_MORSE
print("  ", sorted(tm.decode(w) for w in factor_language(tm, 3)))

print("\npower-free indices (exhaustive scan of a 10^4 window):")
for name, m in [("thue-morse", zoo.THUE_MORSE), ("fibonacci", zoo.FIBONACCI), ("periodic", zoo.PERIODIC)]:
    try:
        shown = power_free_index(m)
    except NotAperiodicError as exc:
        shown = f"refused: {exc}"
    print(f"  {name:11} -> {shown}")

print("\naperiodicity screening (Morse-Hedlund):")
for name, m in [("fibonacci", zoo.FIBONACCI), ("periodic", zoo.PERIODIC)]:
    period = aperiodicity_check(m)
    shown = f"periodic, period {period}" if period else f"aperiodic up to n={DEFAULT_APERIODICITY_N}"
    print(f"  {name:11} -> {shown}")

ratio = recurrence_constant_empirical(zoo.FIBONACCI)
print(f"\nempirical recurrence ratio for fibonacci (lengths <= {RECURRENCE_MAX_LEN}): {ratio}")
