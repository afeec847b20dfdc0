"""Two-sided windows and their desubstitution towers.

A window materializes a slice of an admissible fixed point together with
every preimage level, so image boundaries ("cuts") and preimage letters
are exact byproducts of the construction, never search results.
"""

from subrec import admissible_seeds, build_window, cutting_points
from subrec import zoo

fib = zoo.FIBONACCI
seeds = admissible_seeds(fib)
print("admissible seeds:", [(s.power, fib.decode(s.left), fib.decode(s.right)) for s in seeds])

w = build_window(fib, seeds[0], 24)
print(f"window [{w.lo}, {w.hi}), tower depth {w.max_level}")
print("content around the origin:", fib.decode(w.content[-w.lo - 8 : -w.lo + 8]), "(junction between -1 and 0)")

# cutting_points maps each cut position to (image index from the junction,
# preimage letter)
for p in (1, 2, 3):
    cuts = cutting_points(w, p)
    visible = [(pos, fib.decode(c)) for pos, (_, c) in cuts.items() if 0 <= pos < 16]
    print(f"level {p} cuts in [0,16): {visible}")

print("\nthe level map: position of the i-th level-1 boundary")
f = {i: pos for pos, (i, _) in cutting_points(w, 1).items()}
print("  i:", list(range(-4, 5)))
print("  f:", [f[i] for i in range(-4, 5)])
