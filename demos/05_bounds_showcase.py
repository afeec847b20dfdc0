"""The bound calculators, exact and certified.

The detailed bound R |sigma^(dQ)| + |sigma^d| is evaluated with exact
constants where they are computable (empirical_exact mode) and with
alphabet-and-width certificates otherwise; values past the digit cap are
carried in logarithmic form with their defining expression.
"""

from subrec import (
    certified_constants,
    closed_form_bound,
    klouda_medkova_bound,
    recognizability_bound,
)
from subrec import zoo
from subrec.bignum import big_str

fib = zoo.FIBONACCI

n_cert, k_cert = certified_constants(fib)
print(f"certified constants for fibonacci: N_cert={n_cert} K_cert={k_cert}")

b = recognizability_bound(fib, "empirical_exact")
print(f"\nempirical-exact chain: N={b.N} k={b.k} d={b.d} R={b.R} Q={b.Q}")
digits = b.bound.digits
print(f"bound = {b.M.expr} + 2, an exact integer with {digits} digits")
print("leading digits:", big_str(b.bound.exact)[:40], "...")

c = recognizability_bound(fib, "certified")
print(f"\ncertified chain: N={c.N} k={c.k} R={c.R} Q ~ 10^{len(big_str(c.Q)) - 1}")
print(f"bound ~ 10^{c.bound.log10:.4g}  ({c.bound.expr})")

exponent, value = closed_form_bound(fib)
print(f"\nclosed form: base {fib.widest}, exponent {big_str(exponent)}")
print(f"value ~ 10^{value.log10:.6g}")
hinted, _ = closed_form_bound(fib, injective_hint=True)
print(f"with injectivity hint the exponent drops to {big_str(hinted)}")

print("\nuniform binary delay bounds:")
for k in (2, 3, 4, 6):
    print(f"  k={k}: C <= {klouda_medkova_bound(k)}")
