"""Embedding the symbolic dynamics into an interval map on [0, 1].

A fat Cantor set C of Lebesgue measure 1/2 is built from exact rational
intervals I_w, one per binary word.  The homeomorphism phi conjugates the
symbolic map to a map f on C, and f is extended across every gap by three
linear pieces, at least half of each gap mapping onto a deeper interval.
The punchline: the measure of points still outside C after n steps of f
decays like (3/4)^n, so C attracts almost every point.

Run:  python3 demos/04_interval_escape.py
"""

from fractions import Fraction

from symdyn import (CantorScheme, binary_config, escape_fraction, f_eval,
                    worked_example_oracle, locate, phi_point, pi1_system)
from symdyn.space import Constant

sch = CantorScheme()
sys = pi1_system(worked_example_oracle())

print("interval tree:")
for w in ("", "0", "1", "01", "0110"):
    lo, hi = sch.interval_of_word(w)
    print(f"  I_{w or 'eps':6s} = [{lo}, {hi}]   length {hi - lo}")
print()

x = binary_config("0110", Constant("0"))
enc = phi_point(sch, x, 30)
print(f"phi(0110 0^inf) = {enc.lower}  (exact: {enc.exact})")
loc = locate(sch, Fraction(1, 2), 8)
print(f"y = 1/2 sits in the gap ({loc.gap.a}, {loc.gap.b})")
img = f_eval(sch, sys, Fraction(1, 2), 20)
print(f"f(1/2) = {img.lower}  (gap values are exact rationals)")
print()

print("escape experiment, 20000 samples per n (bound is (3/4)^n):")
print("  n   certified outside C   bound")
for n in (0, 1, 2, 4, 6, 8):
    r = escape_fraction(sch, sys, n, 20_000, master_seed=7, depth=16)
    print(f"  {n}   {float(r.fraction):20.5f}   {float(r.bound):.5f}")
