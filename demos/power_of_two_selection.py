"""Walkthrough: power-of-two hardware selection and control-sequence bits.

Panels are addressed by k-bit control sequences, so realizable element
counts are N = 2^k.  The continuous optimum N* almost never lands on a
power of two; the selection rule evaluates the exact rate at the two
bracketing candidates 2^floor(log2 N*) and 2^ceil(log2 N*) and keeps the
better one (ties fall to the smaller panel).
"""
import math

from omnidris import (
    T_STAR,
    Fraction,
    ReducedParams,
    bits_per_sequence,
    rate_total,
)
from omnidris.cli import main
from omnidris.optimize import optimize

main(["tables", "--which", "selection"])

print()
print("The proportional-mode optimum comes from one universal constant:")
print(f"  t* = {T_STAR:.12f}  solves ln(1+t) = 2t/(1+t)")
print("  N* = sqrt(alpha / (psi t*)) -- independent of the active share and")
print("  of every rate-scale factor.")

print()
print("Doubling the light sources (psi x4, xi x2) halves N* at the same peak rate:")
red = ReducedParams(alpha=T_STAR * 180.0**2, psi=1.0, xi=5e5)
base = optimize(red, Fraction(0.0))
doubled = optimize(ReducedParams(red.alpha, 4.0, 1e6), Fraction(0.0))
print(f"  one source:  N* = {base.n_star_cubic:7.2f}, peak {base.f_at_cubic / 1e6:8.3f} Mbps")
print(f"  two sources: N* = {doubled.n_star_cubic:7.2f}, peak {doubled.f_at_cubic / 1e6:8.3f} Mbps")

print()
print("Control-sequence bits invert the rate: k = log2 N recovered exactly")
red = ReducedParams(alpha=40.0, psi=1.0, xi=2.0)
for k in (3, 5, 7, 9):
    n = 2**k
    rate = rate_total(red, float(n), 0.0)
    recovered = bits_per_sequence(red, rate, float(n))
    print(f"  N = {n:4d}: rate {rate:12.6f} -> k = {recovered:.9f} (log2 N = {math.log2(n):.0f})")
