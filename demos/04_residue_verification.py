"""Residue-form verification on spectral curves.

Each configuration of the recursion has a spectral-curve presentation:
F_{g,n}(t_1, a_2..a_n) equals minus the sum of residues of a kernel
K(t, t_1) against lower-complexity data, with residues taken at +-t_1
and at the spectator points +-a_j.  The integrand is rational in t, so
F_{g,n} is also the sum of its residues at t = 0 and t = infinity, where
the involution t -> -t is fixed; those are what is computed below, read
off power series exactly, as Laurent polynomials in t_1^2.  They must
reproduce the recursion engine's polynomial identically.
"""

from fractions import Fraction

from ribbonvol import CURVES, compute, residue_sum
from ribbonvol.eo import check_kernel_identity

print("The kernel identity (y(t) - y(-t)) x'(t) kappa_hat(t) = -1:")
for name, curve in sorted(CURVES.items()):
    print(f"  {name:<11} {check_kernel_identity(curve)}")

print()
print("One-boundary torus, no spectators: residues at +-t_1 only.")
for name, curve in sorted(CURVES.items()):
    got = residue_sum(curve, 1, 1, ())
    ref = compute(curve.config, 1, 1)
    print(f"  {name:<11} residue sum == engine: {got == ref}")

print()
print("With spectators the integrand also has double poles at +-a_j;")
print("fixing a_2 = 3, a_3 = -5 for the four-holed sphere:")
spect = (Fraction(3), Fraction(-5))
for name, curve in sorted(CURVES.items()):
    got = residue_sum(curve, 0, 4, spect + (Fraction(7),))
    ref = compute(curve.config, 0, 4).partial_evaluate({1: 3, 2: -5, 3: 7})
    print(f"  {name:<11} F(t_1, 3, -5, 7) matches: {got == ref}")

print()
print("Genus two from genus one alone (the splitting (1,1) x (1,1) plus")
print("the diagonal of (1,2)):")
got = residue_sum(CURVES["laplace"], 2, 1, ())
ref = compute(CURVES["laplace"].config, 2, 1)
print("  L_{2,1} recovered from residues:", got == ref)
