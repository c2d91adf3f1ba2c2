"""The Laplace-transformed side of the story.

Summing N_{g,n}(p) x^p over all positive perimeters gives a rational
function of the x_j; in the variables t_j with x_j = (t_j+1)/(t_j-1) it
becomes an even Laurent *polynomial* L_{g,n}(t_1..t_n).  The package
computes these exactly by a recursion in 2g-2+n.
"""

from fractions import Fraction

from ribbonvol import LAPLACE, compute, count
from ribbonvol.cli import main
from ribbonvol.exactmath import laurent_to_series

print("L_{1,1} as a Laurent polynomial in t^2 (exponent -> coefficient):")
p11 = compute(LAPLACE, 1, 1)
for exps, c in p11.sorted_terms():
    print(f"  t^{2 * exps[0]:>3}: {c}")

print()
print("LaTeX form, as `ribbonvol poly L 1 1 --format latex` prints it:")
main(["poly", "L", "1", "1", "--format", "latex"])

print()
print("The expansion at x = 0 recovers the counts: the coefficient of")
print("prod x_j^{p_j} in L(t(x)) prod (t_j^2-1)/2 equals (-1)^n (prod p_j) N(p).")
series = laurent_to_series(compute(LAPLACE, 0, 3), 6)
for p in [(2, 1, 1), (2, 2, 2), (3, 2, 1), (4, 1, 1)]:
    lhs = series.coefficient(p)
    prod_p = p[0] * p[1] * p[2]
    rhs = (-1) ** 3 * prod_p * count(0, 3, p)
    print(f"  x^{p}: series {lhs!s:>4}   (-1)^n (prod p) N = {rhs}")

print()
print("Inversion symmetry: substituting t -> 1/t and clearing denominators")
print("returns the same polynomial up to (-1)^n.")
flip = {tuple(-1 - a for a in e): (-1) ** 1 * c for e, c in p11.terms.items()}
print("  holds for L_{1,1}:", flip == p11.terms)

print()
print("All coefficients are dyadic -- denominators are powers of two:")
p21 = compute(LAPLACE, 2, 1)
dens = sorted({c.denominator for c in p21.terms.values()})
print("  denominators of L_{2,1}:", dens)
assert all(d & (d - 1) == 0 for d in dens)
assert isinstance(p21.terms[(0,)], Fraction)
