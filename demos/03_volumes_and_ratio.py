"""Volume polynomials and the constant relating them.

The top-degree part of L_{g,n} is the Euclidean volume polynomial
V^E_{g,n}; running the same recursion with the symplectic seeds gives
V^S_{g,n}.  The two are proportional, with constant 2^{5g-5+2n},
uniformly in the t variables.  Transported to perimeter variables, V^S
becomes the polynomial v^S(p_1..p_n) whose value is the volume of the
space of metric ribbon graphs with those boundary lengths.
"""

from ribbonvol import (
    SYMPLECTIC,
    compute,
    euclidean_matches_leading,
    kontsevich_ratio,
    perimeter_volume,
    verify_continuous_recursion,
)

print(f"{'(g,n)':>7}  {'V^S / V^E':>12}  {'2^(5g-5+2n)':>12}")
for g, n in [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1), (2, 2), (3, 1)]:
    ratio = kontsevich_ratio(g, n)
    print(f"  ({g},{n})  {str(ratio):>12}  {str(2 ** (5 * g - 5 + 2 * n)):>12}")

print()
print("V^E is exactly the leading part of L:")
print("  L_{1,2} leading part == V^E_{1,2}:", euclidean_matches_leading(1, 2))

print()
print("Perimeter-side volumes (even polynomials in the p_j):")
for g, n in [(0, 3), (1, 1), (0, 4), (1, 2)]:
    v = perimeter_volume(g, n)
    print(f"  v({g},{n}):", dict(v.sorted_terms()))

print()
print("v^S satisfies an exact integral recursion; checking at seeded")
print("rational chamber points (p_1 dominant):")
for g, n in [(0, 4), (1, 2)]:
    for point, ok in verify_continuous_recursion(g, n, trials=3, seed=0):
        pt = tuple(str(v) for v in point)
        print(f"  ({g},{n}) at {pt}: {'match' if ok else 'MISMATCH'}")

print()
print("The symplectic volume at equal perimeters grows like the dimension:")
vs = compute(SYMPLECTIC, 1, 3)
print("  V^S_{1,3} total degree:", max(map(sum, vs.terms)), "= 3g-3+n =", 3 * 1 - 3 + 3)
