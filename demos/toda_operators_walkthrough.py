"""
Lattice operators annihilating a closed series
==============================================

"""

from qcseries import toda3

# a two-index table of exact rationals: closed_a(i, j) = (i+j)!/(i!^3 j!^3)
for i in range(3):
    row = "  ".join(str(toda3.closed_a(i, j)) for j in range(3))
    print(f"closed row i={i}:  {row}")

# the same table arrives from a binomial double sum
assert all(
    toda3.batyrev_b(i, j) == toda3.closed_a(i, j) for i in range(5) for j in range(5)
)
print("binomial-sum table equals the closed table, i,j <= 4")

# build the pair of lattice operators in both flavors
plain2, plain3 = toda3.build_operators(equivariant=False)
eq2, eq3 = toda3.build_operators(equivariant=True)

# applying an operator to a series truncated at order 6 returns the image's
# nonzero coefficients, certified through a shorter order; the closed
# solution is killed identically
series = toda3.closed_solution(6, equivariant=False)
for label, op in (("second", plain2), ("third", plain3)):
    image = toda3.apply(op, series, 6)
    print(f"plain {label} operator image is zero: {not image}",
          f"(certified through order {6 - op.max_shift})")

# negative control: the constant series is NOT annihilated; the plain
# flavor computes over the rationals
moved = toda3.apply(plain2, {(0, 0): 1}, 2)
print("control image coefficients:", moved[(1, 0)], "and", moved[(0, 1)])

# the equivariant closed solution specializes to the plain one at
# lambda = 0, h = 1, and the equivariant operators kill it as well
flat = {"lambda_0": 0, "lambda_1": 0, "lambda_2": 0, "h": 1}
eq_series = toda3.closed_solution(4, equivariant=True)
assert not toda3.apply(eq2, eq_series, 4)
assert not toda3.apply(eq3, eq_series, 4)
specialized = {ij: c.substitute(flat) for ij, c in eq_series.items()}
assert specialized == toda3.closed_solution(4, equivariant=False)
print("equivariant solution: annihilated, and specializes to the plain table")

# the same closed table, rescaled, is what the rank-two flag solver builds
print(toda3.verify_corollary_3_5(3).render())
