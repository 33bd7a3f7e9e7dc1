"""
Projective fixed-point series, two ways
=======================================

"""

# every coefficient below is an exact rational function: no floats anywhere
from qcseries import projgw
from qcseries.cli import q_series_text
from qcseries.exactalg import substitute

# the rank-one setup has two fixed points; it computes with lambda_0 = 0, so
# lambda_1 stands for the difference lambda_1 - lambda_0, and to_lambda()
# maps a result back to lambda_0, lambda_1, h
setup = projgw.ProjSetup(1)
to_lambda = setup.to_lambda()

# route one: the closed product formula per degree
print("closed form, fixed point 0:")
for d in range(4):
    print(f"  d={d}  {substitute(projgw.closed_b(setup, 0, d), to_lambda).text()}")

# route two: solve the coupling recursion degree by degree
table0 = projgw.solve_recursion(setup, 3)[0]

# both routes must agree exactly, degree by degree
for d, z in table0.items():
    assert z == projgw.closed_b(setup, 0, d)
print("solver output equals the closed form through degree 3")

# the coupling coefficients that drive the recursion are tiny and exact
for k in (1, 2, 3):
    coupling = substitute(projgw.recursion_coeff(setup, 0, 1, k), to_lambda)
    print(f"  coupling k={k}  {coupling.text()}")

# rewriting the weights as a single root variable gives the familiar
# hypergeometric shape of the series
target, bindings = setup.root_chart("part1")
coeffs = [substitute(table0[d], bindings, target) for d in range(3)]
print("series at fixed point 0:", q_series_text(coeffs))

# the independent verifier replays the recursion by direct substitution
report = projgw.verify_theorem_3_3(setup, 3, "direct")
print(report.render())
