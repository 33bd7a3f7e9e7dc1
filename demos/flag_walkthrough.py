"""
Rank-two flag series over the Weyl orbit
========================================

"""

from qcseries import flaggw
from qcseries.flaggw import A2_THETA, coeff_C_id
from qcseries.roots import CartanMatrix, RootSystem

system = RootSystem(CartanMatrix.type_A(2))

# six chamber elements, ordered by length then reduced word
print("Weyl elements:", ", ".join(w.word_text() for w in system.weyl_elements))

# the coupling coefficient attached to a simple root is a pure power,
# the one attached to the long root mixes both simple variables
print("simple alpha_1, k=2:", coeff_C_id(system, system.simple_roots[0], 2).text())
print("long root,      k=2:", coeff_C_id(system, A2_THETA, 2).text())

# solve the recursion for the identity series, up to total degree 2; the
# other five series are its images under the Weyl action
z_id = flaggw.solve_flag_recursion(system, 2)
for beta, z in z_id.items():
    print(f"identity series, beta={beta}: {z.text()}")
s1 = system.simple_reflections[0]
print(f"s1 series, beta=(1, 1): {system.act_on_ratfunc(s1, z_id[(1, 1)]).text()}")

# the identity series also equals a closed two-index table; the verifier
# feeds that table, through the Weyl action, into the recursion
report = flaggw.verify_a2_theorem_3_2(3)
print(report.render())

# rank one is the projective line in disguise: the flag route and the
# projective route must produce identical tables
print(flaggw.verify_a1_crosscheck(4).render())
