"""From relations to the involution.

Every value rewrites into coordinates on the Thakur index set (entries
<= q, last entry <= q-1).  Each rewriting step subtracts a relation
generator, so it preserves values; the memoised normal form of an index
applies steps until only Thakur indices remain, and generators
themselves reduce to zero.  On
the quotient by the weight-(q-1) zeta value, sending each value to its
dagger counterpart is a well-defined involution; here it becomes an
exact matrix we can square.
"""

from ffmzv import Evaluator, Index, IndexAlgebra, Reducer, field

F = field(2)
A = IndexAlgebra(F)
E = Evaluator(F)
R = Reducer(A)

print("Rewriting (3) on the li side at q = 2:")
step = R.u_step("li", A.mono((3,)))
print(f"  one step    : {step}")
red = R.reduce_to_T("li", A.mono((3,)))
print(f"  normal form : {red}")
print(f"  value preserved at N=40: "
      f"{E.eval_value('li', red, 40) == E.eval_value('li', Index((3,)), 40)}")

print()
print("Relation generators are the kernel; they reduce to zero exactly:")
g = R.gen_A("li", Index((1,)), 1, Index((2,)))
print(f"  A(li; (1); 1; (2)) has {len(g.support())} terms "
      f"-> reduce_to_T = {R.reduce_to_T('li', g)}")

print()
print("Weight-6 quotient at q = 2:")
qs = R.quotient_space(6)
print(f"  dim span = {qs.dim_space}, dim ideal = {qs.dim_ideal}, "
      f"dim quotient = {qs.dim_quotient}")
print(f"  quotient basis classes: {[str(b) for b in qs.quotient_basis]}")
red6 = R.reduce_to_T("li", A.mono((6,)))
print(f"  class of Li_6 vanishes? {qs.class_is_zero(R.to_vector(6, red6))}")

print()
print("The involution as a matrix on those classes:")
iota = R.iota_matrix(6)
for i, row in enumerate(iota.rows):
    print("   [" + ", ".join(f"{c}" for c in row) + "]")
print(f"  squares to the identity: {iota.squared_is_identity()}")

print()
print("Theorem check at weight 6 (every dagger image lands in the ideal):")
rep = R.check_theorem(6)
print(f"  {rep.summary['pass']} cases pass, {rep.summary['fail']} fail")

print()
print("Open conjecture, reported but never asserted:")
for s in ((1, 2), (2, 1), (1, 1, 2)):
    rep = R.check_conjecture(Index(s))
    print(f"  zeta side {s}: {rep.cases[0].detail}")
