"""Acceptance criteria, one test per criterion.

Every criterion is exercised at its stated scope and tolerance; a line
per criterion is printed (run with -s to see them on success).  All
numeric comparisons are coefficient-exact at the stated precision;
everything symbolic is exact arithmetic over F_q(T).
"""

import random
import time

from ffmzv import (DependenceProblem, Evaluator, Index, IndexAlgebra, RatFunc,
                   Reducer, ValueFamily, carlitz_l, compositions, field,
                   find_dependence)
from ffmzv.charzero import check_prodsum0, duality_report, example45_report
from ffmzv.indices import EMPTY


def _line(n, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n:>2} {label}: {status}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {n} failed: {label}"


def _gen_triples(q, wmax):
    for w in range(q, wmax + 1):
        for m in range(1, w // q + 1):
            rest = w - m * q
            for ws in range(rest + 1):
                for s in compositions(ws):
                    for n in compositions(rest - ws):
                        yield s, m, n


def test_criterion_01_fundamental_exact():
    t0 = time.time()
    for q in (2, 3, 4):
        E = Evaluator(field(q))
        for d in range(5):
            rep = E.fundamental_identity_check(d)
            assert rep.ok, (q, d)
    elapsed = time.time() - t0
    _line(1, "fundamental relation exact, q in {2,3,4}, d <= 4",
          elapsed < 10.0, f"{elapsed:.1f}s < 10s")


def test_criterion_02_power_sum_coincidence():
    ok = True
    for q in (2, 3):
        F = field(q)
        E = Evaluator(F)
        for d in range(5):
            for s in range(1, q + 1):
                ok = ok and (E.power_sum_exact(d, s)
                             == RatFunc(F.poly([1]), carlitz_l(F, d) ** s))
    _line(2, "S_d(s) = L_d^(-s) exactly for s <= q, d <= 4, q in {2,3}", ok)


def test_criterion_03_product_formulas_numeric():
    t0 = time.time()
    N = 40
    ok = True
    for q in (2, 3):
        ctx_f = field(q)
        E = Evaluator(ctx_f)
        A = IndexAlgebra(ctx_f)
        rng = random.Random(q * 1000 + 7)
        pool = [s for w in range(1, 7) for s in compositions(w)]
        for k in range(50):
            s, n = rng.choice(pool), rng.choice(pool)
            for fam, kind in ((ValueFamily.ZETA, "qshuffle"), (ValueFamily.LI, "harmonic")):
                lhs = E.eval_value(fam, A.mono(s), N) * E.eval_value(fam, A.mono(n), N)
                rhs = E.eval_value(fam, A.product(A.mono(s), A.mono(n), kind), N)
                ok = ok and lhs == rhs
    elapsed = time.time() - t0
    _line(3, "50 random product pairs per q and kind at N=40",
          ok and elapsed < 120.0, f"{elapsed:.1f}s < 120s")


def test_criterion_04_prodsum_and_dagger_expansion():
    N = 40
    ok = True
    for q in (2, 3):
        F = field(q)
        E = Evaluator(F)
        R = Reducer(IndexAlgebra(F))
        for w in range(1, 7):
            for s in compositions(w, max_depth=4):
                for fam in (ValueFamily.ZETA, ValueFamily.LI):
                    famd = fam.dagger
                    tot1 = tot2 = None
                    for i in range(s.depth + 1):
                        a = E.eval_value(fam, s.prefix(i), N) * E.eval_value(famd, s.drop(i), N)
                        b = E.eval_value(famd, s.prefix(i), N) * E.eval_value(fam, s.drop(i), N)
                        tot1 = a if tot1 is None else tot1 + a
                        tot2 = b if tot2 is None else tot2 + b
                    ok = ok and tot1.is_zero_to_prec and tot2.is_zero_to_prec
                    exp = E.eval_value(fam, R.dagger_expand(fam.side, s), N)
                    ok = ok and E.eval_value(famd, s, N) == exp
    _line(4, "prod-sum identities and dagger expansion at N=40, weight <= 6", ok)


def test_criterion_05_kernel_reduction_exact():
    t0 = time.time()
    ok = True
    for q in (2, 3):
        R = Reducer(IndexAlgebra(field(q)))
        for fam in ("li", "zeta"):
            for s, m, n in _gen_triples(q, 6):
                red = R.reduce_to_T(fam, R.gen_A(fam, s, m, n))
                ok = ok and red.is_zero
    elapsed = time.time() - t0
    _line(5, "all weight <= 6 generators reduce to zero",
          ok and elapsed < 120.0, f"{elapsed:.1f}s < 120s")


def test_criterion_06_theorem_pipeline():
    ok = True
    for q in (2, 3):
        R = Reducer(IndexAlgebra(field(q)))
        for w in range(0, 7):
            rep = R.check_theorem(w)
            ok = ok and rep.ok
    _line(6, "dagger images in the ideal and iota^2 = id for w <= 6", ok)


def test_criterion_07_nontriviality():
    # q = 2: quotient at weight 6 is three-dimensional and Li_6 class is nonzero
    R2 = Reducer(IndexAlgebra(field(2)))
    qs = R2.quotient_space(6)
    ok = qs.dim_quotient == 3
    red = R2.reduce_to_T("li", R2.algebra.mono((6,)))
    ok = ok and not qs.class_is_zero(R2.to_vector(6, red))
    # q = 3 (p odd): class(dagger(1) - (1)) nonzero at weight 1
    R3 = Reducer(IndexAlgebra(field(3)))
    wit = R3.reduce_to_T("li", R3.dagger_expand("li", Index((1,))) - R3.algebra.mono((1,)))
    ok = ok and not R3.quotient_space(1).class_is_zero(R3.to_vector(1, wit))
    # q = 4: class((2)) nonzero at weight 2
    R4 = Reducer(IndexAlgebra(field(4)))
    wit = R4.reduce_to_T("li", R4.algebra.mono((2,)))
    ok = ok and not R4.quotient_space(2).class_is_zero(R4.to_vector(2, wit))
    _line(7, "three non-triviality witnesses (q=2 w=6 dim 3; q=3 w=1; q=4 w=2)", ok)


def test_criterion_08_propositions():
    ok = True
    for q in (2, 3):
        R = Reducer(IndexAlgebra(field(q)))
        for s in range(1, 5):
            for n in range(1, 5):
                ok = ok and R.check_prop41(s, n).ok
        for wtot in range(0, 6):
            for ws in range(wtot + 1):
                for s in compositions(ws):
                    if not (s.is_empty or s[-1] < q):
                        continue
                    wn = wtot - ws
                    for n in ([EMPTY] if wn == 0 else [Index((wn,))]):
                        ok = ok and R.check_prop42(s, n).ok
    _line(8, "prop 4.1 (s,n <= 4) and prop 4.2 (total weight <= 5), q in {2,3}", ok)


def test_criterion_09_witness_recovery():
    F = field(2)
    E = Evaluator(F)
    vals = [E.eval_value("li", Index((2,)), 30), E.eval_value("li", Index((1, 1)), 30)]
    kernel = find_dependence(DependenceProblem(vals, 2))
    ok = (len(kernel) == 1 and kernel[0][0] == F.poly([1])
          and kernel[0][1] == carlitz_l(F, 1))
    pair = [E.eval_value("zeta", EMPTY, 30), E.eval_value("zeta", Index((1,)), 30)]
    ok = ok and find_dependence(DependenceProblem(pair, 2)) == []
    _line(9, "dependence finder recovers (1, L_1) and reports no fake kernel", ok)


def test_criterion_10_charzero():
    t0 = time.time()
    M, tol = 10 ** 6, 1e-5
    ok = True
    for s in ((2,), (3,), (4,), (2, 2), (2, 4), (3, 1)):
        ok = ok and duality_report(Index(s), M, tol).ok
    for s in ((2, 3), (2, 2, 2), (3, 2)):
        ok = ok and check_prodsum0(Index(s), M, tol).ok
    rep = example45_report(M, tol)
    ok = ok and rep.ok and len(rep.cases) == 4
    elapsed = time.time() - t0
    _line(10, "duality corpus, prodsum0, example quantities at M=1e6",
          ok and elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_criterion_11_conjecture_experiment():
    R = Reducer(IndexAlgebra(field(2)))
    ok = True
    for w in range(0, 5):
        for s in compositions(w):
            rep = R.check_conjecture(s)
            ok = ok and all(c.status == "observation" for c in rep.cases)
            if s.depth <= 1:
                ok = ok and rep.cases[0].detail == "classes equal"
    _line(11, "conjecture experiment emits observations; depth-1 classes equal", ok)
