"""Command-line behaviour: exit codes, JSON schema, determinism."""

import argparse
import ast
import collections
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from ffmzv import cli
from ffmzv.algebra import LaurentSeries
from ffmzv.cli import _build_parser, parse_poly, parse_ratfunc, run
from ffmzv import (Evaluator, Index, IndexAlgebra, IndexPoly, InvalidInput, Poly, ProductKind,
                   RatFunc, Reducer, ValueFamily, field, parse_index)
from ffmzv.evaluate import SeriesPacking
from test_reduction import DaggerBumpReducer


def run_cli(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_eval_ok_and_parse_error():
    code, text = run_cli(["eval", "--q", "2", "--family", "li",
                          "--index", "(1,1)", "--prec", "20"])
    assert code == 0
    assert "T^-2" in text
    code, _ = run_cli(["eval", "--q", "2", "--family", "li", "--index", "(bad"])
    assert code == 2
    code, _ = run_cli(["eval", "--q", "2", "--family", "li", "--index", "(0)"])
    assert code == 2


def test_bad_flags_exit_2(capsys):
    code, _ = run_cli(["eval", "--q", "2", "--family", "nosuch", "--index", "()"])
    assert code == 2
    code, _ = run_cli(["nosuchcommand"])
    assert code == 2


def test_verify_fundamental_exit_zero():
    code, text = run_cli(["verify", "--suite", "fundamental", "--q", "2", "--max-d", "4"])
    assert code == 0
    assert text.count("[pass") == 5


def test_fundamental_q9_default_exits_3_quickly():
    """At q=9 the default --max-d 4 needs L_4 divided by 9^4 monic polynomials
    (4.8e7 cells) at d=3: refused up front instead of running for minutes."""
    t = time.perf_counter()
    code, text = run_cli(["verify", "--suite", "fundamental", "--q", "9"])
    assert time.perf_counter() - t < 20
    assert code == 3
    assert "PrecisionTooExpensive" in text and "48420180 cells" in text


def test_internal_error_exit_3():
    """zeta (3) at q=2, N=200 needs the levels d <= 5, so 2^5 = 32 > 16 monic
    polynomials at the last one."""
    code, text = run_cli(["eval", "--q", "2", "--family", "zeta", "--index", "(3)",
                          "--prec", "200", "--budget", "16"])
    assert code == 3
    assert "PrecisionTooExpensive" in text


def test_reduction_cap_exit_3():
    code, text = run_cli(["reduce", "--q", "2", "--family", "li",
                          "--index", "(5,5)", "--cap", "1"])
    assert code == 3
    assert "ReductionDiverged" in text


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FFMZV_BUDGET", "16")
    code, _ = run_cli(["eval", "--q", "2", "--family", "zeta", "--index", "(3)",
                       "--prec", "200", "--budget", str(1 << 30)])
    assert code == 3
    monkeypatch.delenv("FFMZV_BUDGET")


@pytest.mark.parametrize("env", ["abc", "1.5", "-1", "2"])
def test_budget_env_must_be_an_integer_at_least_q(monkeypatch, env):
    monkeypatch.setenv("FFMZV_BUDGET", env)
    code, text = run_cli(["eval", "--q", "3", "--family", "li", "--index", "(1)"])
    assert code == 2 and text.startswith("error: ") and "FFMZV_BUDGET" in text, text


def test_conjecture_observation_never_fails():
    code, text = run_cli(["conjecture", "--q", "2", "--index", "(1,2)"])
    assert code == 0
    assert "observation" in text


def test_conjecture_weight_sweep():
    code, text = run_cli(["conjecture", "--q", "2", "--max-weight", "3"])
    assert code == 0
    assert text.count("[observation]") == 1 + 1 + 2 + 4


def test_iota_command():
    code, text = run_cli(["iota", "--q", "2", "--weight", "6",
                          "--check", "involution,nontrivial"])
    assert code == 0
    assert "quotient dimension 3" in text


@pytest.mark.parametrize("q,w", [(3, 1), (5, 2), (2, 6)])
def test_iota_nontrivial_stays_in_Y(q, w, monkeypatch):
    """Each non-triviality witness is decided on the packed Y-form quotient:
    the T-form reduction and the public quotient are never built."""

    def refuse(*args, **kwargs):
        raise AssertionError("T-form path taken")

    monkeypatch.setattr(Reducer, "quotient_space", refuse)
    monkeypatch.setattr(Reducer, "reduce_to_T", refuse)
    code, text = run_cli(["iota", "--q", str(q), "--weight", str(w), "--check", "nontrivial"])
    assert code == 0, text
    assert "[pass       ]" in text and "nonzero class" in text


def test_depend_command(tmp_path):
    path = tmp_path / "dep.json"
    code, _ = run_cli(["depend", "--q", "2", "--values", "li:(2);li:(1,1)",
                       "--deg-bound", "2", "--prec", "30", "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["check"] == "depend"
    assert any("T^2+T" in c["detail"] for c in data["cases"])


def test_depend_with_literal_value():
    code, text = run_cli(["depend", "--q", "2", "--prec", "30", "--deg-bound", "1",
                          "--values", "li:(2);(T^2+T)/(1)"])
    assert code == 0


def test_depend_reports_inputs_zero_to_precision():
    code, text = run_cli(["depend", "--q", "2", "--values",
                          "li:(1,1,1,1,1,1,1);li:(7);li:(1,6)", "--deg-bound", "3",
                          "--prec", "60"])
    assert code == 0
    assert "] candidate" not in text
    assert ("[observation] li:(1,1,1,1,1,1,1) -- zero to precision 60; "
            "relations on it alone are not reported") in text
    assert text.count("zero to precision") == 1


def test_depend_extension_field_literals():
    """At q=4 the u-coefficients survive expansion: only the true relation is found."""
    code, text = run_cli(["depend", "--q", "4", "--values", "(u*T+1)/T;u;1/T",
                          "--deg-bound", "0", "--prec", "10"])
    assert code == 0
    candidates = [line for line in text.splitlines() if "] candidate" in line]
    assert len(candidates) == 1 and candidates[0].endswith("(1, 1, 1)")


def test_json_schema_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "theorem", "--q", "2", "--max-weight", "3", "--json"]
    assert run_cli(argv + [str(p1)])[0] == 0
    assert run_cli(argv + [str(p2)])[0] == 0
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    for d in (d1, d2):
        assert set(d) == {"check", "params", "cases", "summary", "version", "elapsed_ms"}
        assert d["summary"]["fail"] == 0
        assert d["summary"]["pass"] == len([c for c in d["cases"] if c["status"] == "pass"])
        for c in d["cases"]:
            assert set(c) == {"input", "status", "detail"}
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


def test_product_and_reduce_commands():
    code, text = run_cli(["product", "--q", "3", "--kind", "qshuffle",
                          "--left", "(1)", "--right", "(1)"])
    assert code == 0 and "2*(1,1) + (2)" in text
    code, text = run_cli(["reduce", "--q", "2", "--family", "li", "--index", "(2)"])
    assert code == 0 and "(T^2+T)*(1,1)" in text


def test_charzero_commands():
    code, text = run_cli(["charzero", "--check", "duality", "--index", "(2,4)",
                          "--terms", "50000"])
    assert code == 0
    code, text = run_cli(["charzero", "--check", "prodsum", "--index", "(2,3)",
                          "--terms", "50000"])
    assert code == 0
    code, text = run_cli(["charzero", "--check", "example45", "--terms", "50000"])
    assert code == 0 and "zeta(3)^2" in text


def test_extension_field_flags():
    code, text = run_cli(["eval", "--q", "4", "--family", "li", "--index", "(1)",
                          "--prec", "12"])
    assert code == 0
    code, text = run_cli(["eval", "--p", "5", "--e", "2", "--modulus", "2,0,1",
                          "--family", "li", "--index", "(1)", "--prec", "8"])
    assert code == 0


def test_poly_literal_parser():
    F4 = field(4)
    p = parse_poly(F4, "T^2+u*T+1")
    assert str(p) == "T^2+u*T+1"
    p = parse_poly(F4, "(u+1)*T^3+u^2")
    assert p.coeff(3) == F4.gen + F4.one
    F3 = field(3)
    assert parse_poly(F3, "T^2-T") == F3.poly([0, -1, 1])
    r = parse_ratfunc(F3, "(T+1)/(T^2)")
    assert r == RatFunc(F3.poly([1, 1]), F3.poly([0, 0, 1]))
    assert parse_ratfunc(F3, "2") == RatFunc.of(F3.poly([2]), F3)


def test_numeric_suites_fail_below_the_requested_precision(monkeypatch):
    """Truncated values used to pass vacuously, since == compares series at
    the smaller precision; now a case needs a packing of the requested N,
    and a shorter one fails with its precision named."""
    monkeypatch.setattr(Evaluator, "_packing", lambda self, prec: SeriesPacking(self.field, 5))
    for suite, extra in (("products", ["--pairs", "3"]), ("prodsum", [])):
        code, text = run_cli(["verify", "--suite", suite, "--q", "2", "--max-weight", "2",
                              "--prec", "30"] + extra)
        cases = [line for line in text.splitlines() if line.startswith("  [")]
        assert code == 1 and cases, suite
        assert all(line.startswith("  [fail") and line.endswith("N=30, delivered 5")
                   for line in cases), suite
    monkeypatch.undo()
    code, text = run_cli(["verify", "--suite", "products", "--q", "2", "--max-weight", "2",
                          "--prec", "30", "--pairs", "3"])
    assert code == 0 and text.count("-- N=30\n") == 6


def case_lines(text):
    """The (status, input) of each case line of a text report."""
    return [(line[3:14].strip(), line[16:].split(" -- ")[0])
            for line in text.splitlines() if line.startswith("  [")]


class ProductBumpAlgebra(IndexAlgebra):
    """An algebra whose product of one pair of indices of one kind has the
    code of its shallowest index raised by one mod p (a deep index may have
    a value zero to precision)."""

    def __init__(self, spec, at):
        super().__init__(spec)
        self.at = at

    def _prod_indices(self, s, n, kind):
        out = super()._prod_indices(s, n, kind)
        if (s, n, kind) == self.at:
            out = dict(out)  # the memoised dict is shared
            t = min(out, key=lambda t: (len(t), t))
            out[t] = (out[t] + 1) % self.p
        return out


@pytest.mark.parametrize("kind", list(ProductKind))
def test_products_fail_exactly_at_a_changed_product(kind, monkeypatch):
    """A pair of largest weight is a sub-product of no other drawn pair, so
    one changed code of its product fails the cases of that pair and kind,
    wherever it is drawn, and no other case."""
    argv = ["verify", "--suite", "products", "--q", "3", "--max-weight", "3", "--pairs", "40"]
    code, text = run_cli(argv)
    cases = case_lines(text)
    assert code == 0 and {status for status, _ in cases} == {"pass"}
    pairs = [c.split(" ", 2)[2].split(" x ") for _, c in cases if f" {kind.value} " in c]
    s, n = next((parse_index(a), parse_index(b)) for a, b in pairs
                if parse_index(a).weight == parse_index(b).weight == 3)
    monkeypatch.setattr(cli, "IndexAlgebra", lambda spec: ProductBumpAlgebra(spec, (s, n, kind)))
    code, text = run_cli(argv)
    failed = [c for status, c in case_lines(text) if status != "pass"]
    assert code == 1 and failed
    assert failed == [c for _, c in cases if c.endswith(f" {kind.value} {s} x {n}")]


def test_prodsum_fails_at_a_changed_dagger_expansion(monkeypatch):
    """The li dagger expansion of (1,2) gains the index (3): the prodsum
    case of that index fails, and no other, as no composition of weight
    <= 3 holds (1,2) as a proper tail; its detail names the dagger check."""
    monkeypatch.setattr(cli, "Reducer",
                        lambda algebra, cap: DaggerBumpReducer(algebra, (1, 2), (3,), "li"))
    code, text = run_cli(["verify", "--suite", "prodsum", "--q", "2", "--max-weight", "3"])
    assert code == 1
    assert [c for status, c in case_lines(text) if status != "pass"] == ["li (1,2)"]
    # the detail names the failed check, not the slice sums that vanish
    failed = [line for line in text.splitlines() if line.startswith("  [") and "li (1,2)" in line]
    assert len(failed) == 1 and failed[0].endswith(" -- dagger expansion does not match"), failed


class ValueBumpEvaluator(Evaluator):
    """An evaluator whose signed value of one index in one family, a
    ``_packed_sum`` of that one term, gains the constant 1."""

    def __init__(self, spec, budget, family, at):
        super().__init__(spec, budget)
        self.family, self.at = family, Index(at)

    def _packed_sum(self, family, terms, prec):
        out = super()._packed_sum(family, terms, prec)
        if family is self.family and terms == {self.at: 1}:
            packing = self._packing(prec)
            out = packing.reduce(out + packing.one)
        return out


def test_prodsum_reports_slice_sums_that_do_not_vanish(monkeypatch):
    """li (1) gains 1 at q = 3: both slice sums of the case li (1) are
    li(1) + 1 + li-dagger(1) = 1, and its dagger expansion, the code 2 on
    (1), is no one-term query, so it still matches; the zeta case passes."""
    monkeypatch.setattr(cli, "Evaluator", lambda spec, budget: ValueBumpEvaluator(
        spec, budget, ValueFamily.LI, (1,)))
    code, text = run_cli(["verify", "--suite", "prodsum", "--q", "3", "--max-weight", "1"])
    assert code == 1
    assert [line for line in text.splitlines() if line.startswith("  [")] == [
        "  [fail       ] li (1) -- slice sums do not vanish, residuals: "
        "1 + O(T^-28), 1 + O(T^-28)",
        "  [pass       ] zeta (1) -- slice sums vanish; dagger expansion matches"]


def test_prop41_reports_a_nonzero_reduction_and_class(monkeypatch):
    """The zeta dagger of (1), the code 2 on (1), bumped by (1) loses its
    only term at q = 3: of the 32 prop41 cases, the exact identity and the
    congruence of s = n = 1 fail, each with its detail."""
    monkeypatch.setattr(cli, "Reducer",
                        lambda algebra, cap: DaggerBumpReducer(algebra, (1,), (1,), "zeta"))
    code, text = run_cli(["verify", "--suite", "prop41", "--q", "3"])
    assert code == 1
    cases = [line for line in text.splitlines() if line.startswith("  [")]
    assert len(cases) == 32
    assert [line for line in cases if not line.startswith("  [pass")] == [
        "  [fail       ] congruence s=1 n=1 -- nonzero class",
        "  [fail       ] exact s=1 n=1 -- nonzero reduction"]


@pytest.mark.parametrize("s, n", [((2,), ()), ((), (1, 1))])
def test_prop42_observes_an_image_outside_the_ideal(s, n):
    """Beyond the hypotheses (s ends in q, or n has depth 2) at q = 2, the
    dagger of the generator's leading index bumped by a quotient basis index
    takes the image out of the ideal: an observation, which exits 0.  The
    prop42 suite runs only cases within the hypotheses, so the report goes
    through the printer directly."""
    s, n = Index(s), Index(n)
    w, lead = s.weight + 2 + n.weight, s.cat(Index((2,)), n)
    term = Reducer(IndexAlgebra(field(2))).quotient_space(w).quotient_basis[0]
    rep = DaggerBumpReducer(IndexAlgebra(field(2)), lead, term).check_prop42(s, n)
    out = io.StringIO()
    assert cli._emit(rep, argparse.Namespace(json=None), 0, out=out) == 0
    assert out.getvalue().splitlines()[1] == (
        f"  [observation] s={s} n={n} -- beyond proven hypotheses: NOT in ideal")


def test_products_build_no_wrapper_per_case(monkeypatch):
    """The products suite compares packed ints: IndexPoly, RatFunc and
    LaurentSeries are built only for the level factors of the entries that
    occur, so 400 pairs, drawing no entry that 200 do not, build no more."""
    counts = collections.Counter()

    def counting(cls, name):
        real = getattr(cls, name)

        def count(*args, **kwargs):
            counts[cls.__name__] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, staticmethod(count)
                            if isinstance(cls.__dict__[name], classmethod) else count)

    for cls, names in ((IndexPoly, ("__init__", "_of")), (RatFunc, ("__init__", "_make")),
                       (LaurentSeries, ("_set",))):
        for name in names:
            counting(cls, name)
    levels = []
    init = cli.Context.__init__

    def recording(self, args):
        init(self, args)
        levels.append(self.evaluator._level)
    monkeypatch.setattr(cli.Context, "__init__", recording)
    made = []
    for pairs in ("200", "400"):
        counts.clear()
        code, _ = run_cli(["verify", "--suite", "products", "--q", "3", "--max-weight", "4",
                           "--pairs", pairs])
        assert code == 0
        made.append(dict(counts))
    assert set(levels[0]) == set(levels[1])
    assert made[0] == made[1] and made[0]["LaurentSeries"] > 0, made


_IMPORT_GUARD = r"""
import io, sys
import ffmzv
lazy = ("ffmzv.reduction", "ffmzv._packed", "ffmzv._linalg", "ffmzv.dependence",
        "ffmzv.charzero")
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, f"import ffmzv loaded {loaded}"
import ffmzv.cli
from ffmzv import cli
loaded = [m for m in lazy if m in sys.modules]
assert not loaded, f"importing the CLI loaded {loaded}"

made = []

class Counted(cli.Context):
    def __init__(self, args):
        made.append(args.command)
        super().__init__(args)

cli.Context = Counted  # run looks the class up when called, as perfbench/rep.py relies on
for argv in (["verify", "--suite", "theorem", "--q", "2", "--max-weight", "4"],
             ["verify", "--suite", "prop42", "--q", "3", "--max-weight", "3"]):
    assert cli.run(argv, out=io.StringIO()) == 0, argv
assert "numpy" not in sys.modules, "a symbolic command loaded numpy"
assert "ffmzv._gfnum" not in sys.modules, "a symbolic command loaded the numeric kernels"
loaded = [m for m in ("ffmzv.dependence", "ffmzv.charzero") if m in sys.modules]
assert not loaded, f"a symbolic command loaded {loaded}"
assert len(made) == 2, made
for argv in (["verify", "--suite", "products", "--q", "3", "--max-weight", "4", "--pairs", "40"],
             ["verify", "--suite", "prodsum", "--q", "3", "--max-weight", "4"],
             ["verify", "--suite", "fundamental", "--q", "3", "--max-d", "3"],
             ["eval", "--q", "3", "--family", "zeta", "--index", "(5,4)", "--prec", "60"],
             ["depend", "--q", "2", "--values", "li:(2);li:(1,1)", "--deg-bound", "2",
              "--prec", "30"]):
    assert cli.run(argv, out=io.StringIO()) == 0, argv
assert "ffmzv._gfnum" in sys.modules, "the numeric commands ran without their kernels"
assert "numpy" not in sys.modules, "a numeric command loaded numpy"
assert cli.run(["charzero", "--check", "duality", "--index", "(2,3)", "--terms", "1000"],
               out=io.StringIO()) == 0
assert "numpy" in sys.modules, "charzero ran without numpy"
missing = [n for n in sys.argv[1:] if not hasattr(ffmzv, n)]
assert not missing, missing
print("ok")
"""

_NUMERIC_GUARD = r"""
import io, sys
import ffmzv
from ffmzv import cli
for argv in (["verify", "--suite", "products", "--q", "3", "--max-weight", "4", "--pairs", "40"],
             ["verify", "--suite", "fundamental", "--q", "3", "--max-d", "3"],
             ["eval", "--q", "3", "--family", "zeta-star", "--index", "(5,4)", "--prec", "60"],
             ["product", "--q", "3", "--kind", "qshuffle", "--left", "(2,1)", "--right", "(3)"],
             ["depend", "--q", "2", "--values", "li:(2);li:(1,1)", "--deg-bound", "2",
              "--prec", "30"]):
    assert cli.run(argv, out=io.StringIO()) == 0, argv
loaded = [m for m in ("ffmzv.reduction", "ffmzv._packed", "ffmzv._linalg", "ffmzv.charzero")
          if m in sys.modules]
assert not loaded, f"a numeric command loaded {loaded}"
assert "numpy" not in sys.modules, "a numeric command loaded numpy"
names = sys.argv[1:]
assert sorted(ffmzv.__all__) == sorted(names), sorted(set(ffmzv.__all__) ^ set(names))
missing = [n for n in names if n not in dir(ffmzv)]
assert not missing, f"missing from dir(ffmzv): {missing}"
star = {}
exec("from ffmzv import *", star)
missing = [n for n in names if n not in star]
assert not missing, f"not bound by from ffmzv import *: {missing}"
assert star["Reducer"] is ffmzv.reduction.Reducer and cli.Reducer is ffmzv.Reducer
missing = [n for n in names if not hasattr(ffmzv, n)]
assert not missing, missing
print("ok")
"""


def _public_names(src):
    """The names __init__ imports, eagerly or through its table of lazy names."""
    tree = ast.parse((src / "ffmzv" / "__init__.py").read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_LAZY":
            names += [n for group in ast.literal_eval(node.value).values() for n in group]
    return names


def _run_guard(script, *argv):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr[-2000:]


def test_symbolic_commands_do_not_load_numpy():
    """In a fresh interpreter, importing the package and the CLI loads none
    of the rewriting stack, depend or charzero; the symbolic verify suites
    leave numpy, the numeric kernels, depend and charzero unloaded; the
    numeric suites, eval and depend leave numpy unloaded, charzero loads
    it, and every public name of the package resolves."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    names = _public_names(src)
    assert len(names) > 40
    _run_guard(_IMPORT_GUARD, *names)


def test_numeric_commands_do_not_load_the_rewriting_stack():
    """In a fresh interpreter, the products and fundamental suites, eval,
    product and depend leave reduction, its packed vectors and elimination,
    charzero and numpy unloaded; then every public name is in __all__ and
    dir(ffmzv), and resolves through hasattr and through a star import."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    _run_guard(_NUMERIC_GUARD, *_public_names(src))


def test_charzero_without_numpy_exits_2():
    """With numpy unimportable, charzero exits 2 before any work, with an
    error line naming the extra that installs it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    script = "import sys; sys.modules['numpy'] = None; from ffmzv.cli import main; main()"
    proc = subprocess.run([sys.executable, "-c", script, "charzero", "--check", "example45"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout.startswith("error: ") and "ffmzv[charzero]" in proc.stdout, proc.stdout


def test_verify_all_runs_every_suite_in_order(monkeypatch):
    """--suite all makes one report per suite, in _SUITE_FN order, and
    --json - prints them after the text as one JSON list; it exits 0 while
    every suite passes and 1 once one fails: a changed li dagger of (1,2)
    fails the suites that use it and no other."""
    argv = ["verify", "--suite", "all", "--q", "2", "--max-weight", "3", "--max-d", "2",
            "--pairs", "5", "--json", "-"]
    for bump, failing in ((None, []), ((3,), ["prodsum", "theorem", "keylemma"])):
        monkeypatch.setattr(cli, "Reducer",
                            lambda algebra, cap: DaggerBumpReducer(algebra, (1, 2), bump, "li"))
        code, text = run_cli(argv)
        assert code == (1 if failing else 0)
        plain, _, payload = text.partition("\n[")
        heads = [line.split()[1] for line in plain.splitlines() if line.startswith("== ")]
        assert heads == list(cli._SUITE_FN)
        data = json.loads("[" + payload)
        assert [r["check"] for r in data] == heads
        assert [r["check"] for r in data if r["summary"]["fail"]] == failing


def test_json_dash_prints_one_report_on_stdout():
    """--json - prints the report as one JSON object after the text, which
    is the text of the same command without it."""
    argv = ["eval", "--q", "2", "--family", "li", "--index", "(1,1)", "--prec", "20"]
    _, plain = run_cli(argv)
    code, text = run_cli(argv + ["--json", "-"])
    assert code == 0 and text.startswith(plain)
    data = json.loads(text[len(plain):])
    assert data["check"] == "eval" and data["params"]["index"] == "(1,1)"
    assert data["cases"][0]["detail"] in plain


_EVAL = ["--family", "li", "--index", "(1)"]


@pytest.mark.parametrize("argv", [
    ["eval", "--q", "3", "--modulus", "1,x"] + _EVAL,
    ["eval", "--p", "3", "--modulus", "1,x"] + _EVAL,
    ["eval", "--p", "4"] + _EVAL,
    ["eval", "--p", "3", "--e", "-1"] + _EVAL,
    ["eval", "--q", "2", "--prec", "-1"] + _EVAL,
    ["depend", "--q", "2", "--values", "li:(1)", "--prec", "-1"],
    ["verify", "--suite", "prodsum", "--q", "2", "--max-weight", "2", "--prec", "-1"],
    ["verify", "--suite", "products", "--q", "2", "--max-weight", "2", "--prec", "-1"],
    ["verify", "--suite", "products", "--q", "2", "--max-weight", "0"],
    ["iota", "--q", "2", "--weight", "2", "--check", "foo"],
    ["iota", "--q", "2", "--weight", "2", "--check", "involution,foo"],
    ["iota", "--q", "2", "--weight", "2", "--check", ","],
    ["iota", "--q", "2", "--weight", "2", "--check", ""],
    ["reduce", "--q", "2", "--family", "li", "--index", "(2)", "--cap", "-1"],
    ["eval", "--q", "2", "--budget", "-1"] + _EVAL,
    ["eval", "--q", "3", "--budget", "2"] + _EVAL,
    ["verify", "--suite", "products", "--q", "2", "--pairs", "0"],
    ["verify", "--suite", "fundamental", "--q", "2", "--max-d", "-1"],
    ["verify", "--suite", "theorem", "--q", "2", "--max-weight", "-1"],
    ["verify", "--suite", "keylemma", "--q", "2", "--max-weight", "-1"],
    ["conjecture", "--q", "2", "--max-weight", "-1"],
    ["verify", "--suite", "theorem", "--q", "2", "--prec", "-1"],
    ["iota", "--q", "2", "--weight", "-3", "--check", "nontrivial"],
    ["charzero", "--check", "example45", "--tol", "-1"],
    ["charzero", "--check", "example45", "--tol", "nan"],
    ["charzero", "--check", "example45", "--tol", "inf"],
])
def test_malformed_flag_values_exit_2(argv):
    code, text = run_cli(argv)
    assert code == 2 and text.startswith("error: "), (argv, text)


def test_runs_share_one_parser_and_no_values():
    """One parser serves every run in a process; a flag given to one run
    does not reach the next."""
    assert _build_parser() is _build_parser()
    argv = ["reduce", "--q", "2", "--family", "li", "--index", "(2)"]
    assert run_cli(argv + ["--cap", "-1"])[0] == 2
    assert run_cli(argv)[0] == 0


def test_negative_deg_bound_is_refused_before_any_value(monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("a value was evaluated")

    monkeypatch.setattr(Evaluator, "eval_value", no_eval)
    code, text = run_cli(["depend", "--q", "2", "--values", "li:(1);li:(2)",
                          "--deg-bound", "-1"])
    assert code == 2 and text.startswith("error: ") and "--deg-bound" in text, text


@pytest.mark.parametrize("literal", [
    "u^b*T", "T^a", "x*u*T", "T^2^3", "(T+1", "1.5*T", "T[0]", '__import__("os")',
    "1/0", "T^-1", "T^2+", "0x10", "1_0", "True", "T^200000000", "(T+1)^100000",
    "T^40000*T^40000", "1/(T^40000*T^40000)",
])
def test_malformed_literals_exit_2(literal):
    code, text = run_cli(["depend", "--q", "4", "--values", literal,
                          "--prec", "5", "--deg-bound", "0"])
    assert code == 2 and text.startswith("error: "), (literal[:20], text)


def test_literal_grammar():
    """Integers are read mod p with leading zeros allowed, u is the field
    generator, / binds tighter than +, and signs may follow an operator."""
    F4 = field(4)
    u, T = F4.gen, F4.T
    cases = {"T^02": T * T, "007": F4.poly([7]), "u^2*3*T": T.scale(u * u * F4.elem(3)),
             "2*-T": -T.scale(F4.elem(2)), "(u+T)*T": T * T + T.scale(u),
             " -T ^ 2 ": -(T * T)}
    for text, want in cases.items():
        assert parse_poly(F4, text) == want, text
    r = parse_ratfunc(F4, "T+1/T^2")
    assert r == RatFunc.of(T) + RatFunc(F4.poly([1]), T * T)
    assert r != parse_ratfunc(F4, "(T+1)/T^2")
    with pytest.raises(InvalidInput):
        parse_poly(F4, "1/T")
    with pytest.raises(InvalidInput, match="too deeply nested"):
        parse_ratfunc(F4, "+".join(["T"] * 3000))
    assert parse_poly(F4, "T^65536") == T.shift(65535)
    assert parse_ratfunc(F4, "1/(T^32768)^2") == RatFunc(F4.poly([1]), T.shift(65535))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_printed_values_parse_back(q):
    F = field(q)
    rng = random.Random(q)

    def rand_poly():
        return Poly(F, [F.from_index(rng.randrange(q)) for _ in range(rng.randint(1, 5))])

    for _ in range(60):
        num, den = rand_poly(), rand_poly()
        assert parse_poly(F, str(num)) == num
        if not den.is_zero:
            r = RatFunc(num, den)
            assert parse_ratfunc(F, str(r)) == r, str(r)
