"""Command-line front end: reproducible verification runs with JSON reports.

Exit codes: 0 when no case failed (observations never gate), 1 when a
case failed, 2 for usage or syntax errors, 3 for internal limits
(budget exceeded, reduction cap).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import random
import re
import sys
import time
from functools import cached_property, lru_cache

from .algebra import FieldSpec, Poly, RatFunc, field, rat_to_laurent
from .errors import DivisionByZero, FFMZVError, InvalidInput, NotAdmissible
from .evaluate import EvalBudget, Evaluator, ValueFamily, default_precision
from .indices import (EMPTY, Index, IndexAlgebra, ProductKind, compositions,
                      parse_index)
from .reports import Case, Report, merge


def __getattr__(name):
    """``cli.Reducer`` is imported from ``reduction`` the first time it is
    read; ``Context.reducer`` reads it here, so a monkeypatch takes effect."""
    if name != "Reducer":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .reduction import Reducer
    return Reducer


_SUITES = ("fundamental", "products", "prodsum", "theorem", "prop41", "prop42",
           "keylemma", "all")


# -- literal parsing ----------------------------------------------------------

_LEADING_ZEROS = re.compile(r"\b0+(?=\d)")
_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv}
# the largest degree of a numerator or denominator in a literal, its parts
# included; a power is refused before it is computed
_MAX_LITERAL_DEGREE = 1 << 16


def _is_int(src: str, node) -> bool:
    """A decimal integer literal (no sign, no 0x or 1_000 spellings)."""
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and ast.get_source_segment(src, node).isdigit())


def _bounded(r: RatFunc, n: int = 1) -> RatFunc:
    """r, once r^n is known to have no numerator or denominator of degree
    above _MAX_LITERAL_DEGREE."""
    if max(r.num.degree, r.den.degree) * n > _MAX_LITERAL_DEGREE:
        raise InvalidInput(f"a literal's degree is at most {_MAX_LITERAL_DEGREE}")
    return r


def _walk(spec: FieldSpec, src: str, node) -> RatFunc:
    if isinstance(node, ast.BinOp):
        if type(node.op) in _ARITH:
            return _bounded(_ARITH[type(node.op)](_walk(spec, src, node.left),
                                                  _walk(spec, src, node.right)))
        if isinstance(node.op, ast.Pow) and _is_int(src, node.right):
            n = node.right.value
            return _bounded(_walk(spec, src, node.left), n) ** n
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        v = _walk(spec, src, node.operand)
        return -v if isinstance(node.op, ast.USub) else v
    elif isinstance(node, ast.Name) and node.id in ("T", "u"):
        return RatFunc.of(spec.T if node.id == "T" else spec.gen)
    elif _is_int(src, node):
        return RatFunc.of(node.value, spec)
    bad = ast.get_source_segment(src, node).replace("**", "^")
    raise InvalidInput(f"{bad!r} is not allowed in a literal")


def parse_ratfunc(spec: FieldSpec, text: str) -> RatFunc:
    """Evaluate a literal such as "(u*T+1)/T^2" in F_q(T).

    Allowed: decimal integers (read mod p), T, u (the field generator),
    unary + and -, binary + - * / with the usual precedence, and ^ with a
    non-negative integer exponent.  No numerator or denominator, of the
    literal or of any part of it, may exceed degree _MAX_LITERAL_DEGREE.
    """
    src = _LEADING_ZEROS.sub("", text.strip()).replace("^", "**")
    try:
        return _walk(spec, src, ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        raise InvalidInput(f"bad literal {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # parser and _walk depth limits
        raise InvalidInput("literal too deeply nested or too large") from None
    except DivisionByZero:
        raise InvalidInput(f"division by zero in {text!r}") from None


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse a polynomial literal such as "T^2+u*T+1" (see parse_ratfunc)."""
    r = parse_ratfunc(spec, text)
    if not r.is_poly:
        raise InvalidInput(f"{text!r} is not a polynomial")
    return r.num


# -- context -------------------------------------------------------------------

# the least meaningful value of each count flag
_FLAG_FLOORS = {"cap": 0, "max_weight": 0, "weight": 0, "max_d": 0, "prec": 0, "pairs": 1,
                "deg_bound": 0}


class Context:
    """Everything a subcommand needs, derived from the common flags, each
    checked before any work starts."""

    def __init__(self, args):
        for name, floor in _FLAG_FLOORS.items():
            value = getattr(args, name, None)
            if value is not None and value < floor:
                raise InvalidInput(f"--{name.replace('_', '-')} must be >= {floor}")
        try:
            modulus = tuple(int(c) for c in args.modulus.split(",")) if args.modulus else None
        except ValueError:
            raise InvalidInput(f"--modulus {args.modulus!r} is not a list of integers") from None
        if args.q is not None:
            self.field = field(args.q, modulus)
        else:  # FieldSpec checks that p is prime and e >= 1
            p = args.p if args.p is not None else 2
            e = args.e if args.e is not None else 1
            self.field = FieldSpec(p, e, modulus)
        env = os.environ.get("FFMZV_BUDGET")
        try:
            budget = int(env) if env else args.budget
        except ValueError:
            budget = None
        if budget is None or budget < self.field.q:  # EvalBudget's least budget
            raise InvalidInput(f"{'FFMZV_BUDGET' if env else '--budget'} must be an "
                               f"integer >= q = {self.field.q}")
        self.budget = EvalBudget(max_bruteforce=budget)
        self.evaluator = Evaluator(self.field, self.budget)
        self.algebra = IndexAlgebra(self.field)
        self.args = args

    @cached_property
    def reducer(self):
        """The rewriting stack, imported on first use: the numeric commands
        never read it."""
        return sys.modules[__name__].Reducer(self.algebra, cap=self.args.cap)

    @property
    def q(self):
        return self.field.q

    def prec(self, weight: int = 6) -> int:
        if self.args.prec is not None:
            return self.args.prec
        return default_precision(weight)


def _common_flags(sp):
    sp.add_argument("--q", type=int, default=None, help="field order (prime power)")
    sp.add_argument("--p", type=int, default=None, help="characteristic")
    sp.add_argument("--e", type=int, default=None, help="extension degree")
    sp.add_argument("--modulus", default=None,
                    help="comma-separated F_p coefficients of the field modulus, low first")
    sp.add_argument("--prec", type=int, default=None, help="absolute series precision")
    sp.add_argument("--max-weight", type=int, default=6)
    sp.add_argument("--max-d", type=int, default=4)
    sp.add_argument("--deg-bound", type=int, default=3)
    sp.add_argument("--budget", type=int, default=1 << 20,
                    help="brute-force enumeration cap (env FFMZV_BUDGET overrides)")
    sp.add_argument("--cap", type=int, default=10_000, help="cap on the rewriting height")
    sp.add_argument("--json", default=None, metavar="PATH",
                    help="write the JSON report to PATH ('-' for stdout)")
    sp.add_argument("--seed", type=int, default=20260811)
    sp.add_argument("--pairs", type=int, default=50)


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once: parse_args leaves it unchanged, and a
    rebuilt one is cyclic garbage that outlives the run."""
    ap = argparse.ArgumentParser(
        prog="ffmzv",
        description="Exact verification engine for function-field multiple zeta values")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate one value as a Laurent series")
    _common_flags(sp)
    sp.add_argument("--family", required=True,
                    choices=[f.value for f in ValueFamily])
    sp.add_argument("--index", required=True)

    sp = sub.add_parser("product", help="harmonic or q-shuffle product of two indices")
    _common_flags(sp)
    sp.add_argument("--kind", required=True, choices=["harmonic", "qshuffle"])
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)

    sp = sub.add_parser("reduce", help="rewrite a value into Thakur-basis coordinates")
    _common_flags(sp)
    sp.add_argument("--family", required=True, choices=["zeta", "li"])
    sp.add_argument("--index", required=True)

    sp = sub.add_parser("verify", help="run a verification suite")
    _common_flags(sp)
    sp.add_argument("--suite", required=True, choices=_SUITES)

    sp = sub.add_parser("iota", help="involution checks at one weight")
    _common_flags(sp)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--check", default="involution,nontrivial")

    sp = sub.add_parser("conjecture", help="compare iota with the dagger class (report only)")
    _common_flags(sp)
    sp.add_argument("--index", default=None)

    sp = sub.add_parser("depend", help="numeric linear-dependence search")
    _common_flags(sp)
    sp.add_argument("--values", required=True,
                    help='semicolon-separated selectors, e.g. "li:(2);li:(1,1)"')

    sp = sub.add_parser("charzero", help="characteristic-zero comparisons")
    _common_flags(sp)
    sp.add_argument("--check", required=True, choices=["duality", "prodsum", "example45"])
    sp.add_argument("--index", default=None)
    sp.add_argument("--terms", type=int, default=10 ** 6)
    sp.add_argument("--tol", type=float, default=1e-5)

    return ap


# -- suites ---------------------------------------------------------------------

def _suite_fundamental(ctx: Context) -> Report:
    reports = [ctx.evaluator.fundamental_identity_check(d)
               for d in range(ctx.args.max_d + 1)]
    return merge("fundamental", {"q": ctx.q, "max_d": ctx.args.max_d}, reports)


def _random_index(rng, max_weight):
    w = rng.randint(1, max_weight)
    entries = []
    while w > 0:
        x = rng.randint(1, w)
        entries.append(x)
        w -= x
    return Index(entries)


def _suite_products(ctx: Context) -> Report:
    if ctx.args.max_weight < 1:
        raise InvalidInput("the products suite needs --max-weight >= 1")
    rng, w = random.Random(ctx.args.seed), ctx.args.max_weight
    prec = ctx.prec(w)
    E, A = ctx.evaluator, ctx.algebra
    # packed ints compare at exactly the packing's precision
    packing = E._packing(prec)
    short = packing.prec if packing.prec < prec else None
    cases = []
    for k in range(ctx.args.pairs):
        s, n = _random_index(rng, w), _random_index(rng, w)
        for fam, kind in ((ValueFamily.ZETA, ProductKind.QSHUFFLE),
                          (ValueFamily.LI, ProductKind.HARMONIC)):
            lhs = packing.mul_add(0, E._packed_sum(fam, {s: 1}, prec),
                                  E._packed_sum(fam, {n: 1}, prec))
            rhs = E._packed_sum(fam, A._prod_indices(s, n, kind), prec)
            ok = short is None and lhs == rhs
            cases.append(Case(
                input=f"pair{k:03d} {kind.value} {s} x {n}",
                status="pass" if ok else "fail",
                detail=f"N={prec}" if short is None else f"N={prec}, delivered {short}"))
    return Report("products", {"q": ctx.q, "pairs": ctx.args.pairs, "max_weight": w,
                               "prec": prec}, cases)


def _suite_prodsum(ctx: Context) -> Report:
    prec = ctx.prec(ctx.args.max_weight)
    E, R = ctx.evaluator, ctx.reducer
    packing = E._packing(prec)
    short = packing.prec if packing.prec < prec else None
    cases = []

    def value(fam, s):  # signed
        return E._packed_sum(fam, {s: 1}, prec)

    for w in range(1, ctx.args.max_weight + 1):
        for s in compositions(w, max_depth=4):
            for fam in (ValueFamily.ZETA, ValueFamily.LI):
                famd = fam.dagger
                tot1 = tot2 = 0
                for i in range(s.depth + 1):
                    a, b = s.prefix(i), s.drop(i)
                    tot1 = packing.mul_add(tot1, value(fam, a), value(famd, b))
                    tot2 = packing.mul_add(tot2, value(famd, a), value(fam, b))
                if short is not None:
                    failed = [f"N={prec}, delivered {short}"]
                else:
                    failed = [] if not tot1 and not tot2 else [
                        f"slice sums do not vanish, residuals: {packing.unpack(tot1)}, "
                        f"{packing.unpack(tot2)}"]
                    if value(famd, s) != E._packed_sum(fam, R._dagger(fam.side, s), prec):
                        failed.append("dagger expansion does not match")
                cases.append(Case(
                    input=f"{fam.side} {s}",
                    status="fail" if failed else "pass",
                    detail="; ".join(failed) or "slice sums vanish; dagger expansion matches"))
    return Report("prodsum", {"q": ctx.q, "max_weight": ctx.args.max_weight,
                              "prec": prec}, cases)


def _suite_theorem(ctx: Context) -> Report:
    reports = [ctx.reducer.check_theorem(w) for w in range(ctx.args.max_weight + 1)]
    return merge("theorem", {"q": ctx.q, "max_weight": ctx.args.max_weight}, reports)


def _suite_prop41(ctx: Context) -> Report:
    reports = []
    for s in range(1, 5):
        for n in range(1, 5):
            reports.append(ctx.reducer.check_prop41(s, n))
    return merge("prop41", {"q": ctx.q, "max_entry": 4}, reports)


def _suite_prop42(ctx: Context) -> Report:
    # Only cases within the proven hypotheses run (s[-1] < q, n of depth <= 1),
    # so check_prop42's "beyond proven hypotheses" observations serve the
    # Python API alone; the suite's report bytes are pinned by the benchmark.
    reports = []
    cap = min(ctx.args.max_weight, 5)
    for wtot in range(cap + 1):
        for ws in range(wtot + 1):
            for s in compositions(ws):
                if not (s.is_empty or s[-1] < ctx.q):
                    continue
                wn = wtot - ws
                reports.append(ctx.reducer.check_prop42(s, Index((wn,)) if wn else EMPTY))
    return merge("prop42", {"q": ctx.q, "max_total_weight": cap}, reports)


def _suite_keylemma(ctx: Context) -> Report:
    reports = []
    small = [EMPTY, Index((1,)), Index((2,)), Index((1, 1))]
    chains = [[], [1], [2], [1, 1]]
    for s in small:
        for n in small:
            for cs in chains:
                if s.depth + n.depth + len(cs) < 1:
                    continue
                w = s.weight + n.weight + sum(cs) + len(cs) * (ctx.q - 1)
                if w > ctx.args.max_weight:
                    continue
                reports.append(ctx.reducer.check_keylemma(s, n, cs))
    return merge("keylemma", {"q": ctx.q, "max_weight": ctx.args.max_weight}, reports)


_SUITE_FN = {
    "fundamental": _suite_fundamental,
    "products": _suite_products,
    "prodsum": _suite_prodsum,
    "theorem": _suite_theorem,
    "prop41": _suite_prop41,
    "prop42": _suite_prop42,
    "keylemma": _suite_keylemma,
}


# -- commands --------------------------------------------------------------------

def _cmd_eval(ctx: Context) -> Report:
    s = parse_index(ctx.args.index)
    prec = ctx.prec(max(s.weight, 1))
    val = ctx.evaluator.eval_value(ctx.args.family, s, prec)
    return Report("eval", {"q": ctx.q, "family": ctx.args.family,
                           "index": str(s), "prec": prec},
                  [Case(input=str(s), status="observation", detail=str(val))])


def _cmd_product(ctx: Context) -> Report:
    left = parse_index(ctx.args.left)
    right = parse_index(ctx.args.right)
    A = ctx.algebra
    out = A.product(A.mono(left), A.mono(right), ctx.args.kind)
    return Report("product", {"q": ctx.q, "kind": ctx.args.kind,
                              "left": str(left), "right": str(right)},
                  [Case(input=f"{left} x {right}", status="observation", detail=str(out))])


def _cmd_reduce(ctx: Context) -> Report:
    s = parse_index(ctx.args.index)
    out = ctx.reducer.reduce_to_T(ctx.args.family, ctx.algebra.mono(s))
    return Report("reduce", {"q": ctx.q, "family": ctx.args.family, "index": str(s)},
                  [Case(input=str(s), status="observation", detail=str(out))])


def _cmd_verify(ctx: Context):
    if ctx.args.suite == "all":
        return [fn(ctx) for name, fn in _SUITE_FN.items()]
    return _SUITE_FN[ctx.args.suite](ctx)


def _cmd_iota(ctx: Context) -> Report:
    w = ctx.args.weight
    checks = [c.strip() for c in ctx.args.check.split(",") if c.strip()]
    if not checks:
        raise InvalidInput("no iota checks given")
    unknown = set(checks) - {"involution", "nontrivial"}
    if unknown:
        raise InvalidInput(f"unknown iota checks: {', '.join(sorted(unknown))}")
    R = ctx.reducer
    cases = [R._involution_case(w)] if "involution" in checks else []
    if "nontrivial" in checks:
        cases.append(R._nontrivial_case(w))
    return Report("iota", {"q": ctx.q, "weight": w}, cases)


def _cmd_conjecture(ctx: Context):
    R = ctx.reducer
    if ctx.args.index is not None:
        return R.check_conjecture(parse_index(ctx.args.index))
    reports = []
    for w in range(ctx.args.max_weight + 1):
        for s in compositions(w):
            reports.append(R.check_conjecture(s))
    return merge("conjecture", {"q": ctx.q, "max_weight": ctx.args.max_weight}, reports)


def _cmd_depend(ctx: Context) -> Report:
    from .dependence import DependenceProblem, find_dependence, precision_warning

    sels = [s.strip() for s in ctx.args.values.split(";") if s.strip()]
    if not sels:
        raise InvalidInput("no value selectors given")
    prec = ctx.args.prec if ctx.args.prec is not None else 40
    E, picks = ctx.evaluator, []
    try:
        for sel in sels:
            fam, sep, idx = sel.partition(":")
            if sep and fam in [f.value for f in ValueFamily]:
                picks.append((ValueFamily(fam), parse_index(idx)))
            else:
                picks.append((None, rat_to_laurent(parse_ratfunc(ctx.field, sel), prec)))
    finally:  # values before a bad selector go first, one batch per family
        for fam in ValueFamily:
            E._dp_value(fam, [s for f, s in picks if f is fam], prec)
    series = [E.eval_value(f, v, prec) if f else v for f, v in picks]
    prob = DependenceProblem(series, ctx.args.deg_bound)
    warning = precision_warning(prob)
    kernel = find_dependence(prob)
    cases = []
    for i, tup in enumerate(kernel):
        cases.append(Case(input=f"candidate{i:02d}", status="observation",
                          detail="(" + ", ".join(str(p) for p in tup) + ")"))
    if not kernel:
        cases.append(Case(input="kernel", status="observation", detail="empty"))
    for sel, v in zip(sels, series):
        if v.is_zero_to_prec:
            cases.append(Case(input=sel, status="observation",
                              detail=f"zero to precision {prob.prec}; "
                                     "relations on it alone are not reported"))
    if warning:
        cases.append(Case(input="precision", status="observation", detail=warning))
    return Report("depend", {"q": ctx.q, "values": sels, "deg_bound": ctx.args.deg_bound,
                             "prec": prec}, cases)


def _cmd_charzero(ctx: Context):
    from . import charzero

    args = ctx.args
    if args.check == "duality":
        corpus = ([parse_index(args.index)] if args.index else
                  [Index(t) for t in ((2,), (3,), (4,), (2, 2), (2, 4), (3, 1))])
        reports = [charzero.duality_report(s, args.terms, args.tol) for s in corpus]
        return merge("duality", {"terms": args.terms, "tol": args.tol}, reports)
    if args.check == "prodsum":
        corpus = ([parse_index(args.index)] if args.index else
                  [Index(t) for t in ((2, 3), (2, 2, 2), (3, 2))])
        reports = [charzero.check_prodsum0(s, args.terms, args.tol) for s in corpus]
        return merge("prodsum0", {"terms": args.terms, "tol": args.tol}, reports)
    return charzero.example45_report(args.terms, args.tol)


_COMMANDS = {
    "eval": _cmd_eval,
    "product": _cmd_product,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "iota": _cmd_iota,
    "conjecture": _cmd_conjecture,
    "depend": _cmd_depend,
    "charzero": _cmd_charzero,
}


def _emit(reports, args, elapsed_ms, out=sys.stdout):
    if isinstance(reports, Report):
        reports = [reports]
    payload = []
    worst = 0
    for r in reports:
        r = r.sorted()
        r.elapsed_ms = elapsed_ms
        payload.append(r.to_dict())
        s = r.summary
        print(f"== {r.check}  {json.dumps(r.params, sort_keys=True)}", file=out)
        for c in r.cases:
            print(f"  [{c.status:<11}] {c.input}" + (f" -- {c.detail}" if c.detail else ""),
                  file=out)
        print(f"  summary: {s['pass']} pass, {s['fail']} fail, "
              f"{s['observation']} observation", file=out)
        if s["fail"]:
            worst = 1
    if args.json:
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
        if args.json == "-":
            print(text, file=out)
        else:
            with open(args.json, "w") as fh:
                fh.write(text)
    return worst


def run(argv=None, out=sys.stdout) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.time()
    try:
        ctx = _CharzeroContext(args) if args.command == "charzero" else Context(args)
        reports = _COMMANDS[args.command](ctx)
    except (InvalidInput, NotAdmissible) as exc:
        print(f"error: {exc}", file=out)
        return 2
    except FFMZVError as exc:
        print(f"{type(exc).__name__}: {exc}", file=out)
        return 3
    elapsed_ms = round((time.time() - t0) * 1000.0, 3)
    return _emit(reports, args, elapsed_ms, out=out)


class _CharzeroContext:
    """charzero needs no finite field; keep the args interface."""

    def __init__(self, args):
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise InvalidInput("--tol must be finite and >= 0")
        try:
            import numpy
        except ImportError:
            raise InvalidInput("charzero needs numpy: pip install 'ffmzv[charzero]'") from None
        self.args = args


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
