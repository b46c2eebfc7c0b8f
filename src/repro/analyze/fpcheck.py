"""The floating-point filter-soundness analyzer behind ``repro fpcheck``.

The SoA fast path trusts one invariant: a float sign is only believed
when its margin clears the committed forward-error envelope, so every
lie the float arithmetic could tell escalates to the exact ladder.
PR 3 proved by fuzzing that a hand-written envelope can be too small
(the ``det_with_error_bound`` eps-Hadamard bug).  This pass re-derives
each envelope *statically* from the arithmetic itself -- an abstract
interpretation of the straight-line NumPy/scalar code in the predicate
kernels over the error domain of :mod:`repro.analyze.fperror` -- and
checks that every committed constant dominates the derived bound.

Mechanics: functions carrying ``# repro: fp-bound:`` clauses are
interpreted per *instantiation* -- the ``assume d in 2..3`` clause pins
the symbolic dimension to each value in turn, so branch tests on the
pinned variable are decided exactly and dimension-specific claims
(``@d=3``) attach to the right walk.  Bounds flow interprocedurally
through ``out`` summaries on annotated callees (reusing PR 5's call
graph) and through the bodies of unannotated private helpers of the
same file, walked inline at the caller's pin; the hot region from
PR 6's BFS scopes the comparison rule.  A ``for`` loop over a
``range(...)`` that the pin decides is unrolled, its index bound to
each value in turn, so a loop of ``d`` multiply-adds derives what the
same statements written out derive.

``RPRFP001`` envelope-under-derived
    A ``claim``/``out`` envelope constant does not dominate the bound
    derived from the arithmetic (the PR 3 bug class, caught statically).
``RPRFP002`` unfiltered-comparison
    A float comparison on tracked hull data in a statement that
    mentions no ``guard``-listed envelope name: the sign is trusted
    with no filter on the path.
``RPRFP003`` non-conservative-envelope
    Envelope arithmetic that is not round-toward-conservative: a
    subtraction / division / negation of float data inside a magnitude
    envelope (``envelope``-listed name).
``RPRFP004`` filter-knob-misuse
    A ``filter_scale``-style multiplicative knob below 1, or an
    envelope adjusted *after* it was already used in a comparison.
``RPRFP005`` undecided-loop
    A loop whose trip count the pin does not decide (or that would
    unroll past :data:`MAX_UNROLL` trips) and that assigns tracked
    float data: one walk of its body would under-derive every bound it
    feeds, so the data it assigns is left unknown.
``RPRFP999`` annotation-error
    A file that cannot be parsed, or a malformed ``fp-bound:`` clause.

The static half is deliberately incomplete (first order in u, trusted
``bind``/``in`` magnitude atoms, primitive ``call`` models); the
dynamic differential in ``tests/analyze/test_fpcheck_soundness.py``
closes the loop by shadow-executing the same kernels in ``Fraction``
arithmetic and asserting committed >= derived >= observed, three-way,
over random and the full degenerate corpus.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from ..lint.core import SuppressionComment, iter_suppressions, suppressed_lines
from . import fperror as fe
from . import shapes as sh
from .callgraph import FunctionInfo, Program, build_program
from .checks import Finding
from .hotpath import _bare_callee, _entry_reason, _hot_region

__all__ = [
    "FP_RULES",
    "ClaimCheck",
    "FpcheckResult",
    "analyze_fpcheck",
    "render_fp_text",
]

#: rule id -> (short name, summary); SARIF table + ``--list-rules``.
FP_RULES: dict[str, tuple[str, str]] = {
    "RPRFP001": (
        "envelope-under-derived",
        "a committed error-envelope constant does not dominate the "
        "statically derived first-order rounding bound",
    ),
    "RPRFP002": (
        "unfiltered-comparison",
        "a float comparison on tracked hull data with no envelope "
        "guard mentioned in the statement",
    ),
    "RPRFP003": (
        "non-conservative-envelope",
        "envelope arithmetic not computed round-toward-conservative "
        "(subtraction/division/negation of float data inside a "
        "magnitude envelope)",
    ),
    "RPRFP004": (
        "filter-knob-misuse",
        "a filter_scale-style knob below 1, or an envelope adjusted "
        "after it was used in a comparison",
    ),
    "RPRFP005": (
        "undecided-loop",
        "a loop over tracked float data whose trip count the pinned "
        "dimension does not decide, so its bounds cannot be derived",
    ),
    "RPRFP999": (
        "annotation-error",
        "a file could not be parsed or an fp-bound clause is malformed",
    ),
}

_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: most trips a decided ``range(...)`` loop is unrolled for; a longer
#: loop is treated as undecided.
MAX_UNROLL = 64

#: most unrolled trips and inlined calls one walk spends, nested loops
#: and helpers included; past it, loops count as undecided and calls
#: as unknown, so nested loops cannot blow the walk up.
WALK_BUDGET = 4096

#: deepest chain of private helpers walked inline.
MAX_INLINE_DEPTH = 4

#: calls that preserve magnitude and error exactly (or are plain
#: relabelings); with several tracked arguments the result joins them.
_IDENTITY_CALLS = {
    "abs", "fabs", "absolute", "maximum", "minimum", "max", "min",
    "amax", "amin", "asarray", "asanyarray", "ascontiguousarray",
    "atleast_1d", "atleast_2d", "astype", "copy", "reshape", "ravel",
    "clip", "float64", "squeeze", "transpose",
}

#: calls whose result carries no float hull data (indices, bools,
#: shapes, decisions).
_NONFP_CALLS = {
    "int", "len", "bool", "range", "zip", "enumerate", "sign",
    "argmin", "argmax", "nonzero", "flatnonzero", "arange",
    "searchsorted", "cumsum", "any", "all", "count_nonzero",
    "isfinite", "isnan", "isinf", "array_equal", "unique", "sort",
    "argsort", "lexsort", "bincount", "print",
}

#: gathers: the result only selects or repeats entries of the gathered
#: operand (``np.take(a, i)``, ``a.take(i)``, ``np.repeat(a, r,
#: axis=0)``), so it carries that operand's magnitude and error, like
#: the subscript ``a[i]``.
_GATHER_CALLS = {"take", "repeat"}

#: stacking calls: result bounds join the (flattened) operands.
_JOIN_CALLS = {"stack", "concatenate", "hstack", "vstack",
               "column_stack", "dstack", "append"}


@dataclass
class ClaimCheck:
    """One checked ``claim``/``out`` envelope, with both sides of the
    domination pinned to concrete dimension values -- the record the
    dynamic soundness differential evaluates numerically."""

    qualname: str
    path: str
    name: str
    line: int
    kind: str                   # "claim" | "out"
    pin: tuple | None           # ("d", 3) instantiation, or None
    committed: fe.Poly          # pin-substituted committed envelope
    derived: fe.Poly | None     # pin-substituted derived error bound
    derived_mag: fe.Poly | None  # pin-substituted magnitude bound
    ok: bool = True


@dataclass
class FpcheckResult:
    program: Program
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: hot qualname -> provenance chain from its entry
    hot: dict[str, str] = field(default_factory=dict)
    #: entry qualname -> why it is an entry
    entries: dict[str, str] = field(default_factory=dict)
    #: qualname -> parsed fp-bound annotation
    annotations: dict[str, fe.FpFnAnnotation] = field(default_factory=dict)
    #: every claim/out domination check performed, pass or fail
    claims: list[ClaimCheck] = field(default_factory=list)

    def suppressions(self) -> list[SuppressionComment]:
        """Noqa comments that (could) cover RPRFP rules."""
        out = []
        for c in iter_suppressions(self.program.files):
            if c.codes is None or any(x.startswith("RPRFP") for x in c.codes):
                out.append(c)
        return out


class _Undecidable(Exception):
    pass


class _Interp:
    """One abstract walk of one function at one instantiation pin."""

    def __init__(
        self,
        info: FunctionInfo,
        ann: fe.FpFnAnnotation,
        pin: tuple | None,
        program: Program,
        annotations: dict[str, fe.FpFnAnnotation],
        depth: int = 0,
        budget: list | None = None,
    ) -> None:
        self.info = info
        self.ann = ann
        self.pin = pin
        self.program = program
        self.annotations = annotations
        self.depth = depth
        #: the walk's remaining WALK_BUDGET, shared with inlined helpers
        self.budget = [WALK_BUDGET] if budget is None else budget
        self.env: dict[str, object] = {}
        #: names bound to known ints: unrolled loop indices, and the
        #: constant arguments of an inlined helper's parameters.
        self.known: dict[str, int] = {}
        #: values of the ``return`` statements walked (inlined helpers)
        self.returns: list = []
        self.findings: list[Finding] = []
        self.claims: list[ClaimCheck] = []
        self.guards = ann.guard_names()
        self.envelopes = ann.envelope_names()
        self.returned = False
        self._quiet = 0
        self._guard_depth = 0
        self._cur_names: set[str] = set()
        self._compared_envs: set[str] = set()
        self._facts = [
            (lhs, self._pinsub(rhs)) for lhs, rhs in ann.facts(pin)
        ]
        # in / bind / claim clauses are applied in source order as the
        # walk passes their line: a clause on its own line applies
        # before the next statement, a trailing clause applies after
        # the statement it trails (so an ``in`` re-declaration on an
        # assignment line overrides the computed value).
        self.todo = sorted(
            (c for k in ("in", "bind", "claim")
             for c in ann.selected(k, pin)),
            key=lambda c: c.line,
        )
        self._call_models = {
            c.name: c for c in ann.selected("call", pin)
        }

    # -- small helpers ---------------------------------------------------

    def _pinsub(self, p: fe.Poly) -> fe.Poly:
        if self.pin is None:
            return p
        return fe.poly_sub_atom(p, self.pin[0], self.pin[1])

    def _finding(self, rule: str, node, message: str) -> None:
        if self._quiet:
            return
        self.findings.append(Finding(
            rule_id=rule,
            path=self.info.path,
            line=getattr(node, "lineno",
                         getattr(node, "line", self.ann.line)),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            func=self.info.qualname,
        ))

    def _pin_tag(self) -> str:
        return f" at {self.pin[0]}={self.pin[1]}" if self.pin else ""

    # -- clause application ----------------------------------------------

    def _apply_clauses(self, line: int, inclusive: bool) -> None:
        while self.todo and (
            self.todo[0].line <= line if inclusive
            else self.todo[0].line < line
        ):
            c = self.todo.pop(0)
            if c.kind == "in":
                self.env[c.name] = fe.FpVal(
                    "fp", fe.poly_atom(c.atom),
                    c.err if c.err is not None else {}, {},
                )
            elif c.kind == "bind":
                cur = self.env.get(c.name, fe.TOP)
                if not isinstance(cur, fe.FpVal):
                    cur = fe.TOP
                self.env[c.name] = fe.fp_bind(cur, fe.poly_atom(c.atom))
            elif c.kind == "claim":
                self._check_claim(c, kind="claim")

    def _drop_span(self, stmts: list) -> None:
        """A pruned branch takes its clauses with it."""
        for s in stmts:
            lo = s.lineno
            hi = getattr(s, "end_lineno", s.lineno) or s.lineno
            self.todo = [c for c in self.todo if not (lo <= c.line <= hi)]

    def _check_claim(self, clause: fe.FpClause, kind: str) -> None:
        committed = self._pinsub(clause.err)
        val = self.env.get(clause.name)
        if not isinstance(val, fe.FpVal) or not val.is_tracked:
            self.claims.append(ClaimCheck(
                self.info.qualname, self.info.path, clause.name,
                clause.line, kind, self.pin, committed, None, None,
                ok=False,
            ))
            self._finding(
                "RPRFP001", clause,
                f"committed envelope for {clause.name!r} cannot be "
                f"checked: no derived bound (value is "
                f"{val.kind if isinstance(val, fe.FpVal) else 'undefined'})"
                + self._pin_tag(),
            )
            return
        derived = self._pinsub(val.err)
        dmag = self._pinsub(val.mag)
        ok = fe.dominates(committed, derived, self._facts)
        self.claims.append(ClaimCheck(
            self.info.qualname, self.info.path, clause.name,
            clause.line, kind, self.pin, committed, derived, dmag, ok,
        ))
        if not ok:
            self._finding(
                "RPRFP001", clause,
                f"committed envelope for {clause.name!r} "
                f"(({fe.poly_format(committed)})*eps) does not dominate "
                f"the derived bound (({fe.poly_format(derived)})*eps)"
                + self._pin_tag(),
            )

    # -- constant folding over the pin -----------------------------------

    def _const(self, node: ast.AST):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if self.pin is not None and node.id == self.pin[0]:
                return self.pin[1]
            if node.id in self.known:
                return self.known[node.id]
            raise _Undecidable
        if isinstance(node, ast.UnaryOp):
            v = self._const(node.operand)
            if isinstance(node.op, ast.Not):
                return not v
            if isinstance(node.op, ast.USub):
                return -v
            raise _Undecidable
        if isinstance(node, ast.BoolOp):
            vals = [self._const(v) for v in node.values]
            return all(vals) if isinstance(node.op, ast.And) else any(vals)
        if isinstance(node, ast.Compare):
            left = self._const(node.left)
            for op, comp in zip(node.ops, node.comparators):
                right = self._const(comp)
                ok = (
                    left == right if isinstance(op, ast.Eq)
                    else left != right if isinstance(op, ast.NotEq)
                    else left < right if isinstance(op, ast.Lt)
                    else left <= right if isinstance(op, ast.LtE)
                    else left > right if isinstance(op, ast.Gt)
                    else left >= right if isinstance(op, ast.GtE)
                    else None
                )
                if ok is None:
                    raise _Undecidable
                if not ok:
                    return False
                left = right
            return True
        if isinstance(node, ast.BinOp):
            a, b = self._const(node.left), self._const(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.FloorDiv):
                return a // b
            if isinstance(node.op, ast.Mod):
                return a % b
            if isinstance(node.op, ast.Pow):
                return a ** b
        raise _Undecidable

    def _decide(self, test: ast.AST):
        try:
            return bool(self._const(test))
        except Exception:
            return None

    # -- expression evaluation -------------------------------------------

    def _eval(self, node: ast.AST) -> object:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                    node.value, (int, float)):
                return fe.NONFP
            return fe.fp_exactval(fe.poly_const(abs(node.value)))
        if isinstance(node, ast.Name):
            if self.pin is not None and node.id == self.pin[0]:
                return fe.NONFP
            return self.env.get(node.id, fe.TOP)
        if isinstance(node, ast.Attribute):
            key = ast.unparse(node)
            if key in self.env:
                return self.env[key]
            if node.attr in ("shape", "size", "ndim", "dtype"):
                return fe.NONFP
            if node.attr == "T":
                return self._eval(node.value)
            return fe.TOP
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._eval(e) for e in node.elts)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            v = self._eval(node.operand)
            if isinstance(node.op, ast.Not):
                return fe.NONFP
            return v if isinstance(v, fe.FpVal) else fe.TOP
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self._eval(v)
            return fe.NONFP
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            t = self._decide(node.test)
            if t is True:
                return self._eval(node.body)
            if t is False:
                return self._eval(node.orelse)
            self._eval(node.test)
            a, b = self._eval(node.body), self._eval(node.orelse)
            if isinstance(a, fe.FpVal) and isinstance(b, fe.FpVal):
                return fe.fp_join(a, b)
            return fe.TOP
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return fe.TOP
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part)
            return fe.NONFP
        if isinstance(node, ast.JoinedStr):
            return fe.NONFP
        return fe.TOP

    def _eval_binop(self, node: ast.BinOp) -> object:
        # pin-foldable arithmetic (`n - 1`, `2.0 ** (n - 1)`) is index
        # bookkeeping, not float hull data
        try:
            self._const(node)
            return fe.NONFP
        except Exception:
            pass
        a = self._eval(node.left)
        b = self._eval(node.right)
        if not isinstance(a, fe.FpVal):
            a = fe.TOP
        if not isinstance(b, fe.FpVal):
            b = fe.TOP
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return fe.fp_add(a, b)
        if isinstance(node.op, ast.Mult):
            return fe.fp_mul(a, b)
        if isinstance(node.op, ast.MatMult):
            return fe.fp_dot(a, b, self._dim_poly())
        # Div / FloorDiv / Mod / Pow / shifts: exact only when both
        # operands carry no float data (index arithmetic like n - 1).
        if a.kind == "other" and b.kind == "other":
            return fe.NONFP
        return fe.TOP

    def _dim_poly(self) -> fe.Poly:
        """Reduction length for dot/einsum/sum: the ambient dimension.
        Pinned when an ``assume`` clause fixes it, symbolic otherwise
        (an honest modeling choice -- every kernel here reduces over
        the coordinate axis)."""
        if self.pin is not None:
            return fe.poly_const(self.pin[1])
        return fe.poly_atom("d")

    def _eval_compare(self, node: ast.Compare) -> object:
        vals = [self._eval(node.left)]
        vals.extend(self._eval(c) for c in node.comparators)
        ordered = any(isinstance(op, _CMP_OPS) for op in node.ops)
        tracked = any(
            isinstance(v, fe.FpVal) and v.is_tracked and v.err
            for v in vals
        )
        guarded = bool(self._cur_names & self.guards) or self._guard_depth > 0
        if ordered and tracked and not guarded:
            self._finding(
                "RPRFP002", node,
                "unfiltered float comparison on tracked hull data: "
                f"`{ast.unparse(node)}` trusts a float sign with no "
                "envelope guard mentioned in the statement",
            )
        return fe.NONFP

    # -- calls -----------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> object:
        bare = _bare_callee(node)
        args = [self._eval(a) for a in node.args]
        for kw in node.keywords:
            if kw.arg != "out":
                self._eval(kw.value)

        receiver = None
        func = node.func
        if isinstance(func, ast.Attribute):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            np_root = (isinstance(root, ast.Name)
                       and root.id in ("np", "numpy", "math"))
            if not np_root:
                receiver = self._eval(func.value)

        result = self._dispatch_call(node, bare, args, receiver)

        for kw in node.keywords:
            if kw.arg == "out":
                # As an assignment: an ``out=a[i]`` result joins into
                # ``a``, where a later read of ``a[i]`` looks.
                self._assign(kw.value, result, None)
        return result

    def _dispatch_call(self, node, bare, args, receiver) -> object:
        if bare == "filter_scale":
            if (node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, (int, float))
                    and node.args[0].value < 1):
                self._finding(
                    "RPRFP004", node,
                    f"filter_scale({node.args[0].value!r}) shrinks the "
                    "committed envelope below its derived bound "
                    "(multiplicative knob < 1)",
                )
            return fe.NONFP

        model = self._call_models.get(bare)
        if model is not None:
            if not model.atom:
                return fe.TOP
            return fe.FpVal(
                "fp", fe.poly_atom(model.atom), model.err or {}, {},
            )

        summary = self._user_summary(bare)
        if summary is not None:
            return summary
        inlined = self._inline(node, bare, args)
        if inlined is not None:
            return inlined

        fpargs = [v for v in args if isinstance(v, fe.FpVal)]
        if receiver is not None and isinstance(receiver, fe.FpVal):
            fpargs.insert(0, receiver)
        flat: list = []
        for v in fpargs:
            flat.extend(v) if isinstance(v, tuple) else flat.append(v)
        fpargs = [v for v in flat if isinstance(v, fe.FpVal)]

        if bare in _GATHER_CALLS:
            if receiver is not None:
                return receiver
            return args[0] if args else fe.TOP
        if bare in _NONFP_CALLS:
            return fe.NONFP
        if bare in _IDENTITY_CALLS:
            tracked = [v for v in fpargs if v.kind != "other"]
            if len(tracked) == 1:
                return tracked[0]
            return fe.fp_join(*fpargs) if fpargs else fe.NONFP
        if bare in _JOIN_CALLS:
            return fe.fp_join(*fpargs) if fpargs else fe.TOP
        if bare == "sqrt":
            return fe.fp_sqrt(fpargs[0]) if fpargs else fe.TOP
        if bare == "where":
            if len(args) >= 3:
                a, b = args[1], args[2]
                if isinstance(a, fe.FpVal) and isinstance(b, fe.FpVal):
                    return fe.fp_join(a, b)
            return fe.TOP
        if bare == "einsum":
            if len(args) >= 3:
                a, b = args[1], args[2]
                if isinstance(a, fe.FpVal) and isinstance(b, fe.FpVal):
                    return fe.fp_dot(a, b, self._dim_poly())
            return fe.TOP
        if bare in ("dot", "inner", "vdot", "matmul"):
            ops = ([receiver] if isinstance(receiver, fe.FpVal) else []) \
                + [v for v in args if isinstance(v, fe.FpVal)]
            if len(ops) >= 2:
                return fe.fp_dot(ops[0], ops[1], self._dim_poly())
            return fe.TOP
        if bare == "cross":
            if len(fpargs) >= 2:
                return fe.fp_cross(fpargs[0], fpargs[1])
            return fe.TOP
        if bare in ("sum", "nansum"):
            src = receiver if isinstance(receiver, fe.FpVal) else (
                fpargs[0] if fpargs else fe.TOP)
            return fe.fp_sum(src, self._dim_poly())
        if bare == "prod":
            return fe.TOP
        if bare in ("zeros", "empty", "zeros_like", "empty_like"):
            return fe.FpVal("fp", {}, {}, {})
        if bare in ("ones", "ones_like"):
            return fe.fp_exactval(fe.poly_const(1.0))
        if bare == "float":
            return fpargs[0] if fpargs else fe.TOP
        return fe.TOP

    def _user_summary(self, bare: str) -> object:
        """``out`` summary of an annotated callee, instantiated at the
        caller's pin when the assume variables line up."""
        for info in self.program.functions_named(bare):
            ann = self.annotations.get(info.qualname)
            if ann is None:
                continue
            assume = ann.assume()
            callee_pin = None
            if assume is not None:
                if (self.pin is None
                        or self.pin[0] != assume.name
                        or not (assume.lo <= self.pin[1] <= assume.hi)):
                    return fe.TOP
                callee_pin = self.pin
            chosen: dict[str, fe.FpClause] = {}
            for c in ann.selected("out", callee_pin):
                prev = chosen.get(c.name)
                if prev is not None and prev.sel is not None \
                        and c.sel is None:
                    continue
                chosen[c.name] = c
            if not chosen:
                return fe.TOP
            vals = tuple(
                fe.FpVal("fp", fe.poly_atom(c.atom),
                         c.err if c.err is not None else {}, {})
                for c in chosen.values()
            )
            return vals[0] if len(vals) == 1 else vals
        return None

    def _inline(self, node: ast.Call, bare: str | None,
                args: list) -> object:
        """The value of a call to an unannotated private helper defined
        in this file (a bare ``_name(...)`` call with exactly one such
        definition): its body walked by a fresh interpreter at this
        pin, its parameters bound to the argument values (and to the
        arguments' ints where the pin decides them), the join of its
        ``return`` values.  None where the call is not such a helper."""
        if (not bare or not bare.startswith("_")
                or not isinstance(node.func, ast.Name)):
            return None
        infos = [
            i for i in self.program.functions_named(bare)
            if i.path == self.info.path and i.cls is None
            and isinstance(i.node, ast.FunctionDef)
            and i.qualname not in self.annotations
            and i.qualname != self.info.qualname
        ]
        if len(infos) != 1:
            return None
        info = infos[0]
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords)
                or self.depth >= MAX_INLINE_DEPTH or self.budget[0] < 1):
            return fe.TOP
        self.budget[0] -= 1
        sub = _Interp(info, fe.FpFnAnnotation(), self.pin, self.program,
                      self.annotations, depth=self.depth + 1,
                      budget=self.budget)
        sub.guards, sub.envelopes = self.guards, self.envelopes
        sub._facts = self._facts
        spec = info.node.args
        params = [a.arg for a in spec.posonlyargs + spec.args]
        defaults = dict(zip(params[len(params) - len(spec.defaults):],
                            spec.defaults))
        bound = dict(zip(params, zip(node.args, args)))
        self._quiet += 1
        try:
            for kw in node.keywords:
                bound[kw.arg] = (kw.value, self._eval(kw.value))
        finally:
            self._quiet -= 1
        for name in params:
            if name in bound:
                arg, value = bound[name]
                try:
                    known = self._const(arg)
                except Exception:
                    known = None
            elif name in defaults:
                arg = defaults[name]
                value, known = sub._eval(arg), None
            else:
                sub.env[name] = fe.TOP
                continue
            sub.env[name] = value
            if isinstance(known, int) and not isinstance(known, bool):
                sub.known[name] = known
        sub._exec_block(info.node.body)
        if not self._quiet:
            self.findings.extend(sub.findings)
        values = [v for v in sub.returns if isinstance(v, fe.FpVal)]
        if not values or len(values) != len(sub.returns):
            return fe.TOP
        return fe.fp_join(*values)

    # -- statements ------------------------------------------------------

    def run(self) -> None:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return
        self._exec_block(node.body)
        # remaining clauses (e.g. a claim after the last statement)
        self._apply_clauses(10 ** 9, inclusive=True)
        for c in self.ann.selected("out", self.pin):
            if c.err is not None:
                self._check_claim(c, kind="out")

    def _exec_block(self, stmts: list) -> None:
        for stmt in stmts:
            if self.returned:
                break
            self._apply_clauses(stmt.lineno, inclusive=False)
            self._exec_stmt(stmt)
            end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
            self._apply_clauses(end, inclusive=True)

    def _stmt_names(self, stmt: ast.AST) -> set:
        names = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                try:
                    names.add(ast.unparse(n))
                except Exception:
                    pass
        return names

    def _exec_stmt(self, stmt: ast.AST) -> None:
        self._cur_names = self._stmt_names(stmt)

        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value),
                             stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            load = ast.Name(id=stmt.target.id, ctx=ast.Load()) \
                if isinstance(stmt.target, ast.Name) else stmt.target
            synthetic = ast.BinOp(left=load, op=stmt.op, right=stmt.value)
            ast.copy_location(synthetic, stmt)
            ast.fix_missing_locations(synthetic)
            self._assign(stmt.target, self._eval(synthetic), synthetic)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            self.returns.append(fe.NONFP if stmt.value is None
                                else self._eval(stmt.value))
            self.returned = True
        elif isinstance(stmt, ast.Raise):
            self.returned = True
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.While):
            t = self._decide(stmt.test)
            if t is None:
                self._eval(stmt.test)
            if t is not False:
                self._exec_once(stmt)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            self.returned = False  # handlers assume the body may fail
            for handler in stmt.handlers:
                self._exec_block(handler.body)
                self.returned = False
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert, ast.Delete, ast.Pass,
                               ast.Break, ast.Continue, ast.Global,
                               ast.Nonlocal, ast.Import, ast.ImportFrom)):
            if isinstance(stmt, ast.Assert):
                self._eval(stmt.test)
        # nested defs/classes are separate analysis subjects

        # marked *after* execution: "adjusted after a comparison" means
        # a strictly earlier statement already compared against it.
        # Compound statements mark only their header -- their bodies
        # were marked statement-by-statement (or pruned) above.
        if isinstance(stmt, (ast.If, ast.While)):
            scan = stmt.test
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            scan = stmt.iter
        elif isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try)):
            return
        else:
            scan = stmt
        if any(isinstance(n, ast.Compare) for n in ast.walk(scan)):
            self._compared_envs |= self._stmt_names(scan) & self.envelopes

    def _trips(self, stmt: ast.For) -> range | None:
        """The values a ``for`` loop's index takes, where its iterable
        is a ``range(...)`` the pin decides within :data:`MAX_UNROLL`
        trips (and the walk's budget); None otherwise."""
        it = stmt.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords
                and 1 <= len(it.args) <= 3
                and isinstance(stmt.target, ast.Name)):
            return None
        try:
            bounds = [self._const(a) for a in it.args]
            trips = range(*bounds)
        except Exception:
            return None
        if len(trips) > min(MAX_UNROLL, self.budget[0]):
            return None
        self.budget[0] -= len(trips)
        return trips

    def _exec_for(self, stmt: ast.For) -> None:
        """Unroll a decided ``range(...)`` loop; walk any other loop
        once (:meth:`_exec_once`)."""
        trips = self._trips(stmt)
        self._eval(stmt.iter)
        if trips is None:
            self._assign(stmt.target, fe.NONFP, None)
            self._exec_once(stmt)
            self._exec_block(stmt.orelse)
            return
        name = stmt.target.id
        if not trips:
            self._drop_span(stmt.body)
        for value in trips:
            self.env[name] = fe.NONFP
            self.known[name] = value
            self._exec_block(stmt.body)
            if self.returned:
                break
        self.known.pop(name, None)
        if not self.returned:
            self._exec_block(stmt.orelse)

    def _exec_once(self, stmt) -> None:
        """Walk the body of a loop whose trip count is not decided
        once, for its comparisons and envelope discipline.  One walk
        under-derives whatever the loop accumulates, so every name the
        body assigns that holds tracked float data afterwards becomes
        unknown, and the loop is reported (RPRFP005)."""
        self._exec_block(stmt.body)
        self.returned = False  # zero-iteration path exists
        assigned = sorted(
            name for name in _assigned_names(stmt.body)
            if _is_float_data(self.env.get(name))
        )
        if not assigned:
            return
        for name in assigned:
            self.env[name] = fe.TOP
        need = (f"a range(...) that folds to at most {MAX_UNROLL} trips"
                if isinstance(stmt, ast.For) else "a test that folds")
        self._finding(
            "RPRFP005", stmt,
            f"loop assigns tracked float data ({', '.join(assigned)}) "
            "but the pinned dimension does not decide its trip count "
            f"(it needs {need}), so the bounds it feeds cannot be "
            "derived" + self._pin_tag(),
        )

    def _exec_if(self, stmt: ast.If) -> None:
        t = self._decide(stmt.test)
        if t is True:
            self._drop_span(stmt.orelse)
            self._exec_block(stmt.body)
            return
        if t is False:
            self._drop_span(stmt.body)
            self._exec_block(stmt.orelse)
            return
        self._eval(stmt.test)
        # a branch whose test mentions a guard name is an envelope
        # filter: comparisons dominated by it are filtered decisions
        guarded = bool(self._stmt_names(stmt.test) & self.guards)
        if guarded:
            self._guard_depth += 1
        saved = dict(self.env)
        self._exec_block(stmt.body)
        env_body, ret_body = self.env, self.returned
        self.env, self.returned = dict(saved), False
        self._exec_block(stmt.orelse)
        env_else, ret_else = self.env, self.returned
        if guarded:
            self._guard_depth -= 1
        if ret_body and ret_else:
            self.returned = True
        elif ret_body:
            self.env, self.returned = env_else, False
        elif ret_else:
            self.env, self.returned = env_body, False
        else:
            self.env = self._join_envs(env_body, env_else)
            self.returned = False

    def _join_envs(self, a: dict, b: dict) -> dict:
        out: dict[str, object] = {}
        for key in set(a) | set(b):
            va, vb = a.get(key), b.get(key)
            if va is None:
                out[key] = vb
            elif vb is None or va is vb:
                out[key] = va
            elif isinstance(va, fe.FpVal) and isinstance(vb, fe.FpVal):
                out[key] = fe.fp_join(va, vb)
            else:
                out[key] = fe.TOP
        return out

    # -- assignment + envelope discipline --------------------------------

    def _assign(self, target: ast.AST, value: object,
                rhs: ast.AST | None) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            if rhs is not None:
                self._envelope_checks(target.id, rhs)
        elif isinstance(target, ast.Attribute):
            self.env[ast.unparse(target)] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, tuple) and len(value) == len(target.elts):
                for t, v in zip(target.elts, value):
                    self._assign(t, v, None)
            else:
                for t in target.elts:
                    self._assign(t, value if isinstance(value, fe.FpVal)
                                 else fe.TOP, None)
        elif isinstance(target, ast.Subscript):
            self._eval(target.slice)
            base = target.value
            if isinstance(base, (ast.Name, ast.Attribute)):
                key = base.id if isinstance(base, ast.Name) \
                    else ast.unparse(base)
                cur = self.env.get(key)
                if isinstance(cur, fe.FpVal) and isinstance(value, fe.FpVal):
                    self.env[key] = fe.fp_join(cur, value)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, None)

    def _envelope_checks(self, name: str, rhs: ast.AST) -> None:
        if name not in self.envelopes:
            return
        if name in self._compared_envs:
            self._finding(
                "RPRFP004", rhs,
                f"envelope {name!r} adjusted after it was already used "
                "in a comparison (the filter must be fixed before the "
                "sign is trusted)",
            )
        for n in ast.walk(rhs):
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult):
                for side in (n.left, n.right):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, (int, float))
                            and not isinstance(side.value, bool)
                            and 0 < side.value < 1):
                        self._finding(
                            "RPRFP004", n,
                            f"envelope {name!r} scaled by constant "
                            f"{side.value!r} < 1 (shrinks the filter "
                            "below its derivation)",
                        )
            operands: list[ast.AST] = []
            if isinstance(n, ast.BinOp) and isinstance(
                    n.op, (ast.Sub, ast.Div)):
                operands = [n.left, n.right]
            elif isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
                operands = [n.operand]
            if not operands:
                continue
            try:
                self._const(n)
                continue  # pin-foldable index arithmetic, not data
            except Exception:
                pass
            self._quiet += 1
            try:
                all_nonfp = all(
                    isinstance(v, fe.FpVal) and v.kind == "other"
                    for v in (self._eval(o) for o in operands)
                )
            finally:
                self._quiet -= 1
            if not all_nonfp:
                op = ("subtraction" if isinstance(n, ast.BinOp)
                      and isinstance(n.op, ast.Sub)
                      else "division" if isinstance(n, ast.BinOp)
                      else "negation")
                self._finding(
                    "RPRFP003", n,
                    f"envelope {name!r} computed with {op} of float "
                    "data: magnitude envelopes must be built from "
                    "round-toward-conservative operations "
                    "(abs/max/+/*) only",
                )


def _is_float_data(val: object) -> bool:
    """Tracked float data: a value whose bound involves an input atom
    (an int counter or a float constant only folds constants)."""
    return (isinstance(val, fe.FpVal) and val.is_tracked
            and bool(fe.poly_atoms(val.mag) or fe.poly_atoms(val.err)))


def _assigned_names(stmts: list) -> set:
    """Names (and dotted attribute keys) a block of statements assigns,
    subscripted targets by their base, ``out=`` keywords included."""
    names: set = set()

    def add(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(ast.unparse(target))
        elif isinstance(target, ast.Subscript):
            add(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                add(t)
        elif isinstance(target, ast.Starred):
            add(target.value)

    for stmt in stmts:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Assign):
                for t in n.targets:
                    add(t)
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                add(n.target)
            elif isinstance(n, (ast.For, ast.AsyncFor)):
                add(n.target)
            elif isinstance(n, ast.Call):
                for kw in n.keywords:
                    if kw.arg == "out":
                        add(kw.value)
    return names


# -- pipeline ------------------------------------------------------------


def analyze_fpcheck(
    paths: Sequence[str],
    sources: dict[str, str] | None = None,
) -> FpcheckResult:
    """Parse, attach fp-bound annotations, interpret each annotated
    function per instantiation, apply noqa."""
    program = build_program(paths, sources=sources)

    findings: list[Finding] = [
        Finding(rule_id="RPRFP999", path=v.path, line=v.line, col=v.col,
                message=v.message)
        for v in program.errors
    ]

    fp_by_key: dict[tuple[str, int], fe.FpFnAnnotation] = {}
    sh_keys: set[tuple[str, int]] = set()
    for f in program.files:
        anns, errors = fe.parse_fp_annotations(f.source, f.tree)
        for lineno, ann in anns.items():
            fp_by_key[(f.posix, lineno)] = ann
        for line, message in errors:
            findings.append(Finding(
                rule_id="RPRFP999", path=f.posix, line=line, col=1,
                message=f"bad fp-bound annotation: {message}",
            ))
        for lineno in sh.parse_annotations(f.source, f.tree):
            sh_keys.add((f.posix, lineno))

    annotations: dict[str, fe.FpFnAnnotation] = {}
    by_qual: dict[str, FunctionInfo] = {}
    for info in program.all_functions():
        by_qual[info.qualname] = info
        if isinstance(info.node, ast.Lambda):
            continue
        ann = fp_by_key.get((info.path, info.node.lineno))
        if ann is not None:
            ann.qualname = info.qualname
            annotations[info.qualname] = ann

    entries: dict[str, str] = {}
    for info in program.all_functions():
        if info.qualname in annotations:
            entries[info.qualname] = "fp-bound annotated kernel boundary"
            continue
        reason = _entry_reason(
            info, (info.path, getattr(info.node, "lineno", 0)) in sh_keys)
        if reason is not None:
            entries[info.qualname] = reason
    hot = _hot_region(program, entries)

    claims: list[ClaimCheck] = []
    for qual in sorted(annotations):
        info = by_qual.get(qual)
        if info is None:
            continue
        ann = annotations[qual]
        assume = ann.assume()
        pins: list[tuple | None]
        if assume is not None:
            pins = [(assume.name, v)
                    for v in range(assume.lo, assume.hi + 1)]
        else:
            pins = [None]
        seen: set[tuple] = set()
        for pin in pins:
            interp = _Interp(info, ann, pin, program, annotations)
            try:
                interp.run()
            except RecursionError:
                findings.append(Finding(
                    rule_id="RPRFP999", path=info.path,
                    line=getattr(info.node, "lineno", 1), col=1,
                    message=f"analysis of {qual} exceeded recursion "
                    "limits", func=qual,
                ))
                continue
            claims.extend(interp.claims)
            for f in interp.findings:
                key = (f.rule_id, f.path, f.line, f.col, f.message)
                if key not in seen:
                    seen.add(key)
                    findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))

    source_by_path = {f.posix: f.source for f in program.files}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        lines = suppressed_lines(source_by_path.get(f.path, ""))
        codes = lines.get(f.line, frozenset())
        if codes is None or f.rule_id in codes:
            suppressed.append(f)
        else:
            kept.append(f)
    return FpcheckResult(
        program=program, findings=kept, suppressed=suppressed,
        hot=hot, entries=entries, annotations=annotations, claims=claims,
    )


def render_fp_text(result: FpcheckResult, verbose: bool = False) -> str:
    lines = [f.format() for f in result.findings]
    failures = sum(1 for c in result.claims if not c.ok)
    summary = (
        f"repro fpcheck: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed; "
        f"{len(result.entries)} entry point(s), "
        f"{len(result.hot)} hot function(s), "
        f"{len(result.annotations)} annotated boundary(ies), "
        f"{len(result.claims)} envelope claim(s) checked, "
        f"{failures} claim failure(s)"
    )
    if verbose:
        lines.append("envelope claims:")
        for c in result.claims:
            pin = f" @{c.pin[0]}={c.pin[1]}" if c.pin else ""
            status = "ok" if c.ok else "FAIL"
            derived = (fe.poly_format(c.derived)
                       if c.derived is not None else "<unavailable>")
            lines.append(
                f"  [{status}] {c.qualname}: {c.name}{pin}: committed "
                f"{fe.poly_format(c.committed)} vs derived {derived}"
            )
    lines.append(summary)
    return "\n".join(lines)
