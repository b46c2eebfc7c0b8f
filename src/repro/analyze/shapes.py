"""Abstract interpretation over NumPy array shapes and dtypes.

The hot-path analyzer (:mod:`repro.analyze.hotpath`) needs to answer,
for an arbitrary expression in a kernel-adjacent function, "is this an
array, what is its (symbolic) shape, and what dtype flows through it?".
This module implements the abstract domain and the transfer functions:

* a **dimension** is a concrete ``int``, a symbolic name (``"F"``,
  ``"d"`` -- program-global dimension vocabulary: ``d`` is *the*
  ambient dimension everywhere in this repository), or ``None``
  (unknown);
* a :class:`ShapeVal` is ``array(dims, dtype)``, ``scalar(dtype)``,
  ``other`` (a known non-array: list, tuple, str, ...) or ``top``;
* dtypes form the chain ``bool < int8 < ... < float64 < object`` with
  ``unknown`` on top; ``Fraction`` concretizes to ``object``, which is
  what the dtype-degradation rule (RPRHOT004) watches for;
* transfer functions cover the vectorized vocabulary the kernels
  actually use: broadcasting arithmetic, ``einsum`` (with definite
  operand-mismatch detection for RPRHOT005), ``matmul``, ``stack`` /
  ``concatenate``, reductions, indexing, and the ``np.*`` constructors.

Kernel boundaries are annotated with structured comments::

    def merge_candidates(a, b, above):
        # repro: shape: a=(A,):int64, b=(B,):int64 -> (*,):int64

parsed by :func:`parse_annotations`.  Names that are parameters seed
the static environment; *any* annotated name (including intermediates
like ``margins``) is additionally checked dynamically by the runtime
:class:`ShapeRecorder` -- the soundness differential asserts every
recorded ``(shape, dtype)`` fact is admitted by the static abstraction
under a per-event-consistent binding of the symbolic dims.

The abstraction is deliberately conservative: anything not modelled is
``top`` (admits everything).  The one soundness obligation -- pinned by
the Hypothesis suite in ``tests/analyze/test_shapes.py`` -- is that a
*concrete* claim is never wrong: when inference produces fully concrete
dims/dtype for an executed program, they equal NumPy's actual result.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Dim",
    "ShapeVal",
    "TOP",
    "OTHER",
    "array_of",
    "scalar_of",
    "join",
    "promote",
    "broadcast",
    "parse_einsum",
    "FnAnnotation",
    "parse_annotations",
    "parse_shape_spec",
    "ShapeEnv",
    "infer_expr",
    "infer_body",
    "ShapeRecorder",
    "recording",
    "observe",
    "admitted",
    "check_event",
]

#: A dimension: concrete, symbolic, or unknown.
Dim = "int | str | None"

# -- dtype chain ---------------------------------------------------------

#: dtype chain, least to greatest; ``promote`` is max along it.
DTYPE_ORDER = (
    "bool", "int8", "int16", "int32", "int64",
    "float32", "float64", "object",
)
_DTYPE_RANK = {name: i for i, name in enumerate(DTYPE_ORDER)}
UNKNOWN_DTYPE = "unknown"


def promote(a: str, b: str) -> str:
    """Join of two dtypes along the chain; ``unknown`` is top."""
    if a == UNKNOWN_DTYPE or b == UNKNOWN_DTYPE:
        return UNKNOWN_DTYPE
    if a not in _DTYPE_RANK or b not in _DTYPE_RANK:
        return UNKNOWN_DTYPE
    return a if _DTYPE_RANK[a] >= _DTYPE_RANK[b] else b


@dataclass(frozen=True)
class ShapeVal:
    """One abstract value.

    ``kind`` is ``"array" | "scalar" | "other" | "top"``.  For arrays,
    ``dims`` is a tuple of :data:`Dim` -- or ``None`` when only the
    dtype is known (unknown rank).
    """

    kind: str
    dims: tuple | None = ()
    dtype: str = UNKNOWN_DTYPE

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    @property
    def rank(self) -> int | None:
        if self.kind != "array" or self.dims is None:
            return None
        return len(self.dims)

    def format(self) -> str:
        if self.kind == "array":
            if self.dims is None:
                return f"(*?):{self.dtype}"
            inner = ",".join(
                "*" if d is None else str(d) for d in self.dims
            )
            return f"({inner}):{self.dtype}"
        if self.kind == "scalar":
            return f"scalar:{self.dtype}"
        return self.kind


TOP = ShapeVal("top")
OTHER = ShapeVal("other")


def array_of(dims, dtype: str = UNKNOWN_DTYPE) -> ShapeVal:
    return ShapeVal("array", None if dims is None else tuple(dims), dtype)


def scalar_of(dtype: str) -> ShapeVal:
    return ShapeVal("scalar", (), dtype)


def _join_dim(a, b):
    return a if a == b else None


def join(a: ShapeVal, b: ShapeVal) -> ShapeVal:
    """Least upper bound (flow-join of two branches)."""
    if a == b:
        return a
    if a.kind != b.kind:
        return TOP
    if a.kind == "array":
        dt = promote(a.dtype, b.dtype) if a.dtype != b.dtype else a.dtype
        if a.dims is None or b.dims is None or len(a.dims) != len(b.dims):
            return array_of(None, dt)
        return array_of(
            tuple(_join_dim(x, y) for x, y in zip(a.dims, b.dims)), dt
        )
    if a.kind == "scalar":
        return scalar_of(promote(a.dtype, b.dtype))
    return TOP


# -- broadcasting --------------------------------------------------------


def broadcast(a: ShapeVal, b: ShapeVal) -> tuple[ShapeVal, str | None]:
    """Abstract NumPy broadcast of two values.

    Returns ``(result, mismatch)`` where ``mismatch`` is a message when
    the shapes *definitely* cannot broadcast (two unequal concrete dims,
    neither 1) -- the RPRHOT005 trigger.  Symbolic-vs-symbolic and
    symbolic-vs-concrete pairs are never definite mismatches (a symbol
    may be 1).
    """
    if a.kind == "scalar" and b.kind == "scalar":
        return scalar_of(promote(a.dtype, b.dtype)), None
    if a.kind == "scalar" and b.is_array:
        return array_of(b.dims, promote(a.dtype, b.dtype)), None
    if b.kind == "scalar" and a.is_array:
        return array_of(a.dims, promote(a.dtype, b.dtype)), None
    if not (a.is_array and b.is_array):
        return TOP, None
    dt = promote(a.dtype, b.dtype)
    if a.dims is None or b.dims is None:
        return array_of(None, dt), None
    x, y = list(a.dims), list(b.dims)
    out: list = []
    mismatch = None
    while x or y:
        da = x.pop() if x else 1
        db = y.pop() if y else 1
        if da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        elif da == db:
            out.append(da)
        elif isinstance(da, int) and isinstance(db, int):
            mismatch = f"cannot broadcast dims {da} and {db}"
            out.append(None)
        else:
            # at least one symbolic/unknown: could still be 1 or equal
            out.append(None)
    out.reverse()
    return array_of(tuple(out), dt), mismatch


# -- einsum --------------------------------------------------------------

_EINSUM_SPEC_RE = re.compile(r"^[a-zA-Z,]+(->[a-zA-Z]*)?$")


def parse_einsum(
    spec: str, operands: list[ShapeVal]
) -> tuple[ShapeVal, list[str]]:
    """Abstract ``np.einsum(spec, *operands)``.

    Unifies each subscript letter against the operand dims; returns the
    output value plus a list of *definite* inconsistencies (rank
    mismatch, or one letter bound to two unequal concrete dims -- the
    RPRHOT005 triggers).  Ellipsis and repeated-index diagonals are not
    modelled (``top``, no mismatch claimed).
    """
    spec = spec.replace(" ", "")
    if not _EINSUM_SPEC_RE.match(spec):
        return TOP, []
    if "->" in spec:
        lhs, out_term = spec.split("->")
    else:
        lhs, out_term = spec, None
    terms = lhs.split(",")
    if len(terms) != len(operands):
        return TOP, [
            f"einsum spec {spec!r} names {len(terms)} operand(s), "
            f"got {len(operands)}"
        ]
    problems: list[str] = []
    binding: dict[str, object] = {}
    dtype = "int64" if operands else UNKNOWN_DTYPE
    for term, op in zip(terms, operands):
        if op.kind == "scalar":
            if term:
                problems.append(
                    f"einsum operand for {term!r} is a scalar"
                )
            dtype = promote(dtype, op.dtype)
            continue
        if not op.is_array:
            dtype = UNKNOWN_DTYPE
            continue
        dtype = promote(dtype, op.dtype)
        if op.dims is None:
            continue
        if len(op.dims) != len(term):
            problems.append(
                f"einsum term {term!r} has rank {len(term)} but operand "
                f"has rank {len(op.dims)}"
            )
            continue
        for letter, dim in zip(term, op.dims):
            if dim is None:
                continue
            prev = binding.get(letter)
            if prev is None:
                binding[letter] = dim
            elif prev != dim:
                if isinstance(prev, int) and isinstance(dim, int):
                    problems.append(
                        f"einsum index {letter!r} bound to both {prev} "
                        f"and {dim}"
                    )
                elif isinstance(dim, int):
                    binding[letter] = dim  # refine symbol -> concrete
    if out_term is None:
        # implicit output: alphabetically sorted non-repeated letters
        counts: dict[str, int] = {}
        for t in terms:
            for letter in t:
                counts[letter] = counts.get(letter, 0) + 1
        out_term = "".join(sorted(c for c, k in counts.items() if k == 1))
    if out_term == "":
        return scalar_of(dtype), problems
    dims = tuple(binding.get(letter) for letter in out_term)
    return array_of(dims, dtype), problems


# -- annotation grammar --------------------------------------------------

_SHAPE_COMMENT_RE = re.compile(
    r"#\s*repro:\s*shape:\s*(?P<body>.+)$", re.IGNORECASE
)
_HOT_ENTRY_RE = re.compile(r"#\s*repro:\s*hot-entry\b", re.IGNORECASE)
_NAME_SHAPE_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*)\s*=\s*\((?P<dims>[^)]*)\)"
    r"(?::(?P<dtype>[A-Za-z_]\w*))?"
)
_RET_SHAPE_RE = re.compile(
    r"->\s*\((?P<dims>[^)]*)\)(?::(?P<dtype>[A-Za-z_]\w*))?"
)


def parse_shape_spec(dims: str, dtype: str | None) -> ShapeVal:
    """``"F,d,d"`` + ``"float64"`` -> the annotated :class:`ShapeVal`."""
    out: list = []
    for raw in dims.split(","):
        tok = raw.strip()
        if not tok:
            continue
        if tok == "*":
            out.append(None)
        elif tok.lstrip("-").isdigit():
            out.append(int(tok))
        else:
            out.append(tok)
    dt = (dtype or UNKNOWN_DTYPE).lower()
    if dt == "fraction":
        dt = "object"
    if dt not in _DTYPE_RANK and dt != UNKNOWN_DTYPE:
        dt = UNKNOWN_DTYPE
    return array_of(tuple(out), dt)


@dataclass
class FnAnnotation:
    """Shape facts attached to one function by its boundary comment."""

    qualname: str = ""
    #: annotated name -> abstract value (params seed the static env;
    #: every name is checked by the dynamic recorder)
    shapes: dict[str, ShapeVal] = field(default_factory=dict)
    returns: ShapeVal | None = None
    hot_entry: bool = False
    line: int = 0


def _comment_lines(source: str):
    """(line, comment-text) for every real COMMENT token."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [
            (t.start[0], t.string)
            for t in tokens
            if t.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def parse_annotations(source: str, tree: ast.Module) -> dict[int, FnAnnotation]:
    """Shape/hot-entry comments of one file, keyed by the ``def`` line
    of the function they attach to.

    A comment attaches to the innermost function whose body contains
    its line, or whose signature region (``def`` line through the first
    body statement) covers it -- so both styles work::

        def f(x):  # repro: shape: x=(N,d):float64
        def g(y):
            # repro: shape: y=(N,):int64
    """
    comments = _comment_lines(source)
    if not comments:
        return {}
    funcs: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    def owner(line: int):
        best = None
        for fn in funcs:
            end = getattr(fn, "end_lineno", fn.lineno) or fn.lineno
            if fn.lineno <= line <= end:
                if best is None or fn.lineno > best.lineno:
                    best = fn  # innermost: latest def line containing it
        return best

    out: dict[int, FnAnnotation] = {}
    for line, text in comments:
        is_shape = _SHAPE_COMMENT_RE.search(text)
        is_entry = _HOT_ENTRY_RE.search(text)
        if not is_shape and not is_entry:
            continue
        fn = owner(line)
        if fn is None:
            continue
        ann = out.setdefault(fn.lineno, FnAnnotation(line=fn.lineno))
        if is_entry:
            ann.hot_entry = True
        if is_shape:
            body = is_shape.group("body")
            ret = _RET_SHAPE_RE.search(body)
            if ret:
                ann.returns = parse_shape_spec(
                    ret.group("dims"), ret.group("dtype")
                )
                body = body[: ret.start()]
            for m in _NAME_SHAPE_RE.finditer(body):
                ann.shapes[m.group("name")] = parse_shape_spec(
                    m.group("dims"), m.group("dtype")
                )
    return out


# -- the abstract interpreter -------------------------------------------

#: elementwise passthrough functions/methods: shape preserved
_ELEMENTWISE = {
    "abs", "sqrt", "exp", "log", "log2", "sin", "cos", "sign",
    "negative", "isfinite", "isnan", "floor", "ceil", "round",
    "ascontiguousarray", "copy",
}
_BOOL_ELEMENTWISE = {"isfinite", "isnan", "logical_not"}
_REDUCTIONS = {"sum", "prod", "max", "min", "mean", "all", "any", "argmax",
               "argmin"}
_CONSTRUCTORS = {"zeros", "ones", "empty", "full"}


class ShapeEnv:
    """A per-function variable environment (flow-joining on rebind is
    the caller's job; :func:`infer_body` does a single forward pass,
    which is exact for the straight-line kernel code this targets and
    conservative elsewhere)."""

    def __init__(self, annotations: "dict[str, FnAnnotation] | None" = None):
        self.vars: dict[str, ShapeVal] = {}
        #: qualname-agnostic map: bare function name -> its annotation
        #: (used to type calls to annotated kernels)
        self.fn_annotations = annotations or {}
        #: definite inconsistencies found while inferring (RPRHOT005)
        self.mismatches: list[tuple[int, int, str]] = []

    def get(self, name: str) -> ShapeVal:
        return self.vars.get(name, TOP)

    def set(self, name: str, val: ShapeVal) -> None:
        self.vars[name] = val


def _const_val(node: ast.expr):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_val(node.operand)
        if isinstance(inner, (int, float)):
            return -inner
    return None


def _dtype_from_node(node: ast.expr | None) -> str:
    """Map a ``dtype=...`` argument AST to a dtype name."""
    if node is None:
        return UNKNOWN_DTYPE
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name is None:
        return UNKNOWN_DTYPE
    name = name.lower()
    aliases = {"float": "float64", "int": "int64", "bool_": "bool",
               "double": "float64", "object_": "object"}
    name = aliases.get(name, name)
    return name if name in _DTYPE_RANK else UNKNOWN_DTYPE


def _dims_from_shape_arg(node: ast.expr, env: ShapeEnv):
    """Dims of a shape argument: int literal, tuple/list of ints/exprs."""
    v = _const_val(node)
    if isinstance(v, int):
        return (v,)
    if isinstance(node, (ast.Tuple, ast.List)):
        dims = []
        for e in node.elts:
            ev = _const_val(e)
            dims.append(ev if isinstance(ev, int) else None)
        return tuple(dims)
    return None


def _python_scalar(value) -> ShapeVal:
    if isinstance(value, bool):
        return scalar_of("bool")
    if isinstance(value, int):
        return scalar_of("int64")
    if isinstance(value, float):
        return scalar_of("float64")
    return OTHER


def _literal_array(node: ast.expr, env: ShapeEnv) -> ShapeVal:
    """``np.array([...])`` literal: infer dims/dtype from the nesting."""
    if isinstance(node, (ast.List, ast.Tuple)):
        elts = node.elts
        if not elts:
            return array_of((0,), UNKNOWN_DTYPE)
        inner = [_literal_array(e, env) for e in elts]
        first = inner[0]
        dt = UNKNOWN_DTYPE
        for v in inner:
            if v.kind in ("scalar", "array"):
                dt = v.dtype if dt == UNKNOWN_DTYPE else promote(dt, v.dtype)
            else:
                dt = UNKNOWN_DTYPE
        if all(v.kind == "scalar" for v in inner):
            return array_of((len(elts),), dt)
        if first.is_array and first.dims is not None and all(
            v.is_array and v.dims == first.dims for v in inner
        ):
            return array_of((len(elts),) + first.dims, dt)
        return array_of(None, dt)
    val = infer_expr(node, env)
    if val.kind in ("scalar", "array"):
        return val
    cv = _const_val(node)
    if cv is not None:
        return _python_scalar(cv)
    return TOP


def _subscript(base: ShapeVal, index: ast.expr, env: ShapeEnv) -> ShapeVal:
    if not base.is_array:
        return TOP
    if base.dims is None:
        return array_of(None, base.dtype)
    items = list(index.elts) if isinstance(index, ast.Tuple) else [index]
    dims = list(base.dims)
    out: list = []
    pos = 0
    for it in items:
        if isinstance(it, ast.Slice):
            if pos >= len(dims):
                return TOP
            full = it.lower is None and it.upper is None and it.step is None
            out.append(dims[pos] if full else None)
            pos += 1
        elif isinstance(it, ast.Constant) and it.value is None:
            out.append(1)  # np.newaxis
        elif _const_val(it) is not None or (
            infer_expr(it, env).kind == "scalar"
        ):
            if pos >= len(dims):
                return TOP
            pos += 1  # integer index: dim dropped
        else:
            iv = infer_expr(it, env)
            if iv.is_array and iv.dims is not None and pos < len(dims):
                if iv.dtype == "bool":
                    # boolean mask collapses the masked dims to one
                    take = len(iv.dims)
                    if pos + take > len(dims):
                        return TOP
                    out.append(None)
                    pos += take
                else:
                    out.extend(iv.dims)
                    pos += 1
            else:
                return array_of(None, base.dtype)
    out.extend(dims[pos:])
    return array_of(tuple(out), base.dtype)


def _np_call(fname: str, node: ast.Call, env: ShapeEnv) -> ShapeVal | None:
    """Transfer functions for ``np.<fname>(...)``; None == not modelled."""
    args = node.args
    kw = {k.arg: k.value for k in node.keywords if k.arg}

    def arg_val(i: int) -> ShapeVal:
        return infer_expr(args[i], env) if len(args) > i else TOP

    if fname in _CONSTRUCTORS:
        dims = _dims_from_shape_arg(args[0], env) if args else None
        dt = _dtype_from_node(kw.get("dtype") or (args[1] if len(args) > 1 and fname != "full" else None))
        if fname == "zeros" or fname == "empty" or fname == "ones":
            dt = dt if dt != UNKNOWN_DTYPE else "float64"
        if fname == "full" and len(args) > 1:
            fill = infer_expr(args[1], env)
            if dt == UNKNOWN_DTYPE and fill.kind == "scalar":
                dt = fill.dtype
        return array_of(dims, dt)
    if fname == "arange":
        n = _const_val(args[0]) if args else None
        dt = _dtype_from_node(kw.get("dtype"))
        if dt == UNKNOWN_DTYPE:
            vals = [infer_expr(a, env) for a in args]
            dt = "int64"
            for v in vals:
                if v.kind == "scalar" and v.dtype == "float64":
                    dt = "float64"
        return array_of((n if isinstance(n, int) and len(args) == 1 else None,), dt)
    if fname in ("array", "asarray", "asanyarray", "atleast_1d"):
        dt = _dtype_from_node(kw.get("dtype") or (args[1] if len(args) > 1 else None))
        if not args:
            return TOP
        base = _literal_array(args[0], env)
        if base.kind == "scalar":
            base = array_of((), base.dtype) if fname != "asarray" else base
            # np.asarray(scalar) is a 0-d array; treat as scalar-ish
            base = scalar_of(base.dtype)
        if dt != UNKNOWN_DTYPE:
            if base.is_array:
                return array_of(base.dims, dt)
            if base.kind == "scalar":
                return scalar_of(dt)
            return array_of(None, dt)
        return base if base.kind != "top" else TOP
    if fname == "atleast_2d":
        if not args:
            return TOP
        v = infer_expr(args[0], env)
        if v.is_array and v.dims is not None:
            if len(v.dims) >= 2:
                return v
            if len(v.dims) == 1:
                return array_of((1,) + v.dims, v.dtype)
            return array_of((1, 1), v.dtype)
        if v.kind == "scalar":
            return array_of((1, 1), v.dtype)
        return array_of(None, v.dtype if v.is_array else UNKNOWN_DTYPE)
    if fname in ("ascontiguousarray", "copy"):
        return arg_val(0)
    if fname in _ELEMENTWISE or fname in _BOOL_ELEMENTWISE:
        v = arg_val(0)
        dt = "bool" if fname in _BOOL_ELEMENTWISE else v.dtype
        if fname == "sqrt" and v.dtype not in ("object", UNKNOWN_DTYPE):
            dt = "float64"
        if v.is_array:
            return array_of(v.dims, dt)
        if v.kind == "scalar":
            return scalar_of(dt)
        return TOP
    if fname == "einsum":
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            ops = [infer_expr(a, env) for a in args[1:]]
            out, problems = parse_einsum(args[0].value, ops)
            for p in problems:
                env.mismatches.append((node.lineno, node.col_offset, p))
            return out
        return TOP
    if fname in ("matmul", "dot"):
        a, b = arg_val(0), arg_val(1)
        return _matmul(a, b, env, node)
    if fname in ("stack", "vstack", "hstack"):
        if not args:
            return TOP
        seq = args[0]
        axis = _const_val(kw.get("axis")) if "axis" in kw else (
            _const_val(args[1]) if len(args) > 1 else 0
        )
        if isinstance(seq, (ast.List, ast.Tuple)):
            vals = [infer_expr(e, env) for e in seq.elts]
            if fname == "stack" and vals and all(v.is_array for v in vals):
                base = vals[0]
                for v in vals[1:]:
                    base = join(base, v)
                if base.is_array and base.dims is not None and isinstance(axis, int) \
                        and 0 <= axis <= len(base.dims):
                    dims = list(base.dims)
                    dims.insert(axis, len(vals))
                    return array_of(tuple(dims), base.dtype)
                return array_of(None, base.dtype if base.is_array else UNKNOWN_DTYPE)
            if fname == "stack" and vals and all(v.kind == "scalar" for v in vals):
                dt = UNKNOWN_DTYPE
                for v in vals:
                    dt = v.dtype if dt == UNKNOWN_DTYPE else promote(dt, v.dtype)
                return array_of((len(vals),), dt)
        dt = UNKNOWN_DTYPE
        return array_of(None, dt)
    if fname == "concatenate":
        if not args or not isinstance(args[0], (ast.List, ast.Tuple)):
            return TOP
        vals = [infer_expr(e, env) for e in args[0].elts]
        axis = _const_val(kw.get("axis")) if "axis" in kw else (
            _const_val(args[1]) if len(args) > 1 else 0
        )
        if not vals or not all(v.is_array for v in vals):
            return TOP
        dt = vals[0].dtype
        for v in vals[1:]:
            dt = promote(dt, v.dtype)
        if any(v.dims is None for v in vals):
            return array_of(None, dt)
        rank = len(vals[0].dims)
        if any(len(v.dims) != rank for v in vals):
            env.mismatches.append((
                node.lineno, node.col_offset,
                "concatenate of arrays with different ranks",
            ))
            return array_of(None, dt)
        if not isinstance(axis, int) or not (-rank <= axis < rank):
            return array_of(None, dt)
        axis %= rank
        dims = []
        for i in range(rank):
            if i == axis:
                sizes = [v.dims[i] for v in vals]
                dims.append(sum(sizes) if all(isinstance(s, int) for s in sizes) else None)
            else:
                d0 = vals[0].dims[i]
                for v in vals[1:]:
                    d0 = _join_dim(d0, v.dims[i])
                dims.append(d0)
        return array_of(tuple(dims), dt)
    if fname == "nonzero":
        return OTHER  # tuple of index arrays; subscripting yields (*,)
    if fname == "searchsorted":
        v = arg_val(1)
        if v.is_array:
            return array_of(v.dims, "int64")
        return scalar_of("int64")
    if fname == "where":
        if len(args) == 3:
            c, a, b = (infer_expr(x, env) for x in args)
            ab, m1 = broadcast(a, b)
            out, m2 = broadcast(c, ab)
            for m in (m1, m2):
                if m:
                    env.mismatches.append((node.lineno, node.col_offset, m))
            if out.is_array:
                return array_of(out.dims, ab.dtype if ab.is_array or ab.kind == "scalar" else UNKNOWN_DTYPE)
            return out
        return OTHER
    if fname == "repeat":
        return array_of((None,) if arg_val(0).rank in (1, None) else None,
                        arg_val(0).dtype if arg_val(0).is_array else UNKNOWN_DTYPE)
    if fname in _REDUCTIONS:
        return _reduction(fname, arg_val(0), node, env)
    if fname == "cross":
        a, b = arg_val(0), arg_val(1)
        out, m = broadcast(a, b)
        if m:
            env.mismatches.append((node.lineno, node.col_offset, m))
        return out
    return None


def _matmul(a: ShapeVal, b: ShapeVal, env: ShapeEnv, node: ast.AST) -> ShapeVal:
    if not (a.is_array and b.is_array):
        return TOP
    dt = promote(a.dtype, b.dtype)
    if a.dims is None or b.dims is None:
        return array_of(None, dt)
    if len(a.dims) == 2 and len(b.dims) == 2:
        k1, k2 = a.dims[1], b.dims[0]
        if k1 is not None and k2 is not None and k1 != k2 \
                and isinstance(k1, int) and isinstance(k2, int):
            env.mismatches.append((
                getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
                f"matmul inner dims {k1} and {k2} differ",
            ))
        return array_of((a.dims[0], b.dims[1]), dt)
    if len(a.dims) == 1 and len(b.dims) == 2:
        return array_of((b.dims[1],), dt)
    if len(a.dims) == 2 and len(b.dims) == 1:
        return array_of((a.dims[0],), dt)
    if len(a.dims) == 1 and len(b.dims) == 1:
        return scalar_of(dt)
    return array_of(None, dt)


def _reduction(fname: str, v: ShapeVal, node: ast.Call, env: ShapeEnv) -> ShapeVal:
    kw = {k.arg: k.value for k in node.keywords if k.arg}
    if "keepdims" in kw and _const_val(kw["keepdims"]) is not False:
        if v.is_array:
            return array_of(None, v.dtype)
        return TOP
    dt = v.dtype if v.kind in ("array", "scalar") else UNKNOWN_DTYPE
    if fname in ("argmax", "argmin"):
        dt = "int64"
    if fname in ("all", "any"):
        dt = "bool"
    # numpy promotes bool sums to int64
    if fname in ("sum", "prod") and dt == "bool":
        dt = "int64"
    if fname == "mean" and dt not in ("object", UNKNOWN_DTYPE):
        dt = "float64"
    axis_node = kw.get("axis")
    if axis_node is None and len(node.args) > 1 and isinstance(node.func, ast.Attribute) is False:
        axis_node = node.args[1]
    if axis_node is None and isinstance(node.func, ast.Attribute) and len(node.args) > 0:
        axis_node = node.args[0]
    if axis_node is None:
        return scalar_of(dt)
    axis = _const_val(axis_node)
    if not v.is_array or v.dims is None:
        return array_of(None, dt)
    if isinstance(axis, int) and -len(v.dims) <= axis < len(v.dims):
        dims = list(v.dims)
        del dims[axis % len(v.dims)]
        if not dims:
            return scalar_of(dt)
        return array_of(tuple(dims), dt)
    return array_of(None, dt)


_CMP_DTYPE = "bool"


def infer_expr(node: ast.expr, env: ShapeEnv) -> ShapeVal:
    """Abstract value of one expression under ``env``.  Total: every
    unmodelled construct is ``TOP``."""
    if isinstance(node, ast.Constant):
        return _python_scalar(node.value)
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.BinOp):
        a = infer_expr(node.left, env)
        b = infer_expr(node.right, env)
        if isinstance(node.op, ast.MatMult):
            return _matmul(a, b, env, node)
        out, mismatch = broadcast(a, b)
        if mismatch:
            env.mismatches.append((node.lineno, node.col_offset, mismatch))
        if isinstance(node.op, ast.Div) and out.kind in ("array", "scalar") \
                and out.dtype not in ("object", UNKNOWN_DTYPE):
            out = array_of(out.dims, promote(out.dtype, "float64")) \
                if out.is_array else scalar_of(promote(out.dtype, "float64"))
        elif out.kind in ("array", "scalar") and out.dtype == "bool" \
                and not isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
            # bool arithmetic promotes to int64 in numpy (e.g. mask + mask)
            out = array_of(out.dims, "int64") if out.is_array else scalar_of("int64")
        return out
    if isinstance(node, ast.UnaryOp):
        v = infer_expr(node.operand, env)
        if isinstance(node.op, ast.Not):
            return scalar_of("bool")
        if isinstance(node.op, ast.Invert) and v.kind in ("array", "scalar"):
            return v
        if v.kind in ("array", "scalar"):
            if v.dtype == "bool" and isinstance(node.op, (ast.USub, ast.UAdd)):
                return array_of(v.dims, "int64") if v.is_array else scalar_of("int64")
            return v
        return TOP
    if isinstance(node, ast.Compare):
        vals = [infer_expr(node.left, env)] + [
            infer_expr(c, env) for c in node.comparators
        ]
        out = vals[0]
        for v in vals[1:]:
            res, mismatch = broadcast(out, v)
            if mismatch:
                env.mismatches.append((node.lineno, node.col_offset, mismatch))
            out = res
        if out.is_array:
            return array_of(out.dims, _CMP_DTYPE)
        return scalar_of(_CMP_DTYPE)
    if isinstance(node, ast.BoolOp):
        out = infer_expr(node.values[0], env)
        for v in node.values[1:]:
            out = join(out, infer_expr(v, env))
        return out
    if isinstance(node, ast.IfExp):
        return join(infer_expr(node.body, env), infer_expr(node.orelse, env))
    if isinstance(node, ast.Subscript):
        base = infer_expr(node.value, env)
        if base.kind == "other":
            # tuple-of-arrays (np.nonzero); indexing yields a 1-d index array
            if isinstance(node.value, ast.Call):
                f = node.value.func
                if isinstance(f, ast.Attribute) and f.attr == "nonzero":
                    return array_of((None,), "int64")
            return TOP
        return _subscript(base, node.slice, env)
    if isinstance(node, ast.Attribute):
        base = infer_expr(node.value, env)
        if node.attr == "T" and base.is_array:
            dims = None if base.dims is None else tuple(reversed(base.dims))
            return array_of(dims, base.dtype)
        if node.attr in ("size", "ndim", "nbytes") and base.is_array:
            return scalar_of("int64")
        if node.attr in ("shape", "dtype", "flags"):
            return OTHER
        return TOP
    if isinstance(node, ast.Call):
        return _infer_call(node, env)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict,
                         ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp, ast.JoinedStr)):
        return OTHER
    if isinstance(node, ast.Starred):
        return infer_expr(node.value, env)
    return TOP


def _infer_call(node: ast.Call, env: ShapeEnv) -> ShapeVal:
    f = node.func
    # np.<fn>(...) -- accept any module alias whose attr we model
    if isinstance(f, ast.Attribute):
        base = infer_expr(f.value, env)
        if isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"):
            out = _np_call(f.attr, node, env)
            if out is not None:
                return out
            if f.attr == "linalg":
                return TOP
            return TOP
        # method calls on arrays
        if base.is_array:
            if f.attr in _REDUCTIONS:
                return _reduction(f.attr, base, node, env)
            if f.attr == "astype":
                dt = _dtype_from_node(node.args[0]) if node.args else UNKNOWN_DTYPE
                return array_of(base.dims, dt)
            if f.attr in ("copy", "ravel", "flatten"):
                if f.attr == "copy":
                    return base
                if base.dims is not None and len(base.dims) == 1:
                    return base
                return array_of((None,), base.dtype)
            if f.attr == "reshape":
                dims = _dims_from_shape_arg(
                    node.args[0] if len(node.args) == 1 else ast.Tuple(
                        elts=list(node.args), ctx=ast.Load()
                    ),
                    env,
                ) if node.args else None
                return array_of(dims, base.dtype)
            if f.attr == "tolist":
                return OTHER
        if f.attr == "nonzero":
            return OTHER
        # call to an annotated kernel method
        ann = env.fn_annotations.get(f.attr)
        if ann is not None and ann.returns is not None:
            return ann.returns
        return TOP
    if isinstance(f, ast.Name):
        if f.id == "len":
            return scalar_of("int64")
        if f.id in ("int", "bool", "float"):
            return scalar_of({"int": "int64", "bool": "bool", "float": "float64"}[f.id])
        if f.id == "Fraction":
            return scalar_of("object")
        if f.id in ("range", "enumerate", "zip", "sorted", "list", "tuple",
                    "dict", "set"):
            return OTHER
        ann = env.fn_annotations.get(f.id)
        if ann is not None and ann.returns is not None:
            return ann.returns
        return TOP
    return TOP


def infer_body(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
    env: ShapeEnv,
) -> ShapeEnv:
    """One forward pass over the function body, binding assignment
    targets (and ``for`` targets to ``top``) in source order.  Nested
    defs are skipped -- they are analysed as their own functions."""

    def bind_target(t: ast.expr, val: ShapeVal) -> None:
        if isinstance(t, ast.Name):
            env.set(t.id, val)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                bind_target(e, TOP)

    def walk(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                val = infer_expr(stmt.value, env)
                for t in stmt.targets:
                    bind_target(t, val)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                bind_target(stmt.target, infer_expr(stmt.value, env))
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    cur = env.get(stmt.target.id)
                    rhs = infer_expr(stmt.value, env)
                    out, mismatch = broadcast(cur, rhs)
                    if mismatch:
                        env.mismatches.append(
                            (stmt.lineno, stmt.col_offset, mismatch)
                        )
                    env.set(stmt.target.id, out if cur.is_array else TOP)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                it = infer_expr(stmt.iter, env)
                if it.is_array and it.dims is not None and len(it.dims) >= 2:
                    bind_target(stmt.target, array_of(it.dims[1:], it.dtype))
                elif it.is_array and (it.dims is None or len(it.dims) == 1):
                    bind_target(stmt.target,
                                scalar_of(it.dtype) if it.rank == 1
                                else array_of(None, it.dtype))
                else:
                    bind_target(stmt.target, TOP)
                walk(stmt.body)
                walk(stmt.orelse)
            elif isinstance(stmt, (ast.If, ast.While)):
                infer_expr(stmt.test, env)
                walk(stmt.body)
                walk(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                walk(stmt.body)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body)
                for h in stmt.handlers:
                    walk(h.body)
                walk(stmt.orelse)
                walk(stmt.finalbody)
            elif isinstance(stmt, (ast.Expr, ast.Return)):
                if stmt.value is not None:
                    infer_expr(stmt.value, env)
    walk(func.body)
    return env


# -- runtime shape recorder ---------------------------------------------


class ShapeRecorder:
    """Collects concrete ``(shape, dtype)`` facts from instrumented
    kernel boundaries.  One *event* is one hook firing: a dict of
    ``name -> (shape tuple, dtype string)`` for every ndarray the hook
    named, so symbolic dims can be checked for *joint* consistency
    within the event (``F`` and ``d`` must agree across ``simplices``,
    ``normals``, ``offsets`` of the same call)."""

    def __init__(self) -> None:
        self.events: list[tuple[str, dict[str, tuple[tuple, str]]]] = []

    def record(self, qualname: str, named: dict) -> None:
        facts = {}
        for name, v in named.items():
            shape = getattr(v, "shape", None)
            dtype = getattr(v, "dtype", None)
            if shape is None or dtype is None:
                continue
            facts[name] = (tuple(int(s) for s in shape), str(dtype))
        if facts:
            self.events.append((qualname, facts))


_ACTIVE: ShapeRecorder | None = None


class recording:
    """Context manager: route :func:`observe` hooks into ``recorder``."""

    def __init__(self, recorder: ShapeRecorder):
        self.recorder = recorder

    def __enter__(self) -> ShapeRecorder:
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.recorder
        return self.recorder

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev


def observe(qualname: str, **named) -> None:
    """The hook the hull/kernel hot paths call.  A no-op (one global
    load and a falsy check) unless a :class:`recording` block is
    active, so the instrumented paths stay hot-loop safe."""
    if _ACTIVE is None:
        return
    _ACTIVE.record(qualname, named)


# -- concretization / admission -----------------------------------------


def admitted(
    val: ShapeVal,
    shape: tuple,
    dtype: str,
    binding: dict | None = None,
) -> str | None:
    """Does the abstraction ``val`` admit the concrete ``(shape,
    dtype)`` fact?  Returns None on admission, else a human-readable
    reason.  ``binding`` (symbol -> int) is read *and extended*, so a
    sequence of calls checks joint consistency across one event."""
    if val.kind == "top":
        return None
    if val.kind == "other":
        return "annotated non-array saw an ndarray"
    if val.kind == "scalar":
        if shape != ():
            return f"scalar abstraction saw shape {shape}"
        return _admit_dtype(val.dtype, dtype)
    if val.dims is None:
        return _admit_dtype(val.dtype, dtype)
    if len(val.dims) != len(shape):
        return (
            f"rank mismatch: abstraction {val.format()} vs concrete "
            f"shape {shape}"
        )
    binding = binding if binding is not None else {}
    for ab, conc in zip(val.dims, shape):
        if ab is None:
            continue
        if isinstance(ab, int):
            if ab != conc:
                return (
                    f"dim mismatch: abstraction {val.format()} vs "
                    f"concrete shape {shape}"
                )
        else:  # symbolic
            bound = binding.get(ab)
            if bound is None:
                binding[ab] = conc
            elif bound != conc:
                return (
                    f"symbol {ab!r} bound to {bound} but saw {conc} "
                    f"(abstraction {val.format()}, shape {shape})"
                )
    return _admit_dtype(val.dtype, dtype)


def _admit_dtype(abstract: str, concrete: str) -> str | None:
    if abstract == UNKNOWN_DTYPE:
        return None
    if abstract == concrete:
        return None
    return f"dtype mismatch: abstraction {abstract} vs concrete {concrete}"


def check_event(
    annotation: FnAnnotation,
    facts: dict[str, tuple[tuple, str]],
) -> list[str]:
    """Check one recorded event against one function annotation with a
    shared symbol binding; returns the violations (empty == sound)."""
    binding: dict = {}
    problems = []
    for name, (shape, dtype) in sorted(facts.items()):
        val = annotation.shapes.get(name)
        if val is None:
            continue  # hook recorded something the annotation doesn't pin
        reason = admitted(val, shape, dtype, binding)
        if reason is not None:
            problems.append(f"{name}: {reason}")
    return problems
