"""A small nonsmooth expression language with exact directional derivatives.

Expressions are finite trees over the grammar (prefix, fully parenthesised)::

    expr := (var INDEX)
          | (const NUMBER)
          | (add expr expr ...)        n-ary sum
          | (sub expr expr)
          | (mul expr expr)
          | (scale NUMBER expr)
          | (neg expr)                 sugar for (scale -1 expr)
          | (abs expr)
          | (max expr expr ...)        n-ary pointwise max
          | (min expr expr ...)
          | (norm expr expr ...)       Euclidean norm of the child values

Every expression supports exact forward-tangent evaluation of the one-sided
directional derivative f'(x; d):

* linear nodes propagate tangents linearly, ``mul`` uses the product rule;
* ``abs(u)``: sign(u) * u' away from zero, |u'| at u = 0;
* ``max``/``min``: the tangent of the unique extremal child, or the
  max/min of tangents over all tied extremal children;
* ``norm``: <values, tangents> / ||values|| away from zero, ||tangents||
  at the origin.

The tie rules make the tangent the true one-sided derivative of the
composite, not a subgradient selection: they agree with the limit of
difference quotients whenever the children do.

:func:`compile_expr` turns a tree into one closure over Python floats that
returns the value and the tangent in a single pass; it is compiled on first
use and cached on the tree.  Single points and one-row batches evaluate
through it, larger batches through a vectorised numpy walk with
bit-identical values.  NaN stays visible: a NaN child takes no ``abs``
kink branch, and ``max``, ``min`` and ``norm`` of a NaN are NaN, in value
and tangent.

Printing via :func:`format_expr` and re-parsing via :func:`parse_expr`
round-trips to an identical tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .oracle import DirectionalOracle, InputError

_NARY = {"add", "max", "min", "norm"}
_BINARY = {"sub", "mul"}
_UNARY = {"abs"}


#: Deepest nesting :func:`parse_expr` accepts.  Parsing, compiling, printing,
#: comparing and evaluating a tree all recurse once or twice per level, so
#: the cap keeps every one of them far inside Python's recursion limit.
MAX_DEPTH = 200


class ExprParseError(InputError):
    """Raised on malformed expression text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class NonsmoothExpr:
    """One node of an expression tree.  Immutable; construct via the helpers."""

    kind: str
    children: tuple["NonsmoothExpr", ...] = ()
    index: int = 0      # variable index, for kind == "var"
    coeff: float = 0.0  # literal value for "const", factor for "scale"

    def __post_init__(self):
        if self.kind == "var" and self.index < 0:
            raise ValueError("variable index must be nonnegative")
        if self.kind in _NARY and len(self.children) < 1:
            raise ValueError(f"{self.kind} needs at least one child")
        if self.kind in _BINARY and len(self.children) != 2:
            raise ValueError(f"{self.kind} needs exactly two children")
        if self.kind in _UNARY and len(self.children) != 1:
            raise ValueError(f"{self.kind} needs exactly one child")
        if self.kind == "scale" and len(self.children) != 1:
            raise ValueError("scale needs exactly one child")

    @cached_property
    def _compiled(self) -> CompiledExpr:
        forward, dim = _compile(self)
        return CompiledExpr(dim, forward)

    def __getstate__(self):
        # the cached compiled pass is made of closures, which do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


def var(i: int) -> NonsmoothExpr:
    return NonsmoothExpr("var", index=i)


def const(c: float) -> NonsmoothExpr:
    return NonsmoothExpr("const", coeff=float(c))


def add(*es: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("add", tuple(es))


def sub(a: NonsmoothExpr, b: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("sub", (a, b))


def mul(a: NonsmoothExpr, b: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("mul", (a, b))


def scale(c: float, e: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("scale", (e,), coeff=float(c))


def neg(e: NonsmoothExpr) -> NonsmoothExpr:
    return scale(-1.0, e)


def abs_(e: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("abs", (e,))


def max_(*es: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("max", tuple(es))


def min_(*es: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("min", tuple(es))


def norm(*es: NonsmoothExpr) -> NonsmoothExpr:
    return NonsmoothExpr("norm", tuple(es))


def dimension(expr: NonsmoothExpr) -> int:
    """Smallest input dimension the expression can be evaluated on."""
    return compile_expr(expr).dim


# ---------------------------------------------------------------------------
# evaluation

#: ``forward(x, d) -> (f(x), f'(x; d))`` with ``x`` and ``d`` lists of floats.
Forward = Callable[[Sequence[float], Sequence[float]], tuple[float, float]]


class CompiledExpr(NamedTuple):
    """An expression compiled once: its dimension and its fused forward pass."""

    dim: int
    forward: Forward


def compile_expr(expr: NonsmoothExpr) -> CompiledExpr:
    """Compile ``expr`` into one closure that returns ``(f(x), f'(x; d))``.

    The closure reads ``x[i]`` and ``d[i]`` for each ``(var i)``, so pass
    lists of Python floats (``ndarray.tolist()``): value and tangent come out
    of one pass with no numpy scalars in it.  For the value alone, pass ``x``
    as ``d`` too and drop the tangent.  Values are bit-identical to the
    batched :func:`eval_value` rows.  The tree is compiled on first use and
    the result is cached on its root node.
    """
    return expr._compiled


def _compile(e: NonsmoothExpr) -> tuple[Forward, int]:
    k = e.kind
    if k == "var":
        i = e.index

        def forward(x, d):
            return x[i], d[i]

        return forward, i + 1
    if k == "const":
        c = float(e.coeff)

        def forward(x, d):
            return c, 0.0

        return forward, 0
    compiled = [_compile(c) for c in e.children]
    fs = tuple(f for f, _ in compiled)
    dim = max((n for _, n in compiled), default=0)
    if k == "scale":
        c = float(e.coeff)
        f, = fs

        def forward(x, d):
            v, t = f(x, d)
            return c * v, c * t

    elif k == "abs":
        f, = fs

        def forward(x, d):
            v, t = f(x, d)
            if v > 0.0:
                return v, t
            if v < 0.0:
                return -v, -t
            if v == 0.0:
                return 0.0, abs(t)
            return v, v  # NaN has no sign and no kink

    elif k == "sub":
        fa, fb = fs

        def forward(x, d):
            av, at = fa(x, d)
            bv, bt = fb(x, d)
            return av - bv, at - bt

    elif k == "mul":
        fa, fb = fs

        def forward(x, d):
            av, at = fa(x, d)
            bv, bt = fb(x, d)
            return av * bv, at * bv + av * bt

    elif k == "add":
        first, *rest = fs

        def forward(x, d):
            # the value keeps the first child's sign of zero, as the batched
            # walk does; the tangent sums from +0.0, as it always has
            v, t = first(x, d)
            t = 0.0 + t
            for f in rest:
                cv, ct = f(x, d)
                v += cv
                t += ct
            return v, t

    elif k in ("max", "min"):
        # the value as np.maximum / np.minimum give it: NaN propagates and a
        # tie takes the later operand; the tangent is the extremum over ties
        beats = operator.gt if k == "max" else operator.lt

        def forward(x, d):
            pairs = [f(x, d) for f in fs]
            v = pairs[0][0]
            for w, _ in pairs:
                if not beats(v, w) and v == v:
                    v = w
            if v != v:
                return v, v
            t = None
            for w, s in pairs:
                if w == v and (t is None or beats(s, t)):
                    t = s
            return v, t

    elif k == "norm":

        def forward(x, d):
            pairs = [f(x, d) for f in fs]
            sq = 0.0
            for v, _ in pairs:
                sq += v * v
            nv = math.sqrt(sq)
            if nv == 0.0:
                sq = 0.0
                for _, t in pairs:
                    sq += t * t
                return nv, math.sqrt(sq)
            dot = 0.0
            for v, t in pairs:
                dot += v * t
            return nv, dot / nv

    else:
        raise ValueError(f"unknown node kind {k!r}")
    return forward, dim


def eval_value(expr: NonsmoothExpr, x) -> float | np.ndarray:
    """Evaluate the expression at ``x``.

    ``x`` may be a single point of shape (n,) or a batch of shape (N, n),
    which returns shape (N,).  A single point and a one-row batch run the
    compiled pass, larger batches a vectorised numpy walk; the values are
    the same bit for bit, and the compiled pass is the faster of the two on
    one row.  Like the compiled pass, the walk raises no floating-point
    warnings: ``inf * 0`` is NaN and an overflow is infinite, quietly.
    """
    x = np.asarray(x, dtype=float)
    compiled = compile_expr(expr)
    if x.shape[-1] < compiled.dim:
        raise InputError(
            f"dimension mismatch: expression needs {compiled.dim} variables, point has {x.shape[-1]}"
        )
    if x.ndim == 1:
        xs = x.tolist()
        return compiled.forward(xs, xs)[0]
    if x.shape[:-1] == (1,):
        xs = x[0].tolist()
        return np.array([compiled.forward(xs, xs)[0]])
    with np.errstate(all="ignore"):
        return _value(expr, x)


def _value(e: NonsmoothExpr, x: np.ndarray):
    k = e.kind
    if k == "var":
        return x[..., e.index]
    if k == "const":
        return np.broadcast_to(e.coeff, x.shape[:-1])
    if k == "add":
        out = _value(e.children[0], x)
        for c in e.children[1:]:
            out = out + _value(c, x)
        return out
    if k == "sub":
        return _value(e.children[0], x) - _value(e.children[1], x)
    if k == "mul":
        return _value(e.children[0], x) * _value(e.children[1], x)
    if k == "scale":
        return e.coeff * _value(e.children[0], x)
    if k == "abs":
        return np.abs(_value(e.children[0], x))
    if k == "max":
        out = _value(e.children[0], x)
        for c in e.children[1:]:
            out = np.maximum(out, _value(c, x))
        return out
    if k == "min":
        out = _value(e.children[0], x)
        for c in e.children[1:]:
            out = np.minimum(out, _value(c, x))
        return out
    if k == "norm":
        sq = _value(e.children[0], x) ** 2
        for c in e.children[1:]:
            sq = sq + _value(c, x) ** 2
        return np.sqrt(sq)
    raise ValueError(f"unknown node kind {k!r}")


def eval_dir_deriv(expr: NonsmoothExpr, x, d) -> float:
    """Exact one-sided directional derivative of the expression at x along d."""
    x = np.asarray(x, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    compiled = compile_expr(expr)
    n = compiled.dim
    if x.size < n or d.size < n:
        raise InputError(
            f"dimension mismatch: expression needs {n} variables, got point of size {x.size} and direction of size {d.size}"
        )
    return compiled.forward(x.tolist(), d.tolist())[1]


def as_oracle(expr: NonsmoothExpr, dim: int) -> DirectionalOracle:
    """Wrap an expression as a :class:`DirectionalOracle` of dimension ``dim``.

    The expression is compiled here, once.
    """
    need = dimension(expr)
    if dim < need:
        raise InputError(f"expression uses variable indices up to {need - 1}, beyond dimension {dim}")

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dim:
            raise InputError(f"dimension mismatch: oracle expects {dim}, got {x.shape[-1]}")
        return eval_value(expr, x)

    def dir_deriv(x, d):
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        if x.size != dim or d.size != dim:
            raise InputError(f"dimension mismatch: oracle expects {dim}, got {x.size}/{d.size}")
        return eval_dir_deriv(expr, x, d)

    return DirectionalOracle(value=value, dir_deriv=dir_deriv, dim=dim)


# ---------------------------------------------------------------------------
# text form

def format_expr(e: NonsmoothExpr) -> str:
    """Canonical prefix text; ``parse_expr(format_expr(e))`` returns an equal tree."""
    k = e.kind
    if k == "var":
        return f"(var {e.index})"
    if k == "const":
        return f"(const {e.coeff!r})"
    if k == "scale":
        return f"(scale {e.coeff!r} {format_expr(e.children[0])})"
    inner = " ".join(format_expr(c) for c in e.children)
    return f"({k} {inner})"


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            depth += 1 if ch == "(" else -1
            if depth > MAX_DEPTH:
                raise ExprParseError(f"expression nested deeper than {MAX_DEPTH} levels", i)
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def parse_expr(text: str) -> NonsmoothExpr:
    """Parse the prefix syntax; raises :class:`ExprParseError` with a position.

    Nesting deeper than :data:`MAX_DEPTH` is rejected before anything recurses.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprParseError("empty expression", 0)
    expr, rest = _parse(tokens, 0)
    if rest != len(tokens):
        raise ExprParseError("unexpected trailing input", tokens[rest][1])
    return expr


def _parse(tokens: list[tuple[str, int]], i: int) -> tuple[NonsmoothExpr, int]:
    tok, pos = tokens[i]
    if tok != "(":
        raise ExprParseError(f"expected '(', found {tok!r}", pos)
    i += 1
    if i >= len(tokens):
        raise ExprParseError("unexpected end of input", pos)
    head, head_pos = tokens[i]
    i += 1
    if head == "var":
        tok, pos = _next_atom(tokens, i, "variable index")
        try:
            index = int(tok)
        except ValueError:
            raise ExprParseError(f"bad variable index {tok!r}", pos) from None
        if index < 0:
            raise ExprParseError(f"variable index must be nonnegative, got {index}", pos)
        return _close(tokens, i + 1, var(index))
    if head == "const":
        tok, pos = _next_atom(tokens, i, "numeric literal")
        return _close(tokens, i + 1, const(_number(tok, pos)))
    if head == "scale":
        tok, pos = _next_atom(tokens, i, "numeric factor")
        factor = _number(tok, pos)
        child, i = _parse(tokens, i + 1)
        return _close(tokens, i, scale(factor, child))
    if head == "neg":
        child, i = _parse(tokens, i)
        return _close(tokens, i, neg(child))
    if head in _UNARY:
        child, i = _parse(tokens, i)
        return _close(tokens, i, NonsmoothExpr(head, (child,)))
    if head in _NARY or head in _BINARY:
        children = []
        while i < len(tokens) and tokens[i][0] == "(":
            child, i = _parse(tokens, i)
            children.append(child)
        if head in _BINARY and len(children) != 2:
            raise ExprParseError(f"{head} takes exactly two operands, found {len(children)}", head_pos)
        if not children:
            raise ExprParseError(f"{head} needs at least one operand", head_pos)
        return _close(tokens, i, NonsmoothExpr(head, tuple(children)))
    raise ExprParseError(f"unknown operator {head!r}", head_pos)


def _next_atom(tokens, i, what) -> tuple[str, int]:
    if i >= len(tokens) or tokens[i][0] in "()":
        pos = tokens[i][1] if i < len(tokens) else tokens[-1][1]
        raise ExprParseError(f"expected {what}", pos)
    return tokens[i]


def _number(tok: str, pos: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ExprParseError(f"bad numeric literal {tok!r}", pos) from None


def _close(tokens, i, expr) -> tuple[NonsmoothExpr, int]:
    if i >= len(tokens):
        raise ExprParseError("missing ')'", tokens[-1][1])
    tok, pos = tokens[i]
    if tok != ")":
        raise ExprParseError(f"expected ')', found {tok!r}", pos)
    return expr, i + 1
