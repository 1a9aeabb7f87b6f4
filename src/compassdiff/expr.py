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
bit-identical values.  :func:`compile_rows` generates straight-line code
instead, one function per vector of trees over one point's floats, for the
right-hand sides and initial maps of ODE problem files, which run thousands
of times per result.  Generation costs more than a few evaluations save, so
the trees of ``compass``, ``optimize``, a cost or a Danskin objective keep
the closure and the numpy walk.  The same source also yields the vector's
switching map (:data:`SwitchMap`), whose sign changes mark where a kink
branch changes, so that the ODE integrator can land its steps on them.
NaN stays visible: a NaN child takes no
``abs`` kink branch, and ``max``, ``min`` and ``norm`` of a NaN are NaN, in
value and tangent.  Every NaN the closure or the generated code returns is
``math.nan``, whatever NaN the arithmetic made on the way.

Printing via :func:`format_expr` and re-parsing via :func:`parse_expr`
round-trips to an identical tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .oracle import DirectionalOracle, InputError

_NARY = {"add", "max", "min", "norm"}
_BINARY = {"sub", "mul"}
_UNARY = {"abs"}


#: Deepest nesting :func:`parse_expr` accepts.  Parsing, compiling, printing,
#: comparing and evaluating a tree all recurse once or twice per level, so
#: the cap keeps every one of them far inside Python's recursion limit.
MAX_DEPTH = 200

#: Most nodes :func:`compile_rows` accepts in one vector, which bounds the
#: width that :data:`MAX_DEPTH` leaves open.  ``compile()`` takes about 4 to
#: 28 KB per node of generated code (the most for extrema over ``abs``,
#: whose rules are branches and which have a switching map), so loading a
#: vector at the cap peaks at about 850 MB.  Its code object and source then
#: keep up to about 0.7 KB per node in the cache of the last
#: ``CODE_CACHE_SIZE`` = 8 sources: at most about 21 MB each, 170 MB in all
#: (CPython 3.11; measured at 6 001 to 12 001 nodes and scaled).
MAX_NODES = 30_000
CODE_CACHE_SIZE = 8


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
        return CompiledExpr(dim, _canonical(forward))

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
    batched :func:`eval_value` rows, but for which NaN: every NaN the
    closure returns is ``math.nan``.  The tree is compiled on first use and
    the result is cached on its root node.  This is the path for trees
    evaluated a few times per command; a vector evaluated thousands of
    times, an ODE problem file's, gets generated code from
    :func:`compile_rows` with the same results.
    """
    return expr._compiled


def _canonical(f: Forward) -> Forward:
    """``f`` with every NaN it returns made ``math.nan``.

    Which NaN an operation on two NaN operands returns is not pinned:
    CPython's generic float add and multiply keep the second operand's, and
    the specialised forms that code switches to once it has run a few times
    keep the first.  A NaN's sign bit would thus depend on how warm the code
    is.  One NaN at the root makes each evaluation the same bit for bit, in
    the closures as in the code of :func:`compile_rows`.
    """

    def forward(x, d):
        v, t = f(x, d)
        return v if v == v else math.nan, t if t == t else math.nan

    return forward


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


# ---------------------------------------------------------------------------
# generated point maps for vectors that run thousands of times

#: A point map: one point as a list of Python floats in, its components as a list of Python floats out.
PointMap = Callable[[list], list]

#: A switching map ``switch(point, win, start) -> (values, win, crossed)``
#: of a vector over ``dim`` variables.  It reads the first ``dim`` floats of
#: ``point``, so a coupled ``[x | d]`` point will do, and ``values`` is a
#: list of floats: for each ``abs`` node its argument (once for a variable
#: that several ``abs`` nodes take), and for each ``max`` or ``min`` node
#: of two or more children the margin of its winner w over the others,
#: ``a_w - max(a_j, j != w)`` or ``min(a_j, j != w) - a_w``.  ``win`` holds
#: the winners, one per such node: passed None, the map picks the winners at
#: ``point`` (the first of tied children) and returns them; passed a tuple,
#: it uses and returns it.  So a margin is nonnegative where its winner was
#: picked and turns negative where another child overtakes it; a NaN child
#: makes it NaN.  ``crossed`` is whether some value changes sign strictly
#: from ``start``, the values of an earlier call with the same winners (a
#: zero or NaN never does); False when ``start`` is None.  The size of the
#: generated code stays linear in the node count.  When every switching
#: value is a variable (``abs`` of variables only), the map carries their
#: indices as its attribute ``columns``, so that a batch of points in an
#: array can read them off as columns.
SwitchMap = Callable[[list, Optional[tuple], Optional[list]], tuple[list, tuple, bool]]


def compile_rows(exprs: Sequence[NonsmoothExpr], dim: int) -> tuple[PointMap, PointMap, Optional[SwitchMap]]:
    """Generate the point maps ``(value, tangent, switch)`` of the vector ``exprs`` over ``dim`` variables.

    ``value(x)`` maps a list of ``dim`` floats to the ``len(exprs)`` values;
    ``tangent(z)`` maps ``[x | d]``, ``2 * dim`` floats, to
    ``[f(x) | f'(x; d)]``.  Both are one generated Python function each,
    compiled together from one source: they unpack the point into locals and
    evaluate every node once, as flat statements in post-order, with no call
    per node and no numpy.  They follow the rules of :func:`compile_expr`'s
    closures exactly, so every value and tangent is the same bit for bit,
    signs of zero and NaN included.

    ``switch``, from the same source, gives the switching values of the
    vector: functions of x that change sign where a kink branch of the
    vector changes (see :data:`SwitchMap`).  It is None when the vector has
    no kink branch: no ``abs`` and no ``max`` or ``min`` of two or more
    children (a ``norm`` kinks only at a point, and has none).

    The first load of a source costs as much as a few hundred evaluations,
    nearly all of it ``compile()``, so this suits trees that run thousands
    of times (the right-hand side and initial map of an ODE problem file); a
    tree evaluated a few times keeps the closure.  Constants are bound by
    name, never written into the source, so vectors that differ only in
    constants share a source, and the last ``CODE_CACHE_SIZE`` sources keep
    their code object.  A vector of more than :data:`MAX_NODES` nodes is an
    :class:`InputError`.
    """
    gen = _RowSource()
    roots = []
    for e in exprs:
        root = gen.node(e)
        if root[2] > dim:
            raise InputError(f"expression {format_expr(e)} uses variables beyond dimension {dim}")
        roots.append(root)
    if gen.nodes > MAX_NODES:
        raise InputError(f"expression vector has {gen.nodes} nodes, more than the {MAX_NODES} allowed")
    values = [v for v, _, _ in roots]
    tangents = [t for _, t, _ in roots]
    xs = [f"x{i}" for i in range(dim)]
    lines = [
        *_point_map("value", xs, gen.value, values),
        *_point_map("tangent", xs + [f"d{i}" for i in range(dim)], gen.tangent, values + tangents),
    ]
    if gen.switches:
        lines += gen.switch_map(xs)
    namespace = {"sqrt": math.sqrt, "abs": abs, "NAN": math.nan, "INF": math.inf, **gen.consts}
    exec(_code("\n".join(lines)), namespace)
    # popped, so that the functions' globals do not hold them: no reference cycle for the collector to find
    switch = namespace.pop("switch", None)
    if switch is not None and all(name in xs for name in gen.switches):
        switch.columns = [xs.index(name) for name in gen.switches]
    return namespace.pop("value"), namespace.pop("tangent"), switch


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(source: str):
    return compile(source, "<compassdiff.expr.compile_rows>", "exec")


def _point_map(name: str, inputs: list[str], body: list[str], outputs: list[str]) -> list[str]:
    targets = "".join(f"{n}, " for n in inputs) or "_"
    # every NaN leaves as math.nan, as from the closures: see _canonical
    out = ", ".join(f"{n} if {n} == {n} else NAN" for n in outputs)
    return [
        f"def {name}(point):",
        f"    {targets} = point",
        *(f"    {line}" for line in body),
        f"    return [{out}]",
    ]


class _RowSource:
    """The statements of :func:`compile_rows`, built in one post-order walk.

    ``value`` computes the values alone, ``tangent`` values and tangents.
    Each node gets the locals ``v<k>`` (value) and ``t<k>`` (tangent); a
    ``(var i)`` is the point's ``x<i>`` and ``d<i>``, a constant the name
    ``c<j>`` bound in ``consts``, with tangent ``0.0``.  Every ``add``,
    ``norm`` and extremum is one statement per child, so a wide node never
    becomes one deep expression for the compiler.

    The switching map (:data:`SwitchMap`) reuses the statements of the kink
    nodes' children from ``plain``, which is ``value`` with each ``abs`` one
    call of the builtin (the same value but for which NaN): ``spans`` holds
    their ranges, which are whole subtrees, so nested or apart.  The
    extremum of node ``k`` puts its children in the tuple ``k<k>``
    (``tuples``), picks its winner ``w<k>`` (``pick``) and takes its margin
    ``m<k>`` (``margins``): one wide statement each, not one per child.
    """

    def __init__(self):
        self.value: list[str] = []
        self.tangent: list[str] = []
        self.plain: list[str] = []  # ``value`` with each ``abs`` as one call of the builtin
        self.consts: dict[str, float] = {}
        self.count = 0  # operator nodes, which name their locals
        self.nodes = 0  # every node
        self.switches: dict[str, None] = {}  # the switching values' names, in order and once each
        self.spans: list[tuple[int, int]] = []
        self.winners: list[str] = []
        self.tuples: list[str] = []
        self.pick: list[str] = []
        self.margins: list[str] = []

    def const(self, c: float) -> str:
        name = f"c{len(self.consts)}"
        self.consts[name] = float(c)
        return name

    def both(self, line: str):
        self.value.append(line)
        self.plain.append(line)
        self.tangent.append(line)

    def extremum(self, vs: list[str], kind: str):
        """The winner and margin statements of the extremum node ``self.count`` over the children ``vs``.

        The children go into one tuple ``k<k>``, and the builtin ``max`` or
        ``min`` picks the winner (the first of ties) and the extremum of the
        others; a NaN child, which those builtins may skip, makes the
        margin NaN through the tuple's sum.
        """
        k, w, o, m, n = (f"{c}{self.count}" for c in "kwomn")
        self.winners.append(w)
        self.tuples.append(f"{k} = ({''.join(f'{a}, ' for a in vs)})")
        self.pick.append(f"{w} = {k}.index({kind}({k}))")
        self.margins += [f"{o} = {kind}({k}[:{w}] + {k}[{w} + 1:])",
                         f"{m} = {k}[{w}] - {o}" if kind == "max" else f"{m} = {o} - {k}[{w}]",
                         f"{n} = sum({k})", f"if {n} != {n}: {m} = NAN"]
        self.switches[m] = None

    def switch_map(self, xs: list[str]) -> list[str]:
        """The source of the switching map: see :data:`SwitchMap`."""
        needed: list[str] = []
        end = 0
        for a, b in sorted(self.spans, key=lambda span: (span[0], -span[1])):
            if a >= end:  # a span inside one already taken adds nothing
                needed += self.plain[a:b]
                end = b
        win = "".join(f"{w}, " for w in self.winners)
        body = [*(f"{name} = point[{i}]" for i, name in enumerate(xs)), *needed, *self.tuples]
        if win:
            body += ["if win is None:", *(f"    {line}" for line in self.pick), "else:", f"    {win}= win"]
        body += self.margins
        values = f"[{', '.join(self.switches)}], ({win})"
        body += [f"if start is None: return {values}, False",
                 f"{''.join(f'a{j}, ' for j in range(len(self.switches)))}= start", "crossed = False",
                 *(f"if a{j} < 0.0 < {v} or {v} < 0.0 < a{j}: crossed = True" for j, v in enumerate(self.switches)),
                 f"return {values}, crossed"]
        return ["def switch(point, win, start):", *(f"    {line}" for line in body)]

    def node(self, e: NonsmoothExpr) -> tuple[str, str, int]:
        """Emit ``e``; returns the names of its value and tangent and its dimension."""
        self.nodes += 1
        k = e.kind
        if k == "var":
            return f"x{e.index}", f"d{e.index}", e.index + 1
        if k == "const":
            return self.const(e.coeff), "0.0", 0
        start = len(self.plain)
        kids = [self.node(c) for c in e.children]
        vs = [a for a, _, _ in kids]
        ts = [b for _, b, _ in kids]
        self.count += 1
        v, t = f"v{self.count}", f"t{self.count}"
        if k == "abs" or (k in ("max", "min") and len(vs) > 1):
            self.spans.append((start, len(self.plain)))
            if k == "abs":
                self.switches[vs[0]] = None
            else:
                self.extremum(vs, k)
        tan = self.tangent
        if k == "scale":
            c = self.const(e.coeff)
            self.both(f"{v} = {c} * {vs[0]}")
            tan.append(f"{t} = {c} * {ts[0]}")
        elif k == "sub":
            self.both(f"{v} = {vs[0]} - {vs[1]}")
            tan.append(f"{t} = {ts[0]} - {ts[1]}")
        elif k == "mul":
            self.both(f"{v} = {vs[0]} * {vs[1]}")
            tan.append(f"{t} = {ts[0]} * {vs[1]} + {vs[0]} * {ts[1]}")
        elif k == "add":
            # the value keeps the first child's sign of zero, the tangent sums from +0.0
            self.both(f"{v} = {vs[0]}")
            tan.append(f"{t} = 0.0 + {ts[0]}")
            for a, b in zip(vs[1:], ts[1:]):
                self.both(f"{v} += {a}")
                tan.append(f"{t} += {b}")
        elif k == "abs":
            (a,), (b,) = vs, ts
            self.plain.append(f"{v} = abs({a})")
            self.value += [f"if {a} > 0.0: {v} = {a}", f"elif {a} < 0.0: {v} = -{a}",
                           f"elif {a} == 0.0: {v} = 0.0", f"else: {v} = {a}"]
            tan += [f"if {a} > 0.0: {v} = {a}; {t} = {b}", f"elif {a} < 0.0: {v} = -{a}; {t} = -{b}",
                    f"elif {a} == 0.0: {v} = 0.0; {t} = abs({b})", f"else: {v} = {t} = {a}"]
        elif k in ("max", "min"):
            # a tie takes the later value and NaN sticks; the tangent is the extremum over ties
            op = ">" if k == "max" else "<"
            self.both(f"{v} = {vs[0]}")
            for a in vs[1:]:
                self.both(f"if not {v} {op} {a} and {v} == {v}: {v} = {a}")
            tan.append(f"{t} = None")
            for a, b in zip(vs, ts):
                tan.append(f"if {a} == {v} and ({t} is None or {b} {op} {t}): {t} = {b}")
            tan.append(f"if {v} != {v}: {t} = {v}")
        elif k == "norm":
            s = f"s{self.count}"
            self.both(f"{s} = 0.0")
            for a in vs:
                self.both(f"{s} += {a} * {a}")
            self.both(f"{v} = sqrt({s})")
            tan += [f"if {v} == 0.0:", f"    {s} = 0.0", *(f"    {s} += {b} * {b}" for b in ts),
                    f"    {t} = sqrt({s})",
                    "else:", f"    {s} = 0.0", *(f"    {s} += {a} * {b}" for a, b in zip(vs, ts)),
                    f"    {t} = {s} / {v}"]
        else:
            raise ValueError(f"unknown node kind {k!r}")
        return v, t, max(n for _, _, n in kids)


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
