"""Seeded input generators for the benchmark workloads.

Everything here is plain Python on a private tree representation, so the
inputs handed to the program are text and numbers only.  Trees are tuples:
``("var", i)``, ``("const", c)``, ``("scale", c, child)``, ``("neg", child)``
and ``(op, child, ...)`` for the other operators of the README grammar.

:func:`ref_value` evaluates a tree with the same operation order as the
package's value and tangent passes, so a constant computed by it cancels a
subtree exactly at the chosen point.  That is how points are placed exactly
on kinks.
"""

from __future__ import annotations

import math
import random

NARY = ("add", "max", "min", "norm")
BINARY = ("sub", "mul")

# Operator weights for random trees.  ``mul`` is rare and never nested, so
# values and curvature stay moderate and difference quotients converge.
_OPS = (("add", 3), ("sub", 2), ("mul", 1), ("scale", 2), ("neg", 1),
        ("abs", 3), ("max", 3), ("min", 3), ("norm", 2))
LIPSCHITZ_OPS = tuple((op, w) for op, w in _OPS if op != "mul")


def fmt_float(v: float) -> str:
    """Shortest text that parses back to exactly ``v``."""
    return repr(float(v))


def fmt_point(values) -> str:
    return ",".join(fmt_float(v) for v in values)


def format_tree(t) -> str:
    k = t[0]
    if k == "var":
        return f"(var {t[1]})"
    if k == "const":
        return f"(const {fmt_float(t[1])})"
    if k == "scale":
        return f"(scale {fmt_float(t[1])} {format_tree(t[2])})"
    return "(" + k + " " + " ".join(format_tree(c) for c in t[1:]) + ")"


def has_var(t) -> bool:
    if t[0] == "var":
        return True
    if t[0] == "const":
        return False
    if t[0] == "scale":
        return has_var(t[2])
    return any(has_var(c) for c in t[1:])


def ref_value(t, x) -> float:
    """Value of a tree at ``x`` in the package's left-to-right operation order."""
    k = t[0]
    if k == "var":
        return float(x[t[1]])
    if k == "const":
        return t[1]
    if k == "scale":
        return t[1] * ref_value(t[2], x)
    if k == "neg":
        return -1.0 * ref_value(t[1], x)
    if k == "abs":
        return abs(ref_value(t[1], x))
    vals = [ref_value(c, x) for c in t[1:]]
    if k == "add":
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if k == "sub":
        return vals[0] - vals[1]
    if k == "mul":
        return vals[0] * vals[1]
    if k == "max":
        return max(vals)
    if k == "min":
        return min(vals)
    if k == "norm":
        sq = 0.0
        for v in vals:
            sq = sq + v * v
        return math.sqrt(sq)
    raise ValueError(f"unknown operator {k!r}")


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive sizes summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _const(rng: random.Random) -> float:
    return round(rng.uniform(-2.0, 2.0), 3)


def random_tree(rng: random.Random, size: int, ops=_OPS):
    """A random tree of exactly ``size`` nodes over ``var 0`` and ``var 1``."""
    if size <= 1:
        if rng.random() < 0.75:
            return ("var", rng.randrange(2))
        return ("const", _const(rng))
    choices = [(op, w) for op, w in ops if size >= 3 or op not in NARY + BINARY]
    op = rng.choices([o for o, _ in choices], weights=[w for _, w in choices])[0]
    if op == "scale":
        return ("scale", _const(rng) or 1.0, random_tree(rng, size - 1, ops))
    if op in ("neg", "abs"):
        return (op, random_tree(rng, size - 1, ops))
    width = 2 if op in BINARY else rng.randint(2, min(4, size - 1))
    inner = LIPSCHITZ_OPS if op == "mul" else ops
    return (op, *(random_tree(rng, s, inner) for s in _split(rng, size - 1, width)))


def tree_size_draw(rng: random.Random, lo: int = 3, hi: int = 200) -> int:
    """Log-uniform node count in [lo, hi]."""
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def kinked_tree(rng: random.Random, size: int, x, ops=_OPS):
    """A random tree with a kink exactly at ``x``.

    One subtree ``b`` with a variable is anchored at ``x``: ``abs(b - b(x))``,
    ``max(b, b(x))``, ``min(b, b(x))`` or a ``norm`` of two anchored subtrees
    vanish or tie exactly there, because :func:`ref_value` reproduces the
    package's arithmetic bit for bit.
    """
    body_size = max(1, size - 4)
    b = random_tree(rng, body_size, ops)
    while not has_var(b):
        b = random_tree(rng, body_size, ops)
    c = ref_value(b, x)
    kind = rng.choice(("abs", "max", "min", "norm"))
    if kind == "abs":
        anchor = ("abs", ("sub", b, ("const", c)))
    elif kind in ("max", "min"):
        anchor = (kind, b, ("const", c))
    else:
        other = ("var", 1 - b[1]) if b[0] == "var" else ("var", rng.randrange(2))
        anchor = ("norm", ("sub", b, ("const", c)), ("sub", other, ("const", ref_value(other, x))))
    if rng.random() < 0.5:
        return anchor
    rest = random_tree(rng, 2, ops)
    return (rng.choice(("add", "max", "min")), anchor, rest)


def random_point(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> tuple[float, float]:
    return (round(rng.uniform(lo, hi), 6), round(rng.uniform(lo, hi), 6))


def random_basis(rng: random.Random) -> tuple[tuple[float, float], tuple[float, float]]:
    """A well-conditioned 2x2 probe basis (|det| >= 0.25)."""
    while True:
        m = tuple(tuple(round(rng.uniform(-2.0, 2.0), 3) for _ in range(2)) for _ in range(2))
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) >= 0.25:
            return m


def convex_polygon(rng: random.Random) -> list[list[float]]:
    """Vertices of a random convex polygon, counter-clockwise, 3 to 12 corners."""
    count = rng.randint(3, 12)
    cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    radius = rng.uniform(0.5, 3.0)
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
    return [[round(cx + radius * math.cos(a), 6), round(cy + radius * math.sin(a), 6)] for a in angles]


def lattice_points(rng: random.Random, count: int, lo: float = -1.0, hi: float = 1.0):
    """A randomly shifted Fibonacci lattice of ``count`` points in [lo, hi]^2.

    ``count`` must be a Fibonacci number.  A rank-1 lattice covers the square
    far more evenly than independent draws, so the share of points in any
    region (say, where integrations cross a kink and slow down) barely moves
    from seed to seed.  Points come in lattice order, so every r-th one
    forms a coarser lattice that again spans the square.
    """
    fib = [1, 2]
    while fib[-1] < count:
        fib.append(fib[-1] + fib[-2])
    if fib[-1] != count:
        raise ValueError(f"lattice size must be a Fibonacci number, got {count}")
    g = fib[-2]
    su, sv = rng.random(), rng.random()
    pts = [((k / count + su) % 1.0, (k * g / count + sv) % 1.0) for k in range(count)]
    return [(round(lo + (hi - lo) * u, 6), round(lo + (hi - lo) * v, 6)) for u, v in pts]
