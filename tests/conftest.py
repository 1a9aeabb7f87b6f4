import numpy as np

from compassdiff import expr as ex

# ODE problem whose state overflows: dx/dt = x, x0 = 1e300 p1 + 1e308 p2.  At
# p = 0 the tangent along e2 overflows at once, along e1 only at t = 16.56.
OVERFLOW_PROBLEM = {"n_state": 1, "rhs_expr": ["(var 0)"], "cost_expr": "(var 2)", "t_final": 30.0,
                    "init_expr": ["(add (scale 1e300 (var 0)) (scale 1e308 (var 1)))"]}


def random_expr(rng: np.random.Generator, dim: int, depth: int) -> ex.NonsmoothExpr:
    """Random expression tree over ``dim`` variables, depth-bounded."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return ex.var(int(rng.integers(dim)))
        return ex.const(float(rng.integers(-3, 4)))
    kind = rng.choice(["add", "sub", "mul", "scale", "abs", "max", "min", "norm"])
    if kind in ("add", "max", "min", "norm"):
        width = int(rng.integers(2, 4))
        return ex.NonsmoothExpr(kind, tuple(random_expr(rng, dim, depth - 1) for _ in range(width)))
    if kind in ("sub", "mul"):
        return ex.NonsmoothExpr(kind, (random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1)))
    if kind == "scale":
        return ex.scale(float(rng.integers(-2, 3)), random_expr(rng, dim, depth - 1))
    return ex.abs_(random_expr(rng, dim, depth - 1))
