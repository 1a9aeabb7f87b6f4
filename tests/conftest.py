import numpy as np

from compassdiff import expr as ex
from compassdiff.geometry import SupportOracle
from compassdiff.sampling import halton, unit_directions

# ODE problem whose state overflows: dx/dt = x, x0 = 1e300 p1 + 1e308 p2.  At
# p = 0 the tangent along e2 overflows at once, along e1 only at t = 16.56.
OVERFLOW_PROBLEM = {"n_state": 1, "rhs_expr": ["(var 0)"], "cost_expr": "(var 2)", "t_final": 30.0,
                    "init_expr": ["(add (scale 1e300 (var 0)) (scale 1e308 (var 1)))"]}


def _wide(kind: str, children) -> str:
    return f"({kind} {' '.join(children)})"


# ODE problem whose right-hand side has three 5000-child nodes:
# dx0/dt = -x0/2 + |x1|/2, dx1/dt = max_k c_k x1 with c_k from -1 to -1/2,
# dx2/dt = 50 ||(x0, x1)||
WIDE_PROBLEM = {
    "n_state": 3,
    "rhs_expr": [
        _wide("add", ["(scale -2e-4 (var 0))", "(scale 2e-4 (abs (var 1)))"] * 2500),
        _wide("max", [f"(scale {-1.0 + 0.5 * k / 4999!r} (var 1))" for k in range(5000)]),
        _wide("norm", ["(var 0)", "(var 1)"] * 2500),
    ],
    "init_expr": ["(var 0)", "(var 1)", "(const 0)"],
    "cost_expr": "(add (var 2) (var 4))",
    "t_final": 0.25,
}


def _deep(levels: int) -> str:
    """An expression nested ``levels`` deep over (var 0) and (var 1), cycling through every node kind."""
    text = "(var 0)"
    wrappers = ("(neg {})", "(abs {})", "(max {} (var 1))", "(min (const 1e9) {})", "(add {} (const -0.0))",
                "(mul (const 1) {})", "(norm {})", "(sub {} (const 0))", "(scale 0.5 {})")
    for level in range(levels - 1):
        text = wrappers[level % len(wrappers)].format(text)
    return text


# ODE problem whose first right-hand side is nested as deep as the parser accepts
DEEP_PROBLEM = {"n_state": 2, "rhs_expr": [_deep(ex.MAX_DEPTH), "(neg (var 1))"],
                "init_expr": ["(var 0)", "(var 1)"], "cost_expr": "(var 2)", "t_final": 1.0}


# ODE problem with four states, so a coupled state/tangent row has 8
# components: the error norm's sum of squares must run left to right, where
# numpy's add.reduce would switch to pairwise summation
FOUR_STATE_PROBLEM = {
    "n_state": 4,
    "rhs_expr": ["(add (abs (var 0)) (scale -0.5 (var 1)) (var 3))", "(sub (abs (var 2)) (var 1))",
                 "(max (var 0) (neg (var 3)) (scale 0.3 (var 2)))",
                 "(add (scale -0.2 (norm (var 0) (var 1))) (min (var 2) (var 3)))"],
    "init_expr": ["(var 0)", "(var 1)", "(abs (sub (var 0) (var 1)))", "(max (var 0) (var 1))"],
    "cost_expr": "(add (abs (var 2)) (var 3) (max (var 4) (var 5)))",
    "t_final": 1.0,
}


def random_expr(rng: np.random.Generator, dim: int, depth: int, constants=()) -> ex.NonsmoothExpr:
    """Random expression tree over ``dim`` variables, depth-bounded.

    Constants and scale factors are small integers; a nonempty ``constants``
    adds its values to the literals a constant or a factor can take.
    """
    def literal(low, high):
        if constants and rng.random() < 0.5:
            return float(constants[int(rng.integers(len(constants)))])
        return float(rng.integers(low, high))

    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return ex.var(int(rng.integers(dim)))
        return ex.const(literal(-3, 4))
    kind = rng.choice(["add", "sub", "mul", "scale", "abs", "max", "min", "norm"])
    if kind in ("add", "max", "min", "norm"):
        width = int(rng.integers(2, 4))
        return ex.NonsmoothExpr(kind, tuple(random_expr(rng, dim, depth - 1, constants) for _ in range(width)))
    if kind in ("sub", "mul"):
        return ex.NonsmoothExpr(kind, (random_expr(rng, dim, depth - 1, constants),
                                       random_expr(rng, dim, depth - 1, constants)))
    if kind == "scale":
        return ex.scale(literal(-2, 3), random_expr(rng, dim, depth - 1, constants))
    return ex.abs_(random_expr(rng, dim, depth - 1, constants))


def halton_in_box(count: int, lower, upper, start: int = 1) -> np.ndarray:
    """The first ``count`` Halton points from index ``start``, mapped into the box [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return lower + halton(count, lower.size, start=start) * (upper - lower)


def ball_support(radius: float = 1.0, dim: int = 2) -> SupportOracle:
    """The ball of ``radius`` about the origin, known through its support function alone (no vertices)."""
    return SupportOracle(dim=dim, sigma=lambda d: radius * float(np.linalg.norm(d)),
                         description=f"ball of radius {radius}")


def max_violation(f, x, s, samples) -> float:
    """Largest f(x) + <s, y - x> - f(y) over the rows y of ``samples``; ``f`` also takes a batch of rows.

    At most 0 (up to evaluation error) when ``s`` is a subgradient of a
    convex ``f`` at ``x``; for a nonconvex ``f`` that is never a certificate.
    """
    samples = np.asarray(samples, dtype=float)
    return float(np.max(f(x) + (samples - x) @ s - np.asarray(f(samples), dtype=float)))


def sample_limiting_gradients(expr: ex.NonsmoothExpr, x) -> np.ndarray:
    """Brute-force essentially-active gradients near ``x``, by perturbed probing: a test reference.

    Samples 64 points on the sphere of radius 1e-3 around ``x``, keeps those
    where the function is (numerically) differentiable, reads the gradient
    off the coordinate directional derivatives, and drops repeats within 1e-6
    (max norm).  For piecewise functions whose pieces all meet that sphere
    the result spans the Clarke generalized gradient at ``x``, independent
    of any hand-derived formula.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    grads: list[np.ndarray] = []
    for u in unit_directions(64, n):
        p = x + 1e-3 * u
        plus = np.array([ex.eval_dir_deriv(expr, p, e) for e in np.eye(n)])
        minus = np.array([ex.eval_dir_deriv(expr, p, -e) for e in np.eye(n)])
        if np.any(np.abs(plus + minus) > 1e-9 * (1.0 + np.abs(plus))):
            continue
        if all(np.max(np.abs(plus - h)) > 1e-6 for h in grads):
            grads.append(plus)
    return np.array(grads)
