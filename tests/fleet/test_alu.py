"""Randomized cross-check: the bit-sliced ALU vs scalar ``Expr.evaluate``.

Every lane of a compiled expression circuit must decode (two's
complement) to exactly what the scalar evaluator computes for that
lane's inputs — including the guarded semantics of ``/`` and ``%``
(division by zero yields 0), out-of-range shifts, and ``Cond``.
"""

import random

import pytest

from repro.cfsm.expr import BINARY_OPS, BinOp, Cond, Const, UnOp, Var
from repro.fleet import Alu, BitVec, Circuit, build_expr

OPS = list(BINARY_OPS.keys())
VAR_WIDTHS = {"a": 5, "b": 4, "c": 6}


def rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(rng.randint(-20, 20))
        return Var(rng.choice(sorted(VAR_WIDTHS)))
    r = rng.random()
    if r < 0.08:
        return UnOp(rng.choice(["-", "!"]), rand_expr(rng, depth - 1))
    if r < 0.16:
        return Cond(
            rand_expr(rng, depth - 1),
            rand_expr(rng, depth - 1),
            rand_expr(rng, depth - 1),
        )
    op = rng.choice(OPS)
    left = rand_expr(rng, depth - 1)
    if op in ("<<", ">>") and rng.random() < 0.6:
        right = Const(rng.randint(-1, 4))
    else:
        right = rand_expr(rng, depth - 1)
    return BinOp(op, left, right)


def check_case(rng, n_lanes, depth):
    expr = rand_expr(rng, depth)
    lane_vals = {
        v: [
            rng.randint(-(1 << (w - 1)), (1 << (w - 1)) - 1)
            for _ in range(n_lanes)
        ]
        for v, w in VAR_WIDTHS.items()
    }

    circuit = Circuit()
    alu = Alu(circuit)
    env = {}
    input_planes = {}
    for v, w in sorted(VAR_WIDTHS.items()):
        names = [f"{v}_{i}" for i in range(w)]
        env[v] = BitVec(names)
        for i, name in enumerate(names):
            bits = 0
            for lane in range(n_lanes):
                if (lane_vals[v][lane] >> i) & 1:
                    bits |= 1 << lane
            input_planes[name] = bits

    out = build_expr(alu, expr, env)
    source = "def kernel(Z, M, {}):\n".format(", ".join(input_planes))
    for line in circuit.lines:
        source += f"    {line}\n"
    source += "    return [{}]\n".format(", ".join(out.planes))
    namespace = {}
    exec(source, namespace)
    mask = (1 << n_lanes) - 1
    planes = namespace["kernel"](0, mask, **input_planes)

    for lane in range(n_lanes):
        got = 0
        for i, plane in enumerate(planes):
            got |= ((plane >> lane) & 1) << i
        if (planes[-1] >> lane) & 1:
            got -= 1 << len(planes)
        scalar_env = {v: lane_vals[v][lane] for v in VAR_WIDTHS}
        want = expr.evaluate(scalar_env)
        assert got == want, (
            f"{expr.render_c()} lane {lane} env {scalar_env}: "
            f"sliced {got} != scalar {want}"
        )


def test_random_expressions_int_backend():
    rng = random.Random(1234)
    for _ in range(60):
        check_case(rng, 37, depth=4)


def test_division_by_zero_lanes_yield_zero():
    """The paper's safe-div semantics: b == 0 lanes produce 0, not noise."""
    circuit = Circuit()
    alu = Alu(circuit)
    env = {
        "a": BitVec(["a_0", "a_1", "a_2", "a_3"]),
        "b": BitVec(["b_0", "b_1", "b_2", "b_3"]),
    }
    expr = BinOp("/", Var("a"), Var("b"))
    out = build_expr(alu, expr, env)
    a_vals = [6, -5, 3, 7]
    b_vals = [0, 0, 2, -2]
    planes = {}
    for name, vals in (("a", a_vals), ("b", b_vals)):
        for i in range(4):
            bits = 0
            for lane, value in enumerate(vals):
                if (value >> i) & 1:
                    bits |= 1 << lane
            planes[f"{name}_{i}"] = bits
    source = "def kernel(Z, M, {}):\n".format(", ".join(planes))
    for line in circuit.lines:
        source += f"    {line}\n"
    source += "    return [{}]\n".format(", ".join(out.planes))
    namespace = {}
    exec(source, namespace)
    result = namespace["kernel"](0, 0b1111, **planes)
    for lane in range(4):
        got = 0
        for i, plane in enumerate(result):
            got |= ((plane >> lane) & 1) << i
        if (result[-1] >> lane) & 1:
            got -= 1 << len(result)
        want = BINARY_OPS["/"][2](a_vals[lane], b_vals[lane])
        assert got == want, (lane, got, want)


def test_width_overflow_rejected():
    from repro.fleet import FleetCompileError

    circuit = Circuit()
    alu = Alu(circuit)
    vec = BitVec([f"x_{i}" for i in range(100)])
    with pytest.raises(FleetCompileError):
        alu.mul(vec, vec)
