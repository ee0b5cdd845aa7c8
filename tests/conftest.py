"""Shared fixtures: reference CFSMs, networks, calibrated cost parameters."""

import pytest

from repro.cfsm import BinOp, CfsmBuilder, Const, EventValue, Var
from repro.estimation import calibrate
from repro.target import K11, K32


def make_simple_cfsm():
    """The paper's Fig. 1 ``simple`` module (4-bit value for exhaustion)."""
    b = CfsmBuilder("simple")
    c = b.value_input("c", width=4)
    y = b.pure_output("y")
    a = b.state("a", num_values=16)
    eq = BinOp("==", Var("a"), EventValue("c"))
    b.transition(
        when=[b.present(c), b.expr_test(eq)],
        do=[b.assign(a, Const(0)), b.emit(y)],
    )
    b.transition(
        when=[b.present(c), b.expr_test(eq, False)],
        do=[b.assign(a, BinOp("+", Var("a"), Const(1)))],
    )
    return b.build()


def make_counter_cfsm():
    """Mod-5 counter with two input events and a valued output."""
    b = CfsmBuilder("counter")
    up = b.pure_input("up")
    rst = b.pure_input("rst")
    out = b.value_output("count", width=4)
    n = b.state("n", num_values=5)
    b.transition(when=[b.present(rst)], do=[b.assign(n, Const(0)), b.emit(out, Const(0))])
    b.transition(
        when=[b.present(up), b.absent(rst)],
        do=[
            b.assign(n, BinOp("+", Var("n"), Const(1))),
            b.emit(out, BinOp("+", Var("n"), Const(1))),
        ],
    )
    return b.build()


def make_modal_cfsm():
    """Three-mode machine exercising multiway state switching."""
    b = CfsmBuilder("modal")
    go = b.pure_input("go")
    halt = b.pure_input("halt")
    a_out = b.pure_output("in_a")
    b_out = b.pure_output("in_b")
    mode = b.state("mode", num_values=3)
    eq0 = BinOp("==", Var("mode"), Const(0))
    eq1 = BinOp("==", Var("mode"), Const(1))
    eq2 = BinOp("==", Var("mode"), Const(2))
    b.transition(when=[b.present(go), b.expr_test(eq0)], do=[b.assign(mode, Const(1)), b.emit(a_out)])
    b.transition(when=[b.present(go), b.expr_test(eq1)], do=[b.assign(mode, Const(2)), b.emit(b_out)])
    b.transition(when=[b.present(go), b.expr_test(eq2)], do=[b.assign(mode, Const(0))])
    b.transition(when=[b.present(halt), b.absent(go)], do=[b.assign(mode, Const(0))])
    return b.build()


@pytest.fixture
def simple_cfsm():
    return make_simple_cfsm()


@pytest.fixture
def counter_cfsm():
    return make_counter_cfsm()


@pytest.fixture
def modal_cfsm():
    return make_modal_cfsm()


@pytest.fixture(scope="session")
def dashboard_net():
    from repro.apps import dashboard_network

    return dashboard_network()


@pytest.fixture(scope="session")
def shock_net():
    from repro.apps import shock_network

    return shock_network()


@pytest.fixture(scope="session")
def k11_params():
    return calibrate(K11)


@pytest.fixture(scope="session")
def k32_params():
    return calibrate(K32)


def all_snapshots(cfsm, value_range=None):
    """Iterate every (state, present-set, values) snapshot of a small CFSM.

    ``value_range`` limits the enumerated values of valued inputs (defaults
    to the full width if it is at most 4 bits).
    """
    from itertools import product

    state_domains = [(v.name, range(v.num_values)) for v in cfsm.state_vars]
    pure = [e.name for e in cfsm.inputs if e.is_pure]
    valued = [e for e in cfsm.inputs if e.is_valued]
    value_domains = []
    for event in valued:
        if value_range is not None:
            value_domains.append((event.name, value_range))
        elif event.width <= 4:
            value_domains.append((event.name, range(1 << event.width)))
        else:
            value_domains.append((event.name, (0, 1, 7, 100)))

    names = [name for name, _ in state_domains]
    for state_values in product(*(dom for _, dom in state_domains)):
        state = dict(zip(names, state_values))
        all_events = pure + [e.name for e in valued]
        for mask in range(1 << len(all_events)):
            present = {
                all_events[i] for i in range(len(all_events)) if (mask >> i) & 1
            }
            for vals in product(*(dom for _, dom in value_domains)):
                values = dict(zip((n for n, _ in value_domains), vals))
                yield state, present, values


def build_bytes(build):
    """Every byte a system build writes, plus each module's listing."""
    modules = {
        name: (module.c_source, module.program.listing())
        for name, module in build.modules.items()
    }
    return modules, build.rtos_source, build.report()
