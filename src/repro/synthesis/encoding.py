"""Binary encoding of a CFSM's reactive function (Sec. III-B1).

The reactive function maps *test outcomes* to *action selections*:

* every distinct :class:`~repro.cfsm.machine.PresenceTest` becomes one binary
  BDD input variable;
* tests that read **only one state variable** are *folded*: the state
  variable itself is encoded as a :class:`~repro.bdd.mdd.MultiValuedVar`
  (a group of binary input variables) and the test becomes a Boolean
  function of those bits.  This both exposes multiway branching (switch
  statements on the state code, footnote 3 of the paper) and makes the
  mutual exclusion of ``s == k`` tests structural instead of a don't-care;
* every other expression test becomes an *opaque* binary input variable;
  correlations between opaque tests (and state bits) that read the same
  small-domain data are recovered by exhaustive enumeration and contributed
  to the **care set** — the paper's "false paths ... determined ... by
  computing event incompatibility relations" (Sec. III-C).  The
  enumeration visits every joint assignment, but each distinct outcome
  vector (encoded state values and test outcomes) gives one cube, and the
  constraint is the balanced OR of those cubes;
* every distinct action becomes one binary output variable.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..bdd import BddManager, Function, MultiValuedVar
from ..cfsm.expr import Expr
from ..cfsm.machine import (
    Action,
    Cfsm,
    ExprTest,
    PresenceTest,
    Test,
    TestLiteral,
)

__all__ = ["ReactiveEncoding", "FireFlag"]


class FireFlag(Action):
    """Virtual action marking "some transition executed" in generated code."""

    def key(self) -> Tuple:
        return ("fire",)

    def label(self) -> str:
        return "fired := 1"

# Upper bound on the joint-domain size we are willing to enumerate when
# deriving incompatibility constraints between opaque tests.
DEFAULT_ENUM_LIMIT = 4096


def _state_only_support(expr: Expr, state_domains: Dict[str, int]) -> Optional[str]:
    """Name of the single state variable ``expr`` reads, else ``None``."""
    names = set(expr.variables())
    if len(names) == 1:
        (name,) = names
        if name in state_domains:
            return name
    return None


class ReactiveEncoding:
    """Allocates BDD variables for a CFSM's tests and actions.

    Each encoding owns a fresh :class:`~repro.bdd.BddManager`: a CFSM's
    reactive function is synthesized on its own (Sec. I-H), so nothing
    is shared with, or left over from, any other module's build.

    The variable order at construction is the paper's "naive" initial order:
    inputs in first-occurrence order, all outputs after all inputs.
    Dynamic reordering is applied later, on the characteristic function.
    """

    def __init__(
        self,
        cfsm: Cfsm,
        fold_state_tests: bool = True,
        enum_limit: int = DEFAULT_ENUM_LIMIT,
        reachable_states: Optional[Set[Tuple[int, ...]]] = None,
    ):
        self.cfsm = cfsm
        self.manager = BddManager()
        self.fold_state_tests = fold_state_tests
        self.enum_limit = enum_limit
        # Optional reachable-state set (tuples in state_vars order) used as
        # sequential don't-cares: unreachable codes leave the care set.
        self.reachable_states = reachable_states

        self.state_domains: Dict[str, int] = {
            v.name: v.num_values for v in cfsm.state_vars
        }
        # Event-value domains for enumeration: width-bounded integers.
        self.value_domains: Dict[str, int] = {
            f"?{e.name}": (1 << e.width) if e.width <= 12 else 0
            for e in cfsm.inputs
            if e.is_valued
        }

        self.state_mvars: Dict[str, MultiValuedVar] = {}
        self.presence_vars: Dict[str, int] = {}  # event name -> var
        self.opaque_tests: List[ExprTest] = []
        self.opaque_var: Dict[Tuple, int] = {}  # test key -> var
        self.folded_tests: Dict[Tuple, Tuple[str, Function]] = {}
        self.test_by_key: Dict[Tuple, Test] = {}
        self.action_vars: Dict[Tuple, int] = {}  # action key -> var
        self.actions: List[Action] = []
        self.action_sources: Dict[Tuple, List[str]] = {}
        self.input_vars: List[int] = []
        self.output_vars: List[int] = []
        self._var_to_test: Dict[int, Test] = {}
        self._var_to_action: Dict[int, Action] = {}

        self._allocate()
        self.care = self._build_care()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _allocate(self) -> None:
        cfsm, m = self.cfsm, self.manager
        # Inputs: presence flags first (they gate everything), then state
        # bits, then opaque tests — all in first-occurrence order.
        for test in cfsm.all_tests():
            self.test_by_key[test.key()] = test
            if isinstance(test, PresenceTest):
                if test.event.name not in self.presence_vars:
                    var = m.new_var(f"present_{test.event.name}")
                    self.presence_vars[test.event.name] = var
                    self.input_vars.append(var)
                    self._var_to_test[var] = test
            elif isinstance(test, ExprTest):
                folded = None
                if self.fold_state_tests:
                    folded = _state_only_support(test.expr, self.state_domains)
                if folded is not None:
                    self._ensure_state_mvar(folded)
                else:
                    if test.key() not in self.opaque_var:
                        var = m.new_var(f"t_{len(self.opaque_tests)}")
                        self.opaque_var[test.key()] = var
                        self.opaque_tests.append(test)
                        self.input_vars.append(var)
                        self._var_to_test[var] = test
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown test type {type(test).__name__}")
        # Resolve folded-test functions now that the mvars exist.
        for test in cfsm.all_tests():
            if not isinstance(test, ExprTest) or test.key() in self.opaque_var:
                continue
            name = _state_only_support(test.expr, self.state_domains)
            if name is None:
                continue
            mvar = self.state_mvars[name]
            fn = mvar.in_set([
                value
                for value in range(mvar.num_values)
                if test.expr.evaluate({name: value})
            ])
            self.folded_tests[test.key()] = (name, fn)
        # Outputs.
        for action in cfsm.all_actions():
            var = m.new_var(f"act_{len(self.actions)}")
            self.action_vars[action.key()] = var
            self.actions.append(action)
            self.output_vars.append(var)
            self._var_to_action[var] = action
        # Source provenance: which specification lines produced each action.
        for transition in cfsm.transitions:
            if transition.source is None:
                continue
            for action in transition.actions:
                sources = self.action_sources.setdefault(action.key(), [])
                if transition.source not in sources:
                    sources.append(transition.source)

    def _ensure_state_mvar(self, name: str) -> MultiValuedVar:
        if name not in self.state_mvars:
            mvar = MultiValuedVar(self.manager, name, self.state_domains[name])
            self.state_mvars[name] = mvar
            self.input_vars.extend(mvar.bits)
        return self.state_mvars[name]

    # ------------------------------------------------------------------
    # Care set (false-path / incompatibility analysis)
    # ------------------------------------------------------------------

    def _build_care(self) -> Function:
        care = self.manager.true
        # In-domain state codes.
        for mvar in self.state_mvars.values():
            if mvar.num_values != (1 << mvar.num_bits):
                care = care & mvar.valid()
        # Correlations among opaque tests (and folded state vars they read).
        for component in self._correlation_components():
            constraint = self._enumerate_component(component)
            if constraint is not None:
                care = care & constraint
        # Sequential don't-cares: restrict to the reachable state codes
        # (projected onto the state variables that are bit-encoded here).
        reachability = self._reachability_constraint()
        if reachability is not None:
            care = care & reachability
        return care

    def _reachability_constraint(self) -> Optional[Function]:
        if not self.reachable_states or not self.state_mvars:
            return None
        names = [v.name for v in self.cfsm.state_vars]
        encoded = [name for name in names if name in self.state_mvars]
        if not encoded:
            return None
        projected = {
            tuple(
                value
                for name, value in zip(names, state)
                if name in self.state_mvars
            )
            for state in self.reachable_states
        }
        return self.manager.disjoin(
            self.manager.cube(self._state_literals(encoded, combo))
            for combo in projected
        )

    def _state_literals(
        self, names: Sequence[str], values: Sequence[int]
    ) -> Dict[int, bool]:
        """Bit literals of ``name == value`` over encoded state variables."""
        literals: Dict[int, bool] = {}
        for name, value in zip(names, values):
            literals.update(self.state_mvars[name].encode(value))
        return literals

    def _correlation_components(self) -> List[List[ExprTest]]:
        """Connected components of opaque tests sharing a read variable."""
        parent: Dict[int, int] = {}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        tests = self.opaque_tests
        for i in range(len(tests)):
            parent[i] = i
        readers: Dict[str, List[int]] = {}
        for i, test in enumerate(tests):
            for name in set(test.expr.variables()):
                readers.setdefault(name, []).append(i)
        for group in readers.values():
            for other in group[1:]:
                union(group[0], other)
        components: Dict[int, List[ExprTest]] = {}
        for i, test in enumerate(tests):
            components.setdefault(find(i), []).append(test)
        # A single test correlates with state bits it reads, so keep
        # singletons that read state variables.
        result = []
        for group in components.values():
            reads_state = any(
                name in self.state_domains
                for test in group
                for name in test.expr.variables()
            )
            if len(group) > 1 or reads_state:
                result.append(group)
        return result

    def _enumerate_component(self, tests: List[ExprTest]) -> Optional[Function]:
        """Care constraint of one correlated group of opaque tests.

        Enumerates every joint assignment of the data and state variables
        the tests read (``None`` when a domain is unbounded or the joint
        domain exceeds ``enum_limit``), skipping unreachable state
        combinations.  The constraint is the set of outcome vectors that
        occur: each distinct vector of encoded state values and test
        outcomes gives one cube, and the result is their OR.
        """
        names: Set[str] = set()
        for test in tests:
            names.update(test.expr.variables())
        domain = 1
        for name in names:
            size = (
                self.state_domains.get(name)
                if name in self.state_domains
                else self.value_domains.get(name, 0)
            )
            if not size:
                return None  # unbounded data: no constraint derivable
            domain *= size
            if domain > self.enum_limit:
                return None
        ordered = sorted(names)
        sizes = [
            self.state_domains.get(n) or self.value_domains[n] for n in ordered
        ]
        allowed = self._allowed_state_combos(
            [n for n in ordered if n in self.state_domains]
        )
        encoded = [n for n in ordered if n in self.state_mvars]
        # Outcome keys in first-seen order.  Data values matter only
        # through the tests they decide, so many assignments share a key.
        keys: Dict[Tuple, None] = {}
        # A flat loop, not a recursive closure: a closure that calls itself
        # is a reference cycle, and its cell would keep BDD handles alive
        # until the cyclic collector happened to run.
        for assignment in itertools.product(*(range(size) for size in sizes)):
            env = dict(zip(ordered, assignment))
            if allowed is not None:
                combo = tuple(env[n] for n in ordered if n in self.state_domains)
                if combo not in allowed:
                    continue  # unreachable state: a sequential don't-care
            key = tuple(env[n] for n in encoded) + tuple(
                bool(test.expr.evaluate(env)) for test in tests
            )
            keys[key] = None
        test_vars = [self.opaque_var[test.key()] for test in tests]
        split = len(encoded)
        cubes = []
        for key in keys:
            literals = self._state_literals(encoded, key[:split])
            literals.update(zip(test_vars, key[split:]))
            cubes.append(self.manager.cube(literals))
        return self.manager.disjoin(cubes)

    def _allowed_state_combos(self, state_names: List[str]):
        """Reachable joint valuations of ``state_names`` (None = no info)."""
        if not self.reachable_states or not state_names:
            return None
        all_names = [v.name for v in self.cfsm.state_vars]
        indices = [all_names.index(name) for name in state_names]
        return {
            tuple(state[i] for i in indices) for state in self.reachable_states
        }

    # ------------------------------------------------------------------
    # Guard translation
    # ------------------------------------------------------------------

    def literal_function(self, literal: TestLiteral) -> Function:
        """BDD of one guard literal over the encoding's input variables."""
        test = literal.test
        fn: Function
        if isinstance(test, PresenceTest):
            var = self.presence_vars[test.event.name]
            fn = self.manager.var(var)
        elif test.key() in self.opaque_var:
            fn = self.manager.var(self.opaque_var[test.key()])
        elif test.key() in self.folded_tests:
            fn = self.folded_tests[test.key()][1]
        else:  # pragma: no cover - defensive
            raise KeyError(f"unencoded test {test.label()}")
        return fn if literal.value else ~fn

    def guard_function(self, literals: Sequence[TestLiteral]) -> Function:
        return self.manager.conjoin(
            self.literal_function(lit) for lit in literals
        )

    # ------------------------------------------------------------------
    # Runtime views (used by interpreters and codegen)
    # ------------------------------------------------------------------

    def evaluate_inputs(
        self,
        state: Dict[str, int],
        present: Set[str],
        values: Optional[Dict[str, int]] = None,
    ) -> Dict[int, bool]:
        """Bit assignment of all encoding input variables for a snapshot."""
        values = values or {}
        env: Dict[str, int] = dict(state)
        for event in self.cfsm.inputs:
            if event.is_valued:
                env[f"?{event.name}"] = values.get(event.name, 0)
        bits: Dict[int, bool] = {}
        for name, var in self.presence_vars.items():
            bits[var] = name in present
        for name, mvar in self.state_mvars.items():
            bits.update(mvar.encode(state[name]))
        for test in self.opaque_tests:
            bits[self.opaque_var[test.key()]] = bool(test.expr.evaluate(env))
        return bits

    def add_virtual_output(self, action: Action, name: str) -> int:
        """Allocate an extra output variable for a synthesis-internal action.

        Used for the FIRE flag: a CFSM whose transitions can be enabled
        without any visible action still needs the generated code to report
        "a transition executed" so the RTOS consumes the input events
        (Sec. IV-D).
        """
        var = self.manager.new_var(name)
        self.action_vars[action.key()] = var
        self.actions.append(action)
        self.output_vars.append(var)
        self._var_to_action[var] = action
        return var

    def action_of_var(self, var: int) -> Action:
        return self._var_to_action[var]

    def test_of_var(self, var: int) -> Optional[Test]:
        return self._var_to_test.get(var)

    def render_input_var_c(self, var: int) -> str:
        """C expression computing input variable ``var``."""
        test = self._var_to_test.get(var)
        if test is not None:
            return test.render_c()
        # A state-variable bit: var names look like "s.b<k>".
        name = self.manager.var_name(var)
        state_name, _, bit = name.partition(".b")
        return f"(({state_name} >> {bit}) & 1)"

    def state_bit_owner(self, var: int) -> Optional[Tuple[str, int]]:
        """(state var name, bit index) when ``var`` encodes a state bit."""
        for name, mvar in self.state_mvars.items():
            if var in mvar.bits:
                return name, mvar.num_bits - 1 - mvar.bits.index(var)
        return None

    def sifting_groups(self) -> List[List[int]]:
        """Variable groups that must move together during reordering."""
        return [mvar.group() for mvar in self.state_mvars.values()]
