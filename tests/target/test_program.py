"""A program's label table is checked once and kept until it changes."""

import pickle

import pytest

from repro.target import K11, run_program
from repro.target.isa import Program


@pytest.fixture
def target_checks(monkeypatch):
    """How many instructions' branch targets were read."""
    calls = []
    targets = Program.branch_targets

    def counted(self, index):
        calls.append(index)
        return targets(self, index)

    monkeypatch.setattr(Program, "branch_targets", counted)
    return calls


def _branching():
    program = Program("p")
    program.emit("FRAME")
    program.emit("LDI", 1)
    program.emit("BNZ", "taken")
    program.emit("RET")
    program.label("taken")
    program.emit("SETF")
    program.emit("RET")
    return program


def test_runs_check_the_targets_once(target_checks):
    program = _branching()
    for _ in range(3):
        assert run_program(program, K11, {}, set()).fired
    assert len(target_checks) == len(program)


def test_a_program_extended_after_a_run_resolves_its_new_labels():
    program = Program("p")
    program.emit("FRAME")
    program.emit("LDI", 1)
    program.emit("BNZ", "later")
    program.emit("RET")
    for _ in range(2):  # an undefined label raises on every run
        with pytest.raises(ValueError, match="undefined label 'later'"):
            run_program(program, K11, {}, set())
    program.label("later")
    program.emit("EMIT", "e")
    program.emit("RET")
    assert run_program(program, K11, {}, set()).emissions == [("e", None)]
    program.emit("JMP", "nowhere")
    with pytest.raises(ValueError, match="undefined label 'nowhere'"):
        run_program(program, K11, {}, set())


def test_an_instruction_popped_directly_is_seen(target_checks):
    """The s-graph compiler's epilogue pops a jump it would fall through."""
    program = _branching()
    run_program(program, K11, {}, set())
    program.instructions.pop()
    del target_checks[:]
    assert run_program(program, K11, {}, set()).fired
    assert len(target_checks) == len(program)
    program.instructions.pop()
    program.emit("JMP", "nowhere")  # back to the length last resolved
    with pytest.raises(ValueError, match="undefined label 'nowhere'"):
        run_program(program, K11, {}, set())


def test_the_kept_table_is_not_pickled():
    program = _branching()
    before = pickle.dumps(program)
    run_program(program, K11, {}, set())
    assert pickle.dumps(program) == before
    copy = pickle.loads(before)
    assert run_program(copy, K11, {}, set()).fired
