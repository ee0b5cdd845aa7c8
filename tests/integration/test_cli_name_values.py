"""``NAME=INT`` options reject a missing or non-integer value by name."""

from pathlib import Path

import pytest

from repro.cli import main

MODULE = str(Path(__file__).resolve().parents[2] / "examples" / "rsl" / "belt_alarm.rsl")


@pytest.mark.parametrize("argv, message", [
    (["build", MODULE, "--rate", "key_on"],
     "--rate expects NAME=CYCLES, got 'key_on'"),
    (["build", MODULE, "--rate", "key_on=fast"],
     "--rate expects NAME=CYCLES, got 'key_on=fast'"),
    (["simulate", MODULE, "--priority", "belt_alarm=high", "--stim", "key_on@5"],
     "--priority expects NAME=P, got 'belt_alarm=high'"),
    (["verify", MODULE, "--priority", "belt_alarm="],
     "--priority expects NAME=P, got 'belt_alarm='"),
])
def test_a_bad_item_names_the_option(argv, message, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(argv + (["-o", str(tmp_path / "out")] if argv[0] == "build" else []))
    assert info.value.code == message
