"""A malformed replay document is a typed error, not a traceback."""

import json

import pytest

from repro.cli import main
from repro.difftest import load_repro_file

#: The right format tag and nothing a replay needs.
MALFORMED = {"format": "repro-difftest-repro/v1", "snapshots": []}


@pytest.fixture
def malformed(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(MALFORMED))
    return path


def test_load_repro_file_names_the_path_and_every_error(malformed):
    with pytest.raises(ValueError) as info:
        load_repro_file(str(malformed))
    text = str(info.value)
    assert text.startswith(f"{malformed}: invalid replay document")
    for field in ("'cfsm' is missing", "'snapshots' is empty",
                  "'failure' is missing", "'origin' is missing"):
        assert field in text


def test_a_wrong_format_tag_is_still_a_value_error(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(dict(MALFORMED, format="repro-difftest/v1")))
    with pytest.raises(ValueError, match="unknown format 'repro-difftest/v1'"):
        load_repro_file(str(path))


def test_fuzz_replay_of_a_malformed_file_exits_2(malformed, capsys):
    assert main(["fuzz", "--replay", str(malformed)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro fuzz: {malformed}: invalid replay")
    assert "Traceback" not in captured.err and captured.out == ""


def test_fuzz_replay_reads_each_file_once(malformed, monkeypatch, capsys):
    from pathlib import Path

    import repro.difftest.runner as runner

    corpus = sorted(
        str(p) for p in (Path(__file__).parent / "corpus").glob("*.json")
    )[:2]
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        if str(path).endswith(".json"):
            opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(runner, "open", counting_open, raising=False)
    assert main(["fuzz", "--replay", corpus[0], "--replay", corpus[1]]) == 0
    assert opened == corpus
    assert capsys.readouterr().out.count("PASS") == 2
    opened.clear()
    assert main(["fuzz", "--replay", corpus[0], "--replay", str(malformed)]) == 2
    assert opened == [corpus[0], str(malformed)]
