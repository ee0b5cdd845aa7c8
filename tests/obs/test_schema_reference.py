"""The spec tables accept what the reference validators accept.

See :mod:`tests.obs.schema_reference` for the reference and the campaign.
Tier-1 checks the real documents, a seeded slice of mutants, the places
where ``null`` counts as absent, and the two deliberate differences; the
whole 40,000-mutant campaign runs as ``python -m tests.obs.schema_reference``
in CI.
"""

import copy
import json

import pytest

from repro.cli import main as cli_main
from repro.obs import render_report, validate_trace
from repro.obs.schema import FORMATS

from . import schema_reference
from .schema_reference import base_documents, campaign, classify


@pytest.fixture(scope="module")
def docs():
    return base_documents()


def test_every_real_document_validates_on_both(docs):
    for name, doc in docs.items():
        assert validate_trace(doc) == [], name
        assert schema_reference.validate_trace(doc) == [], name


def test_a_seeded_slice_agrees_with_the_reference(docs):
    counts = campaign(docs, 3000, seed=1)
    assert not [v for v in counts if v.startswith("DIVERGED")], counts
    assert counts["agree-valid"] > 300 and counts["agree-invalid"] > 300


def test_render_report_renders_every_registered_format(docs):
    formats = {doc["format"]: doc for doc in docs.values()}
    assert set(formats) == set(FORMATS)
    for fmt, doc in formats.items():
        text = render_report(doc, top=3)
        assert text.splitlines()[0].startswith(("== ", "bench history:")), fmt


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


#: Where ``null`` counts as absent, on both validators.
NULL_IS_ABSENT = [
    ("build_serial", ("metrics",)),
    ("BENCH_bdd", ("provenance",)),
    ("BENCH_sim", ("provenance",)),
    ("BENCH_serve", ("provenance",)),
    ("BENCH_bdd", ("sift", "stress", "baseline")),
    ("BENCH_bdd", ("reactive", "baseline")),
    ("BENCH_sim", ("kernel_compile",)),
    ("bench_history", ("checks",)),
    ("fuzz_shrunk", ("failures", 0, "repro")),
    ("BENCH_serve", ("provenance", "git_revision")),
]

#: Where ``null`` is an error, on both validators.
NULL_IS_AN_ERROR = [
    ("BENCH_bdd", ("kernel",)),
    ("BENCH_bdd", ("reactive",)),
    ("BENCH_bdd", ("provenance", "runs")),
    ("BENCH_sim", ("backends", "native", "engine_speedup")),
    ("build_serial", ("events", 0, "wall_ms")),
    ("verify_report", ("summary",)),
]


@pytest.mark.parametrize("name, path", NULL_IS_ABSENT)
def test_null_counts_as_absent(docs, name, path):
    doc = _edited(docs[name], path, None)
    assert classify(doc) == "agree-valid"


@pytest.mark.parametrize("name, path", NULL_IS_AN_ERROR)
def test_null_is_an_error(docs, name, path):
    doc = _edited(docs[name], path, None)
    assert classify(doc) == "agree-invalid"


@pytest.mark.parametrize("name, path", [
    ("BENCH_bdd", ("sift", "stress", "wall_s")),
    ("BENCH_sim", ("backends", "int", "speedup")),
    ("BENCH_serve", ("latency", "mixed", "p50_ms")),
])
def test_a_boolean_is_never_a_number(docs, name, path):
    doc = _edited(docs[name], path, True)
    assert schema_reference.validate_trace(doc) == []
    assert any(".".join(map(str, path[-1:])) in e for e in validate_trace(doc))
    assert classify(doc, [(path, True)]) == "boolean-number"


def test_an_unhashable_root_span_id_is_an_error(docs, tmp_path, capsys):
    doc = _edited(docs["build_jobs2"], ("root_span_id",), ["not", "a", "span"])
    with pytest.raises(TypeError):
        schema_reference.validate_trace(doc)
    assert classify(doc) == "reference-raises"
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid trace document" in err and "root_span_id" in err
    assert "Traceback" not in err
