"""Text, JSON and SARIF renderers for lint and verify reports.

Three machine-readable contracts ride on top of the human listing:

* ``repro-lint-report/v1`` — ``repro lint --json``;
* ``repro-verify-report/v1`` — ``repro verify --json``, the lint shape
  plus scheme/profile and the per-module estimate-vs-measured bound
  tables (registered with the observability schema validators);
* SARIF 2.1.0 — ``--sarif`` on either command, for code-scanning UIs.

All three render from ``report.sorted()`` so the bytes are deterministic
regardless of check execution order (serial or ``--jobs N``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..obs import VERIFY_REPORT_FORMAT as VERIFY_SCHEMA_ID
from .diagnostics import Report, Severity

__all__ = [
    "render_text",
    "render_json",
    "render_verify_json",
    "render_sarif",
    "JSON_SCHEMA_ID",
    "VERIFY_SCHEMA_ID",
]

JSON_SCHEMA_ID = "repro-lint-report/v1"

_SARIF_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def render_text(report: Report, verbose: bool = False) -> str:
    """Human-readable listing, most severe first; INFO only when verbose."""
    lines = []
    shown = 0
    hidden = 0
    for diagnostic in report.sorted():
        if diagnostic.severity <= Severity.INFO and not verbose:
            hidden += 1
            continue
        lines.append(diagnostic.render())
        shown += 1
    counts = report.counts()
    summary = (
        f"{report.design}: {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info"
    )
    if hidden:
        summary += f" ({hidden} info hidden; use --verbose)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: Report, fail_on: str = "error") -> str:
    """The ``repro-lint-report/v1`` JSON document, deterministically ordered."""
    counts = report.counts()
    document = {
        "schema": JSON_SCHEMA_ID,
        "design": report.design,
        "summary": {
            "errors": counts["error"],
            "warnings": counts["warning"],
            "infos": counts["info"],
            "exit_code": report.exit_code(fail_on),
        },
        "diagnostics": _diagnostic_dicts(report),
    }
    return json.dumps(document, indent=2, sort_keys=False)


def _diagnostic_dicts(report: Report) -> List[Dict[str, Any]]:
    return [
        {
            "check": d.check,
            "severity": str(d.severity),
            "layer": d.layer,
            "artifact": d.artifact,
            "location": d.location,
            "message": d.message,
        }
        for d in report.sorted()
    ]


def render_verify_json(report, fail_on: str = "error") -> str:
    """The ``repro-verify-report/v1`` JSON document.

    ``report`` is a :class:`~repro.analysis.runner.VerifyReport`; on top
    of the lint document shape it records the synthesis scheme, the ISA
    profile, and — per successfully built module — the estimator figures
    next to the exact ``analyze_program`` measurements the dataflow
    checks cross-validated.
    """
    counts = report.counts()
    document = {
        "format": VERIFY_SCHEMA_ID,
        "design": report.design,
        "scheme": report.scheme,
        "profile": report.profile,
        "summary": {
            "errors": counts["error"],
            "warnings": counts["warning"],
            "infos": counts["info"],
            "exit_code": report.exit_code(fail_on),
            "modules": len(report.modules),
        },
        "modules": report.modules,
        "diagnostics": _diagnostic_dicts(report),
    }
    return json.dumps(document, indent=2, sort_keys=False)


def render_sarif(report: Report) -> str:
    """A SARIF 2.1.0 log of the report, one run, deterministic bytes."""
    from .registry import all_checks

    descriptions = {c.id: c.description for c in all_checks()}
    ordered = report.sorted()
    rule_ids = sorted({d.check for d in ordered})
    rule_index = {rule: i for i, rule in enumerate(rule_ids)}
    rules = [
        {
            "id": rule,
            "shortDescription": {
                "text": descriptions.get(rule, rule)
            },
        }
        for rule in rule_ids
    ]
    results = [
        {
            "ruleId": d.check,
            "ruleIndex": rule_index[d.check],
            "level": _SARIF_LEVEL[d.severity],
            "message": {"text": d.message},
            "locations": [
                {
                    "logicalLocations": [
                        {
                            "name": d.artifact,
                            "fullyQualifiedName": (
                                f"{d.artifact}:{d.location}"
                                if d.location
                                else d.artifact
                            ),
                        }
                    ]
                }
            ],
            "properties": {"layer": d.layer},
        }
        for d in ordered
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=False)
