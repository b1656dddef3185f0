"""Machine-readable emitters shared by lint and dataflow: JSON and SARIF.

``to_json`` is the analyzer's own stable schema (``repro-analyze/2``:
findings and a severity summary); ``to_sarif`` targets SARIF
2.1.0 so CI systems can annotate pull requests with file/line-accurate
findings (severity mapping: error->``error``, warning->``warning``,
info->``note``).

All emitters sort findings by (path, line, rule, message) so the
documents are byte-identical across runs regardless of which pass
(intra- or interprocedural) produced a finding first.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analyze.findings import RULES, SEVERITIES, Finding, Report

JSON_SCHEMA = "repro-analyze/2"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def _ordered(report: Report) -> List[Finding]:
    """Deterministic emission order, independent of discovery order."""
    return sorted(report, key=lambda f: (f.location, f.line or 0, f.rule,
                                         f.message))


def report_to_dicts(report: Report) -> List[Dict[str, Any]]:
    return [
        {
            "rule": f.rule,
            "severity": f.severity,
            "message": f.message,
            "path": f.location,
            "line": f.line,
        }
        for f in _ordered(report)
    ]


def to_json(report: Report, indent: int = 2) -> str:
    """The analyzer's own JSON schema, findings + summary."""
    doc = {
        "schema": JSON_SCHEMA,
        "findings": report_to_dicts(report),
        "summary": {
            **{s: report.count(s) for s in SEVERITIES},
            "total": len(report),
            "ok": report.ok,
        },
    }
    return json.dumps(doc, indent=indent)


def _sarif_rules(report: Report) -> List[Dict[str, Any]]:
    used = sorted({f.rule for f in report})
    out = []
    for rule in used:
        severity, summary = RULES[rule]
        out.append({
            "id": rule,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS[severity],
            },
        })
    return out


def to_sarif(report: Report, tool_version: str = "1.0.0",
             indent: int = 2) -> str:
    """SARIF 2.1.0 for CI annotation upload."""
    results = []
    for f in _ordered(report):
        result: Dict[str, Any] = {
            "ruleId": f.rule,
            "level": _SARIF_LEVELS[f.severity],
            "message": {"text": f.message},
        }
        if f.location:
            physical: Dict[str, Any] = {
                "artifactLocation": {
                    "uri": f.location.replace("\\", "/"),
                },
            }
            if f.line is not None:
                physical["region"] = {"startLine": int(f.line)}
            result["locations"] = [{"physicalLocation": physical}]
        results.append(result)
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analyze",
                        "informationUri":
                            "https://example.invalid/repro-analyze",
                        "version": tool_version,
                        "rules": _sarif_rules(report),
                    },
                },
                "results": results,
            },
        ],
    }
    return json.dumps(doc, indent=indent)


__all__ = ["JSON_SCHEMA", "SARIF_VERSION", "report_to_dicts", "to_json",
           "to_sarif"]
