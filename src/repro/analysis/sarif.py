"""SARIF 2.1.0 export for simcheck findings.

One run, one tool (``simcheck``), one result per finding — the minimal
valid shape GitHub code scanning and SARIF viewers ingest.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .rules import RULES, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
TOOL_NAME = "simcheck"


def _rule_descriptors(rule_ids: Sequence[str]) -> List[Dict[str, object]]:
    descriptors: List[Dict[str, object]] = []
    for rule_id in sorted(dict.fromkeys(rule_ids)):
        rule = RULES[rule_id]
        descriptors.append(
            {
                "id": rule_id,
                "shortDescription": {"text": rule.summary},
                "help": {"text": rule.hint},
            }
        )
    return descriptors


def sarif_report(findings: Sequence[Finding], tool_version: str = "2.0") -> Dict[str, object]:
    """Findings as a SARIF 2.1.0 log (a JSON-safe dict)."""
    rule_ids = [f.rule_id for f in findings]
    results: List[Dict[str, object]] = []
    for finding in findings:
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": f"{finding.message} (fix: {finding.hint})"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path.replace("\\", "/")},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": tool_version,
                        "rules": _rule_descriptors(rule_ids),
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(path: str, findings: Sequence[Finding]) -> None:
    report = sarif_report(findings)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
