"""Finding reporters: human text and machine JSON.

Both are deterministic: findings arrive pre-sorted from the engine and the
JSON document is emitted with sorted keys, so CI can diff reports directly.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from repro.lint.core import Finding


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines = [finding.format() for finding in findings]
    if findings:
        by_rule = Counter(finding.rule_id for finding in findings)
        breakdown = ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
        lines.append("")
        lines.append(
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
            f"in {files_checked} file{'s' if files_checked != 1 else ''} "
            f"({breakdown})"
        )
    else:
        lines.append(f"clean: 0 findings in {files_checked} files")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Stable JSON document (sorted keys) for CI consumption."""
    document = {
        "files_checked": files_checked,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(document, indent=2, sort_keys=True)
