"""Verdict oracle and the list of failures the seed code is known to have."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

KNOWN_FAILURES = Path(__file__).resolve().parent / "known_failures.json"


def judge(instance, report, error: Optional[BaseException]) -> Optional[str]:
    """Why a verdict failed, or None when it is correct.

    A verdict fails when the run raised, when its outcome is not one the
    instance expects, or when --check was on and the audit did not
    return ok for both the proof and the reconstruction.
    """
    if error is not None:
        return "raised %s" % type(error).__name__
    if report.outcome not in instance.expect:
        return "outcome %s" % report.outcome
    if instance.check and report.outcome == "proved":
        check = report.check or {}
        if not (check.get("proof") and check.get("reconstruction")):
            return "audit failed"
    return None


def load_known() -> dict[str, str]:
    """Instance id -> failure reason for every known defect."""
    entries = json.loads(KNOWN_FAILURES.read_text())["failures"]
    return {e["instance"]: e["reason"] for e in entries}


def unexpected(failures: dict[str, str], known: dict[str, str]) -> dict[str, str]:
    """Failures that are not listed as known, or fail for another reason."""
    return {i: r for i, r in failures.items() if known.get(i) != r}
