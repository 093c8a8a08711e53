"""Check reports: stable bodies, content digests, process exit codes.

A report collects the results of one suite run.  The body (suite name,
parameters, check ids, claims, verdicts, certificates) serializes to
canonical JSON and is hashed; wall times ride along for humans but stay
out of the digest, so two runs with the same seed agree byte for byte
on everything the digest covers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_VERDICTS = (PASS, FAIL, INCONCLUSIVE)


def jsonable(value):
    """Recursively coerce a certificate into plain JSON data."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return repr(value)


@dataclass
class CheckResult:
    id: str
    claim: str
    verdict: str
    certificate: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class Report:
    suite: str
    parameters: dict
    checks: list[CheckResult]

    def body(self) -> dict:
        """Everything except timing; the digest is computed over this."""
        return {
            "suite": self.suite,
            "parameters": jsonable(self.parameters),
            "checks": [
                {"id": c.id, "claim": c.claim, "verdict": c.verdict,
                 "certificate": jsonable(c.certificate)}
                for c in self.checks
            ],
        }

    def canonical(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def counts(self) -> dict:
        out = {v: 0 for v in _VERDICTS}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def exit_code(self) -> int:
        """1 on any failure, and on an empty report: zero checks prove nothing."""
        tally = self.counts()
        if tally[FAIL] or not self.checks:
            return 1
        if tally[INCONCLUSIVE]:
            return 2
        return 0

    def to_json(self) -> dict:
        data = self.body()
        for entry, c in zip(data["checks"], self.checks):
            entry["wall_ms"] = round(c.wall_ms, 3)
        data["digest"] = self.digest()
        data["counts"] = self.counts()
        return data

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"{c.verdict:<12} {c.wall_ms:9.1f} ms  {c.id:<36} {c.claim}")
        tally = self.counts()
        out.append(
            f"{self.suite}: {len(self.checks)} checks, "
            f"{tally[PASS]} passed, {tally[FAIL]} failed, "
            f"{tally[INCONCLUSIVE]} inconclusive  "
            f"[digest {self.digest()[:16]}]")
        return out
