"""Machine-readable verification reports shared by every verifier."""

from __future__ import annotations

import json

from .diagram import InterfaceMismatch

__all__ = ["VerificationReport", "SCHEMA_VERSION", "json_text"]

SCHEMA_VERSION = 1


def json_text(payload) -> str:
    """The JSON text of every report and table tlcat prints or writes:
    indented, keys sorted, and str() of any value JSON has no type for."""
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


class VerificationReport:
    """A suite of named checks with pass/fail records and optional witnesses.

    Serialized reports hold no timing, so repeated runs with the same seed
    produce identical bytes.
    """

    def __init__(self, suite: str):
        self.suite = suite
        self.cases: list = []

    def add(self, identity: str, params: dict, ok: bool, witness: dict | None = None):
        rec = {
            "identity": identity,
            "params": params,
            "status": "pass" if ok else "fail",
        }
        if witness is not None:
            rec["witness"] = witness
        self.cases.append(rec)
        return ok

    def check(self, identity: str, params: dict, lhs, rhs) -> bool:
        """Record lhs == rhs, keeping the offending sides on failure."""
        ok = lhs == rhs
        witness = None
        if not ok:
            witness = {
                "lhs": _show(lhs),
                "rhs": _show(rhs),
                "diff": _diff(lhs, rhs),
            }
        return self.add(identity, params, ok, witness)

    def extend(self, other: "VerificationReport"):
        self.cases.extend(other.cases)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.cases if c["status"] == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.cases if c["status"] == "fail")

    @property
    def ok(self) -> bool:
        return self.n_fail == 0 and self.cases != []

    def failures(self) -> list:
        return [c for c in self.cases if c["status"] == "fail"]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "summary": {
                "total": len(self.cases),
                "pass": self.n_pass,
                "fail": self.n_fail,
            },
            "cases": self.cases,
        }

    def dumps(self) -> str:
        return json_text(self.to_json())

    def summary_line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"[{mark}] {self.suite}: {self.n_pass}/{len(self.cases)} checks passed"

    def __repr__(self):
        return f"VerificationReport({self.summary_line()})"


def _is_matrix(x) -> bool:
    """Whether x is a matrix: a list of sparse rows {column: nonzero entry}."""
    return isinstance(x, list) and all(isinstance(row, dict) for row in x)


def _diff(lhs, rhs):
    """lhs - rhs as text; for two matrices of one height, the list of
    differing entries "(i, j): lhs - rhs" in row order.  None where the two
    sides cannot be subtracted: morphisms of different shapes or domains,
    or anything else without a difference."""
    if _is_matrix(lhs) and _is_matrix(rhs):
        if len(lhs) != len(rhs):
            return None
        return [f"({i}, {j}): {a.get(j, 0) - b.get(j, 0)}"
                for i, (a, b) in enumerate(zip(lhs, rhs))
                for j in sorted(a.keys() | b.keys()) if a.get(j, 0) != b.get(j, 0)]
    try:
        return _show(lhs - rhs)
    except (TypeError, InterfaceMismatch):
        return None


def _show(x):
    """The text of one side: a morphism's to_text, a matrix row by row with
    each entry's str, anything else its str."""
    if hasattr(x, "to_text"):
        return x.to_text()
    if _is_matrix(x):
        rows = (", ".join(f"{j}: {c}" for j, c in sorted(row.items())) for row in x)
        return "[" + ", ".join(f"{{{row}}}" for row in rows) + "]"
    return str(x)
