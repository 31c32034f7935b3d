"""Structured pass/fail results with symbolic witnesses.

Every verification in the package returns a CheckReport.  A failing check
always carries at least one witness: the identity that broke, the inputs it
broke on, and the nonzero symbolic difference, printed in normal form so
reports are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
ERROR = "error"


@dataclass
class Witness:
    identity: str
    inputs: str
    difference: str

    def to_dict(self) -> dict:
        return {"identity": self.identity, "inputs": self.inputs, "difference": self.difference}


@dataclass
class CheckReport:
    name: str
    statement: str
    status: str
    witnesses: List[Witness] = field(default_factory=list)
    details: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
            "details": list(self.details),
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    @property
    def passed(self) -> bool:
        return self.status == PASS


class Checker:
    """Accumulates sub-check outcomes into one CheckReport."""

    def __init__(self, name: str, statement: str):
        self.name = name
        self.statement = statement
        self.witnesses: List[Witness] = []
        self.details: List[str] = []
        self._sub_status: dict = {}
        self._errored = False

    def record(self, identity: str, inputs: str, difference) -> bool:
        """Record one equality outcome; difference must be zero to pass."""
        is_zero = difference.is_zero()
        if not is_zero:
            self.witnesses.append(Witness(identity, inputs, str(difference)))
        self._mark(identity, is_zero)
        return is_zero

    def require(self, identity: str, inputs: str, condition: bool, note: str = "violated") -> bool:
        if not condition:
            self.witnesses.append(Witness(identity, inputs, note))
        self._mark(identity, condition)
        return condition

    def relay(self, identity: str, nested: CheckReport, inputs: str) -> None:
        """Record each witness of a nested report under identity, or one
        passing case on inputs when the nested report passed."""
        for witness in nested.witnesses:
            self.require(identity, witness.inputs, False, witness.difference)
        if nested.passed:
            self.require(identity, inputs, True)

    def error(self, identity: str, inputs: str, message: str) -> None:
        self.witnesses.append(Witness(identity, inputs, message))
        self._mark(identity, False)
        self._errored = True

    def note(self, line: str) -> None:
        self.details.append(line)

    def _mark(self, identity: str, ok: bool) -> None:
        self._sub_status[identity] = self._sub_status.get(identity, True) and ok

    def sub_passed(self, identity: str) -> bool:
        return self._sub_status.get(identity, True)

    def all_passed(self) -> bool:
        return all(self._sub_status.values()) and not self._errored

    def report(self, status: str | None = None) -> CheckReport:
        """The report; with no status given, a check that recorded no case
        at all is not-applicable, never a vacuous pass."""
        for identity in self._sub_status:
            self.details.append(f"{identity}: {'pass' if self._sub_status[identity] else 'FAIL'}")
        if status is None:
            if self._errored:
                status = ERROR
            elif not self._sub_status:
                status = NOT_APPLICABLE
                self.details.append("no cases evaluated")
            else:
                status = PASS if self.all_passed() else FAIL
        return CheckReport(self.name, self.statement, status, self.witnesses, self.details)
