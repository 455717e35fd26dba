"""Verification reports shared by all checkers, and the one timer they use."""

from __future__ import annotations

import functools
import time


class VerificationReport:
    """Outcome of one mechanical check.

    claim is a stable human-readable identifier, parameters echo the inputs,
    and witness carries the offending data when the verdict is False (or
    supporting data worth reporting on success).  notes flag anything the
    reader should know, e.g. that a constant was derived rather than imposed.
    """

    def __init__(self, claim: str, verdict: bool, parameters: dict | None = None,
                 witness: dict | None = None, seed: int | None = None,
                 notes: list | None = None, details: dict | None = None):
        self.claim = claim
        self.verdict = verdict
        self.parameters = {} if parameters is None else parameters
        self.witness = witness
        self.timing_ms = 0  # set by timed
        self.seed = seed
        self.notes = [] if notes is None else notes
        self.details = details

    def __repr__(self) -> str:
        return ("VerificationReport(claim=%r, verdict=%r, parameters=%r, witness=%r, timing_ms=%r, "
                "seed=%r, notes=%r, details=%r)" % (
                    self.claim, self.verdict, self.parameters, self.witness, self.timing_ms,
                    self.seed, self.notes, self.details))

    def to_obj(self) -> dict:
        obj = {
            "claim": self.claim,
            "verdict": self.verdict,
            "parameters": self.parameters,
            "timing_ms": self.timing_ms,
            "seed": self.seed,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.notes:
            obj["notes"] = list(self.notes)
        if self.details is not None:
            obj["details"] = self.details
        return obj

    def summary(self) -> str:
        return "%s  %s" % ("PASS" if self.verdict else "FAIL", self.claim)


def timed(check):
    """Decorate a check so that its report's timing_ms is the wall time of
    the whole call."""
    @functools.wraps(check)
    def run(*args, **kwargs):
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.timing_ms = int((time.perf_counter() - start) * 1000)
        return report
    return run
