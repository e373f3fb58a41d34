"""Output checks: operation accounting, exact digests and golden values.

Every set-up, sample and command is one operation.  An operation fails when
it raises or when any check made inside it fails; ``error_rate`` is failed
over attempted.  Digests hash exact values (every ``Fraction`` as ``p/q``) and
are compared with ``golden.json``, which ``golden.py`` writes.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def canonical(value):
    """JSON-ready form with exact rationals and sorted sets."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(canonical(k)): canonical(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts operations and failed checks; compares or records digests."""

    def __init__(self, golden: dict[str, str] | None) -> None:
        self.golden = golden
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._op_failed = False

    @contextmanager
    def op(self, label: str):
        """One operation; an exception inside is recorded, not raised."""
        self.attempted += 1
        self._op_failed = False
        try:
            yield
        except Exception:  # the benchmark must keep running and report it
            self._fail(f"{label}: {traceback.format_exc(limit=3).strip()}")
        if self._op_failed:
            self.failed += 1

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self._fail(message)
        return bool(condition)

    def same(self, key: str, value) -> None:
        """Exact digest check against the golden value for ``key``."""
        got = digest(value)
        if self.golden is None:
            self.recorded[key] = got
            return
        want = self.golden.get(key)
        self.expect(want is not None, f"no golden digest for {key}")
        if want is not None:
            self.expect(got == want, f"digest of {key} changed")

    def _fail(self, message: str) -> None:
        self._op_failed = True
        if len(self.messages) < 50:
            self.messages.append(message)
