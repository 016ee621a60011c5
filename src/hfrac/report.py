"""Structured verification reports with route-tagged measurements."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from typing import Optional

__all__ = ["Measurement", "VerificationReport"]


@dataclass
class Measurement:
    name: str
    value: float
    route: str = ""            # spectral | kernel | quadrature | grid | exact
    tolerance: Optional[float] = None
    passed: Optional[bool] = None


@dataclass
class VerificationReport:
    suite: str
    inputs: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    measurements: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_time: float = 0.0
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, name, value, route="", tolerance=None, passed=None) -> Measurement:
        if tolerance is not None and passed is None:
            passed = bool(abs(value) <= tolerance)
        m = Measurement(name, float(value), route, tolerance, passed)
        self.measurements.append(m)
        return m

    def require(self, name, ok: bool, route="") -> Measurement:
        m = Measurement(name, float(bool(ok)), route, None, bool(ok))
        self.measurements.append(m)
        return m

    def note(self, text: str) -> None:
        self.notes.append(str(text))

    def finish(self) -> "VerificationReport":
        self.wall_time = time.perf_counter() - self._t0
        return self

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.measurements if m.passed is not None)

    def get(self, name: str) -> Measurement:
        for m in self.measurements:
            if m.name == name:
                return m
        raise KeyError(name)

    def to_dict(self) -> dict:
        d = {
            "suite": self.suite,
            "inputs": self.inputs,
            "quadrature": self.quadrature,
            "measurements": [asdict(m) for m in self.measurements],
            "notes": self.notes,
            "passed": self.passed,
            "wall_time": self.wall_time,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    import numpy as np
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)
