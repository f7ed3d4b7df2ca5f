"""Result containers shared by the solver and the closed forms."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .verify import Witness, witness_to_dict


class FormulaTrace(NamedTuple):
    """Intermediate values behind a closed-form evaluation.

    ``k_star`` is a minimizer of s(k) (the loop optimizer reports the
    smallest one); the ``*_at`` fields are evaluated at ``k_star``.
    ``ceil_x_star`` is filled only in the four-case otherwise branch.
    """

    n: int
    m: Optional[int] = None
    case_label: Optional[str] = None
    k_star: Optional[int] = None
    ceil_x_star: Optional[int] = None
    f_at: Optional[int] = None
    g_at: Optional[int] = None
    F_at: Optional[int] = None
    G_at: Optional[int] = None
    s_at: Optional[int] = None


class CrownSplit(NamedTuple("CrownSplit", [("p", int), ("q", int)])):
    """Selected-vertex counts on the two sides; always within one of each other."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if abs(p - q) > 1:
            raise ValueError("split sides must differ by at most 1")
        return super().__new__(cls, p, q)


class SgResult(NamedTuple):
    value: int
    method: str  # exact | closed_form
    witness: Optional[Witness] = None
    trace: Optional[FormulaTrace] = None
    split: Optional[CrownSplit] = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "witness": witness_to_dict(self.witness) if self.witness else None,
            "trace": self.trace._asdict() if self.trace else None,
            "split": [self.split.p, self.split.q] if self.split else None,
        }
