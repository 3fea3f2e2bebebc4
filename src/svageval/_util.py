"""Small shared helpers."""
from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal


def format_fixed(value: float, decimals: int) -> str:
    """Fixed-point string with half-away-from-zero rounding, e.g. 20.680."""
    quantum = Decimal(1).scaleb(-decimals)
    return str(Decimal(value).quantize(quantum, rounding=ROUND_HALF_UP))
