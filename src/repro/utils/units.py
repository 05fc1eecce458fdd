"""Unit helpers: the library's time unit is seconds, data unit is bytes.

These exist so hardware specs read like their datasheets
(``80 * GB_PER_S``, ``700 * NS``) instead of bare exponents.
"""

from __future__ import annotations

__all__ = [
    "KB", "MB", "GB", "TB",
    "KIB", "MIB", "GIB",
    "NS", "US", "MS",
    "GB_PER_S", "GBIT_PER_S",
    "KILO", "MEGA", "GIGA", "TERA",
    "fmt_bytes", "fmt_time", "size_label",
]

KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

# Decimal byte sizes (datasheet convention for bandwidths).
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12
# Binary byte sizes (memory capacity convention).
KIB = 1024.0
MIB = 1024.0 ** 2
GIB = 1024.0 ** 3

NS = 1e-9
US = 1e-6
MS = 1e-3

GB_PER_S = 1e9            # bytes per second
GBIT_PER_S = 1e9 / 8.0    # bits-per-second link quoted in bytes per second


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (decimal units)."""
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(n) >= unit:
            return f"{n / unit:.2f} {name}"
    return f"{n:.0f} B"


def fmt_time(t: float) -> str:
    """Human-readable duration."""
    if t == 0:
        return "0 s"
    if abs(t) >= 1.0:
        return f"{t:.3f} s"
    if abs(t) >= MS:
        return f"{t / MS:.3f} ms"
    if abs(t) >= US:
        return f"{t / US:.3f} us"
    return f"{t / NS:.1f} ns"


def size_label(*dims: int) -> str:
    """Paper-style configuration label of a matrix shape: ``8k|2k``
    (multiples of 1024 from 1024 up in ``k``, other sizes verbatim)."""
    return "|".join(f"{d // 1024}k" if d % 1024 == 0 and d >= 1024
                    else str(d) for d in dims)
