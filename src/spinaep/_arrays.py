"""Array helper shared by the frozen result types."""

from __future__ import annotations

import numpy as np


def readonly_copy(a: np.ndarray) -> np.ndarray:
    """Write-protected copy of ``a``; the caller's array stays writable."""
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a
