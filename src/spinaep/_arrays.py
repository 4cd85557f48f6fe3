"""Array helper shared by the frozen result types."""

from __future__ import annotations

import numpy as np


def readonly(a) -> np.ndarray:
    """``a`` itself if read-only and owning its data, else a write-protected copy.

    A caller's writable array is never frozen or aliased.
    """
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a
