"""Array helpers shared across the package: frozen copies and row-chunk sizes."""

from __future__ import annotations

import numpy as np

# bytes of each temporary of a chunked pass over a matrix's rows. At 11
# sites, 2 MiB temporaries left about 6 MiB of freed heap resident under the
# real solve's copy, and half-matrix temporaries (17 MiB) up to 30 MiB under
# the codec that follows; at 256 KiB the passes also run 1.5-3x faster, in cache
CHUNK_BYTES = 256 << 10


def chunk_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit in ``CHUNK_BYTES``, at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


def readonly(a) -> np.ndarray:
    """``a`` itself if read-only and owning its data, else a write-protected copy.

    A caller's writable array is never frozen or aliased.
    """
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a
