"""Array helpers shared across the package: frozen copies, row-chunk sizes and solve buffers."""

from __future__ import annotations

import errno
import math
import mmap

import numpy as np

# bytes of each temporary of a chunked pass over a matrix's rows. At 11
# sites, 2 MiB temporaries left about 6 MiB of freed heap resident under the
# real solve's copy, and half-matrix temporaries (17 MiB) up to 30 MiB under
# the codec that follows; at 256 KiB the passes also run 1.5-3x faster, in cache
CHUNK_BYTES = 256 << 10


def chunk_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each that fit in ``CHUNK_BYTES``, at least one."""
    return max(1, CHUNK_BYTES // max(1, row_bytes))


def readonly(a) -> np.ndarray:
    """``a`` itself if read-only and owning its data, else a write-protected copy.

    A caller's writable array is never frozen or aliased.
    """
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def untouched_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed column-major array whose pages become resident only when written.

    It is backed by a private anonymous ``mmap``, advised
    ``MADV_NOHUGEPAGE`` where the platform has it: numpy advises huge pages
    for any allocation of 4 MiB or more, and the first write into a 2 MiB
    huge page makes all of it resident. The mapping goes with the array.
    A mapping refused for lack of memory raises ``MemoryError``, as numpy's
    allocations do. Where ``mmap`` has no anonymous mappings, as off Unix,
    the array is numpy's.
    """
    if not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.zeros(shape, dtype, order="F")
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    try:
        # one byte at least: a mapping of none is refused
        memory = mmap.mmap(-1, max(1, size), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except OSError as exc:
        if exc.errno == errno.ENOMEM:
            raise MemoryError(f"cannot map {size} bytes for an array of shape {shape}") from exc
        raise
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        memory.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, dtype, memory, order="F")
