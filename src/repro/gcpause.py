"""Pausing the cyclic garbage collector around an allocation burst."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the duration of the block.

    Parsing, appending, sealing and reopening each allocate tens of
    thousands of long-lived acyclic objects in one burst; a generation
    scan started mid-burst walks them all and frees nothing (reference
    counting still reclaims temporaries).  The previous state comes back
    on the way out, also on an exception or when nested.  Usable as a
    decorator, but never on a generator function: a paused collector
    must not outlive a ``yield``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


__all__ = ["gc_paused"]
