"""Shared client wrappers for Swift tests."""

from __future__ import annotations

from typing import Callable

from repro.errors import ProcessCrashed
from repro.scribe.message import Message
from repro.scribe.store import ScribeStore
from repro.swift.engine import SwiftClient


def crash_after(n: int, inner: Callable[[Message], None],
                scribe: ScribeStore) -> SwiftClient:
    """Wrap a client so it crashes after ``n`` successful messages.

    Raises :class:`ProcessCrashed` on message ``n+1``.
    """
    remaining = [n]

    def client(message: Message) -> None:
        if remaining[0] <= 0:
            raise ProcessCrashed("swift-client", scribe.clock.now())
        inner(message)
        remaining[0] -= 1

    return client
