"""Digital Rights Management — "optional in authoring and mandatory for
rendering" (paper §2.1).

A deliberately simple model of the ASF DRM object: content is scrambled
with a keyed XOR keystream; a client can render only after obtaining a
:class:`License` for the content id from the :class:`LicenseServer`.
This is NOT cryptography — it reproduces the *protocol shape* (protected
flag in the header, license acquisition before rendering, per-content
keys), which is all the paper's workflow exercises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from .constants import ASFError
from .wire import Reader, pack_str


class DRMError(ASFError):
    """License/protection failures."""


def _keystream(key: str, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(f"{key}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:length])


def scramble(data: bytes, key: str) -> bytes:
    """Symmetric XOR scrambling (applying twice restores the input)."""
    stream = _keystream(key, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


@dataclass(frozen=True)
class DRMInfo:
    """Header object describing the protection applied to the content."""

    content_id: str
    license_url: str = ""
    algorithm: str = "xor-sha256"

    def __post_init__(self) -> None:
        if not self.content_id:
            raise DRMError("DRM info needs a content id")

    def pack(self) -> bytes:
        return pack_str(self.content_id) + pack_str(self.license_url) + pack_str(
            self.algorithm
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "DRMInfo":
        r = Reader(payload)
        return cls(r.string(), r.string(), r.string())


@dataclass(frozen=True)
class License:
    """The right to render one content id, carrying its descrambling key."""

    content_id: str
    key: str
    user: str


class LicenseServer:
    """Issues per-content keys to entitled users.

    The publisher registers content with :meth:`register`; users are
    entitled with :meth:`entitle`; a player calls :meth:`acquire` before
    rendering protected content — rendering without a license raises
    :class:`DRMError` in :class:`repro.streaming.client.MediaPlayer`.
    """

    def __init__(self) -> None:
        self._keys: Dict[str, str] = {}
        self._entitled: Dict[str, set] = {}

    def register(self, content_id: str) -> str:
        """Create (or return) the key for ``content_id``."""
        if content_id not in self._keys:
            self._keys[content_id] = hashlib.sha256(
                f"key:{content_id}".encode()
            ).hexdigest()[:32]
            self._entitled[content_id] = set()
        return self._keys[content_id]

    def entitle(self, content_id: str, user: str) -> None:
        if content_id not in self._keys:
            raise DRMError(f"unknown content {content_id!r}")
        self._entitled[content_id].add(user)

    def revoke(self, content_id: str, user: str) -> None:
        if content_id not in self._keys:
            raise DRMError(f"unknown content {content_id!r}")
        self._entitled[content_id].discard(user)

    def acquire(self, content_id: str, user: str) -> License:
        if content_id not in self._keys:
            raise DRMError(f"unknown content {content_id!r}")
        if user not in self._entitled[content_id]:
            raise DRMError(f"user {user!r} not entitled to {content_id!r}")
        return License(content_id, self._keys[content_id], user)
