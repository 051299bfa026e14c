"""Named, independently seeded random streams.

Every consumer of randomness in the reproduction (arrival generators,
failure injection, placement jitter, workload synthesis) draws from its own
named stream.  Streams are derived deterministically from a single run seed
and the stream name, so:

* the same run seed reproduces a run exactly;
* adding a new randomness consumer never perturbs existing streams
  (the classic "one shared Random" pitfall in simulators).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.root_seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        return RngRegistry(derive_seed(self.root_seed, f"fork:{name}"))

    # -- state capture / restore (checkpoint & replay) ---------------------

    def getstate(self, name: str) -> Any:
        """The named stream's generator state (creates it on first use,
        so capture-before-first-draw round-trips too)."""
        return self.stream(name).getstate()

    def setstate(self, name: str, state: Any) -> None:
        """Restore one stream to a previously captured state."""
        self.stream(name).setstate(state)

    def capture(self) -> Dict[str, Any]:
        """Snapshot every registered stream's state, keyed by name."""
        return {name: rng.getstate() for name, rng in self._streams.items()}

    def restore(self, states: Dict[str, Any]) -> None:
        """Restore streams from a :meth:`capture` snapshot.

        Streams absent from ``states`` are left alone (they will be
        derived fresh from the root seed on first draw, exactly as in
        the original run); unknown names are created then restored.
        """
        for name in sorted(states):
            self.setstate(name, states[name])

    def state_fingerprint(self) -> str:
        """A stable hex digest over every stream's current state.

        Two registries with the same root seed and draw history agree;
        one extra draw on any stream changes the digest — the per-event
        divergence probe the replay journal records.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.root_seed).encode("utf-8"))
        for name in sorted(self._streams):
            digest.update(name.encode("utf-8"))
            digest.update(repr(self._streams[name].getstate()).encode("utf-8"))
        return digest.hexdigest()
