"""Canonical structural fingerprints for spec fragments.

A fingerprint is the determinism identity of a spec fragment (and the
key to deduplicate generated scenarios by): two fragments with the same
*structure* — regardless of how the dicts/kwargs used to build them were
ordered, and regardless of which process computes it — must fingerprint
identically, and any single field change must change it.  The elspeth
middleware lifecycle caches instances by a ``name:options:context``
fingerprint; this module generalises that idiom to every spec fragment.

Canonicalisation rules:

* mappings are sorted by the canonical form of their keys (construction
  order never leaks);
* sets/frozensets are sorted (iteration order never leaks);
* sequences stay ordered — order is semantic for e.g. fault-palette
  draws and middleware chains;
* dataclasses canonicalise as ``(class name, sorted field map)``;
* callables/classes canonicalise as ``module:qualname`` (their default
  ``repr`` embeds ``id()``-derived addresses, which would change across
  processes — exactly the leakage ``repro.lint`` D105 polices);
* anything else must have an address-free ``repr`` or is rejected.

The digest is SHA-256 over the canonical repr — stable across process
restarts and interpreter versions (unlike builtin ``hash``, which is
randomised per process for strings).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

__all__ = ["canonical_repr", "structural_fingerprint"]

_ATOMS = (type(None), bool, int, float, str, bytes)


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a nested tuple form with deterministic repr."""
    if isinstance(value, _ATOMS):
        return (type(value).__name__, value)
    if isinstance(value, (type,)) or callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", getattr(value, "__name__", "?"))
        return ("callable", f"{module}:{qualname}")
    if isinstance(value, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in value.items()]
        return ("map", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in value), key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        }
        return ("data", type(value).__name__, _canonical(fields))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in value))
    text = repr(value)
    if " at 0x" in text:
        raise TypeError(
            f"cannot fingerprint {type(value).__name__}: repr embeds a "
            f"memory address ({text[:60]}...); give it a stable repr or "
            "canonical form"
        )
    return ("repr", type(value).__name__, text)


def canonical_repr(value: Any) -> str:
    """The canonical string form a fingerprint is computed over."""
    return repr(_canonical(value))


def structural_fingerprint(value: Any) -> str:
    """A 16-hex-digit stable digest of ``value``'s structure."""
    digest = hashlib.sha256(canonical_repr(value).encode("utf-8")).hexdigest()
    return digest[:16]
