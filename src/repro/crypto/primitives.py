"""Virtual cryptographic objects.

Payloads in the simulator carry *sizes*, not bytes, so authentication
tags are structural: each tag records who produced it and whether it is
valid.  Verification in protocol code is then two separate things —

* a **CPU charge** (from :class:`~repro.crypto.costmodel.CryptoCostModel`)
  paid whether or not the tag is valid, which is what flooding attacks
  with invalid messages exploit (§VI-C), and
* a **boolean check** of the tag, which faulty senders can make fail for
  selected verifiers (worst-attack-1 sends requests that *one* node
  cannot verify).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, FrozenSet, Hashable, Optional

__all__ = ["Digest", "Mac", "MacAuthenticator", "Signature"]


class Digest:
    """A collision-resistant digest, modelled structurally.

    Two digests are equal iff they were computed over the same token; the
    Byzantine model forbids forging collisions (§II), so structural
    equality is faithful.

    Immutable, with its hash computed once: a batch digest's token embeds
    every request id of the batch, and quorum trackers hash a
    ``(view, seq, digest)`` key per vote.  The stored value is
    ``hash((token,))`` — exactly what the frozen dataclass this class
    replaced returned — so set and dict iteration order is unchanged.
    """

    __slots__ = ("token", "_hash")

    def __init__(self, token: Hashable):
        object.__setattr__(self, "token", token)
        object.__setattr__(self, "_hash", hash((token,)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.token == other.token

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        # Rebuild through __init__: the hash of a str token differs
        # between interpreter processes, so it is never pickled.
        return (self.__class__, (self.token,))

    def __repr__(self) -> str:
        return "Digest(%r)" % (self.token,)


@dataclass(frozen=True)
class Mac:
    """A MAC from ``signer`` for a single recipient."""

    signer: str
    valid: bool = True


@dataclass(frozen=True)
class MacAuthenticator:
    """An array of per-node MACs (one per recipient, §II).

    ``invalid_for`` lists verifiers whose entry is corrupt.  A Byzantine
    sender can corrupt any subset — e.g. make the entry valid for every
    node except the one hosting the master primary (worst-attack-1).
    ``None`` means valid for everyone (the common case, allocation-free).
    """

    signer: str
    invalid_for: Optional[FrozenSet[str]] = None

    def valid_for(self, verifier: str) -> bool:
        if self.invalid_for is None:
            return True
        return "*" not in self.invalid_for and verifier not in self.invalid_for

    @staticmethod
    def corrupt(signer: str) -> "MacAuthenticator":
        """An authenticator that verifies for nobody (flooding payloads)."""
        return MacAuthenticator(signer=signer, invalid_for=frozenset({"*"}))

    @staticmethod
    def for_signer(signer: str) -> "MacAuthenticator":
        """The interned valid-for-everyone authenticator of ``signer``.

        Authenticators are immutable and compare structurally, so the
        common case — one valid tag per outgoing message — can share a
        single instance per sender instead of allocating per message.
        """
        auth = _VALID_AUTHENTICATORS.get(signer)
        if auth is None:
            auth = _VALID_AUTHENTICATORS[signer] = MacAuthenticator(signer)
        return auth

    def valid_for_any(self) -> bool:
        return self.invalid_for is None or "*" not in self.invalid_for


#: interned valid-for-everyone authenticators, keyed by signer name.
_VALID_AUTHENTICATORS: Dict[str, MacAuthenticator] = {}


@dataclass(frozen=True)
class Signature:
    """A public-key signature by ``signer``.

    Unlike MACs, a valid signature convinces *every* verifier — that is
    the non-repudiation property RBFT needs for forwarded requests
    (§IV-B, step 1).
    """

    signer: str
    valid: bool = True

    @staticmethod
    def for_signer(signer: str) -> "Signature":
        """The interned valid signature of ``signer`` (cf.
        :meth:`MacAuthenticator.for_signer`)."""
        sig = _VALID_SIGNATURES.get(signer)
        if sig is None:
            sig = _VALID_SIGNATURES[signer] = Signature(signer)
        return sig


#: interned valid signatures, keyed by signer name.
_VALID_SIGNATURES: Dict[str, Signature] = {}
