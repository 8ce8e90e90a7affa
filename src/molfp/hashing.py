"""Stable 32-bit feature hashing.

Every hashed fingerprint family routes its feature tuples through
:func:`stable_hash32` so that outputs are byte-identical across runs,
processes, and platforms.  The hash is CRC-32 over a fixed big-endian
serialization of the integer tuple; it is non-cryptographic and only
needs good dispersion modulo the vector length.  :func:`hash_seed`
gives the CRC state after a fixed prefix of values, so that a family
that keeps its feature codes as packed bytes can hash them as
``zlib.crc32(packed, hash_seed(tag))``, which is ``stable_hash32(tag,
*codes)``.
"""

from __future__ import annotations

import struct
import zlib

# Domain tags keep feature spaces of different families disjoint even
# when their raw tuples coincide.
TAG_ATOM_INVARIANT = 1
TAG_ECFP = 2
TAG_ATOM_TYPE = 3
TAG_ATOM_PAIR = 4
TAG_TORSION = 5
TAG_PATH_ATOM = 6
TAG_PATH = 7


class _Packers(dict):
    """Tuple length -> the ``pack`` of its precompiled ``struct.Struct``,
    built on first use."""

    def __missing__(self, n: int):
        pack = self[n] = struct.Struct(f">{n}q").pack
        return pack


_PACKERS = _Packers()


def stable_hash32(*values: int) -> int:
    """Hash a tuple of integers to a 32-bit code.

    Values may be negative (formal charges); each is packed as a
    big-endian signed 64-bit integer before the CRC.
    """
    return zlib.crc32(_PACKERS[len(values)](*values))


def hash_seed(*prefix: int) -> int:
    """The CRC state after ``prefix``:
    ``zlib.crc32(pack(suffix), hash_seed(*prefix))`` equals
    ``stable_hash32(*prefix, *suffix)`` for ``pack`` the same ``>q``
    serialization.  CRC-32 is a streaming checksum, and ``zlib.crc32``'s
    second argument resumes it from an earlier result, so hashing the
    prefix bytes and then the suffix bytes is hashing their concatenation.
    """
    return stable_hash32(*prefix)
