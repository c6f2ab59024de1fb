"""Headerless graph6 encoding of undirected graphs.

Format: N(v) size prefix, then the upper triangle of the adjacency matrix
read column-wise (x01, x02, x12, x03, ...), packed big-endian into 6-bit
groups, each group offset by 63 into printable ASCII.
"""

from __future__ import annotations

import binascii

from .gf2geom import QuadswitchError
from .srg import Graph


class Graph6Error(QuadswitchError, ValueError):
    pass


def _encode_size(v: int) -> bytes:
    if v <= 62:
        return bytes([v + 63])
    if v <= 258047:
        return bytes([126, (v >> 12) + 63, ((v >> 6) & 63) + 63, (v & 63) + 63])
    raise Graph6Error("vertex counts above 258047 are not supported")


# graph6 packs bits 6 to a character as base64 does, with chr(63 + value) in
# place of the base64 alphabet, so binascii does the packing in C
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
# Bit i of a byte goes to bit 7 - i: the stream is held with its first bit
# lowest, and base64 reads each byte from its top bit.
_REVERSE = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))
# Bits per base64 call: a multiple of 24 (4 characters), so every call but
# the last ends on a whole group, and small enough that the int holding the
# stream of a graph with thousands of vertices stays small.
_CHUNK_BITS = 24 * 1366


def _pack(bits: int, count: int) -> bytes:
    """graph6 characters of the first count bits of a stream held with its
    first bit lowest; count is a multiple of 24."""
    raw = bits.to_bytes(count // 8, "little").translate(_REVERSE)
    return binascii.b2a_base64(raw, newline=False).translate(_TO_GRAPH6)


def encode(g: Graph) -> bytes:
    """graph6 bytes of the adjacency structure (labels are not encoded)."""
    v = g.v
    out = [_encode_size(v)]
    acc = held = 0
    for j in range(1, v):
        # column j: x_0j, x_1j, ..., x_(j-1)j, so bit i of the row is the i-th bit
        acc |= (g.rows[j] & ((1 << j) - 1)) << held
        held += j
        if held >= _CHUNK_BITS:
            cut = held - held % 24
            out.append(_pack(acc & ((1 << cut) - 1), cut))
            acc >>= cut
            held -= cut
    if held:
        out.append(_pack(acc, held + -held % 24)[: (held + 5) // 6])
    return b"".join(out)


def write_files(g: Graph, path: str, files) -> None:
    """Write g to files, the pair `path` (graph6) and `path`.labels (vertex
    index -> point integer) opened for binary writing, and flush both.

    `path` is not read here: perfbench/tracer.py takes it from the call and
    counts graph6.bytes_written as the two files' sizes once it returns."""
    graph_file, labels_file = files
    graph_file.write(encode(g))
    graph_file.write(b"\n")
    labels_file.writelines(b"%d %d\n" % pair for pair in enumerate(g.labels))
    graph_file.flush()
    labels_file.flush()
