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
# Bits per base64 call: a multiple of 24 (4 characters), so every call but
# the last ends on a whole group, and small enough that the bit string of a
# graph with thousands of vertices never exists at once.
_CHUNK_BITS = 24 * 1366


def _pack(bits: str) -> bytes:
    """graph6 characters of a '0'/'1' string whose length is a multiple of 24."""
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
    return binascii.b2a_base64(raw, newline=False).translate(_TO_GRAPH6)


def encode(g: Graph) -> bytes:
    """graph6 bytes of the adjacency structure (labels are not encoded)."""
    v = g.v
    out = [_encode_size(v)]
    pending: list[str] = []
    held = 0
    for j in range(1, v):
        # column j: x_0j, x_1j, ..., x_(j-1)j
        pending.append(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1])
        held += j
        if held >= _CHUNK_BITS:
            bits = "".join(pending)
            cut = held - held % 24
            out.append(_pack(bits[:cut]))
            pending = [bits[cut:]]
            held -= cut
    if held:
        out.append(_pack("".join(pending) + "0" * (-held % 24))[: (held + 5) // 6])
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
