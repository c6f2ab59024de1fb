"""Headerless graph6 encoding of undirected graphs.

Format: N(v) size prefix, then the upper triangle of the adjacency matrix
read column-wise (x01, x02, x12, x03, ...), packed big-endian into 6-bit
groups, each group offset by 63 into printable ASCII.
"""

from __future__ import annotations

import binascii

from .srg import Graph


class Graph6Error(ValueError):
    pass


def _encode_size(v: int) -> bytes:
    if v < 0:
        raise Graph6Error("negative vertex count")
    if v <= 62:
        return bytes([v + 63])
    if v <= 258047:
        return bytes([126, (v >> 12) + 63, ((v >> 6) & 63) + 63, (v & 63) + 63])
    raise Graph6Error("vertex counts above 258047 are not supported")


def _decode_size(data: bytes) -> tuple[int, int]:
    if not data:
        raise Graph6Error("empty graph6 data")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4 or data[1] == 126:
        raise Graph6Error("unsupported or truncated size prefix")
    v = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return v, 4


# graph6 packs bits 6 to a character as base64 does, with chr(63 + value) in
# place of the base64 alphabet, so binascii does the packing in C
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_ALPHABET = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _ALPHABET)
_TO_BASE64 = bytes.maketrans(_ALPHABET, _BASE64)
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


def decode(data: bytes, labels=None) -> Graph:
    """Graph from graph6 bytes; labels default to 1..v and must be strictly
    increasing, as Graph.index_of relies on."""
    data = data.strip()
    v, pos = _decode_size(data)
    need = (v * (v - 1) // 2 + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise Graph6Error(f"body has {len(body)} groups, expected {need}")
    stray = body.translate(None, _ALPHABET)
    if stray:
        raise Graph6Error(f"byte {stray[0]} outside the graph6 alphabet")
    raw = binascii.a2b_base64(body.translate(_TO_BASE64) + b"A" * (-len(body) % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    # column j (x_0j .. x_(j-1)j) starts at bit j(j-1)/2
    starts = [j * (j - 1) // 2 for j in range(v)]
    rows = []
    for i in range(v):
        above = "".join(bits[starts[j] + i] for j in range(v - 1, i, -1))
        below = bits[starts[i] : starts[i] + i][::-1]
        rows.append(int(above + "0" + below, 2))
    if labels is None:
        labels = tuple(range(1, v + 1))
    else:
        labels = tuple(labels)
        if len(labels) != v:
            raise Graph6Error("label count does not match the vertex count")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise Graph6Error("labels must be strictly increasing")
    return Graph(labels, tuple(rows))


def write_files(g: Graph, path: str) -> None:
    """Write `path` (graph6) and `path`.labels (vertex index -> point integer)."""
    with open(path, "wb") as fh:
        fh.write(encode(g))
        fh.write(b"\n")
    with open(path + ".labels", "w", encoding="ascii") as fh:
        for i, p in enumerate(g.labels):
            fh.write(f"{i} {p}\n")


def read_files(path: str) -> Graph:
    """Inverse of write_files; line i of the .labels file must be "i point"."""
    with open(path, "rb") as fh:
        data = fh.read()
    labels = []
    with open(path + ".labels", "r", encoding="ascii") as fh:
        for i, line in enumerate(fh):
            fields = line.split()
            if len(fields) != 2 or fields[0] != str(i):
                raise Graph6Error(f"{path}.labels line {i + 1} is not '{i} <point>': {line!r}")
            if not fields[1].isdigit() or int(fields[1]) == 0:
                raise Graph6Error(f"{path}.labels line {i + 1} names no point: {line!r}")
            labels.append(int(fields[1]))
    return decode(data, labels)
