"""From-scratch Zstandard codec (RFC 8878) — makes ``GTiff
(compress='zstd')`` a working codec instead of an external-codec seam
(reference options.py:66-80 lists ZSTD in the GTiff compression enum;
options.py previously raised NotImplementedError for it).

Same ethos as the in-repo JPEG 2000 / LERC codecs: no external
library, the wire format is the published spec, and every decoder
path the encoder can emit is exercised by byte round-trips.

Decoder (``zstd_decompress``) covers the single-frame no-dictionary
surface of RFC 8878:

- frame header (single-segment or windowed, all content-size widths),
- raw / RLE / compressed blocks,
- literals: raw, RLE, Huffman-compressed (1-stream and 4-stream) and
  treeless (repeat the previous table),
- Huffman table descriptions in both encodings: direct 4-bit weights
  and FSE-compressed weights,
- sequences: predefined / RLE / FSE-compressed / repeat table modes
  for all three code streams, full repeat-offset history semantics
  (including the literals-length-0 shift and the rep1-1 case),
- xxhash64 content-checksum verification.

Encoder (``zstd_compress``) is a real compressor: greedy hash-table
LZ (min-match 3, repeat-offset-1 reuse), Huffman-coded literals
(direct or FSE-compressed weights, 1 or 4 streams), sequence codes
FSE-coded with predefined tables or block-custom normalized tables,
RLE blocks/literals, and raw fallbacks wherever coding would expand.

Skew note: interleaved-bitstream layouts (literals 4-stream jump
table, backward bit order, FSE state init order LL->OF->ML) follow
RFC 8878 section 3; the predefined distributions and the
baseline/extra-bit tables for literal-length, match-length and
offset codes are transcribed from RFC 8878 sections 3.1.1.3.2.1-2.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

_MAGIC = 0xFD2FB528
_MAX_BLOCK = 128 * 1024

# ---------------------------------------------------------------------------
# xxhash64 (content checksum: low 32 bits of XXH64(content, seed=0))
# ---------------------------------------------------------------------------

_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5
_M64 = (1 << 64) - 1


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def _xxh_round(acc: int, inp: int) -> int:
    acc = (acc + inp * _P2) & _M64
    return (_rotl(acc, 31) * _P1) & _M64


def xxh64(data: bytes, seed: int = 0) -> int:
    n = len(data)
    pos = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _M64
        v2 = (seed + _P2) & _M64
        v3 = seed
        v4 = (seed - _P1) & _M64
        while pos + 32 <= n:
            lanes = struct.unpack_from("<4Q", data, pos)
            v1, v2 = _xxh_round(v1, lanes[0]), _xxh_round(v2, lanes[1])
            v3, v4 = _xxh_round(v3, lanes[2]), _xxh_round(v4, lanes[3])
            pos += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M64
        for v in (v1, v2, v3, v4):
            h = ((h ^ _xxh_round(0, v)) * _P1 + _P4) & _M64
    else:
        h = (seed + _P5) & _M64
    h = (h + n) & _M64
    while pos + 8 <= n:
        (k,) = struct.unpack_from("<Q", data, pos)
        h = (_rotl(h ^ _xxh_round(0, k), 27) * _P1 + _P4) & _M64
        pos += 8
    if pos + 4 <= n:
        (k,) = struct.unpack_from("<I", data, pos)
        h = (_rotl(h ^ (k * _P1) & _M64, 23) * _P2 + _P3) & _M64
        pos += 4
    while pos < n:
        h = (_rotl(h ^ (data[pos] * _P5) & _M64, 11) * _P1) & _M64
        pos += 1
    h ^= h >> 33
    h = (h * _P2) & _M64
    h ^= h >> 29
    h = (h * _P3) & _M64
    h ^= h >> 32
    return h


# ---------------------------------------------------------------------------
# Bit I/O.  Zstd bitstreams are written forward (values packed at
# increasing bit positions, bytes little-endian) and READ BACKWARD
# starting from a final 1-bit sentinel; the reader therefore returns
# writes in reverse order.  The forward FSE-table-description reader
# is separate (little-endian, forward).
# ---------------------------------------------------------------------------


class _FwdBitWriter:
    """Forward accumulation; reader consumes writes last-to-first."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nacc = 0

    def add(self, value: int, nbits: int) -> None:
        self.acc |= (value & ((1 << nbits) - 1)) << self.nacc
        self.nacc += nbits
        while self.nacc >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nacc -= 8

    def close(self) -> bytes:
        self.add(1, 1)  # end-of-stream sentinel bit
        if self.nacc:
            self.buf.append(self.acc & 0xFF)
            self.acc = 0
            self.nacc = 0
        return bytes(self.buf)


class _BwdBitReader:
    """Reads a sentinel-terminated stream from the end backward."""

    def __init__(self, data: bytes):
        if not data or data[-1] == 0:
            raise ValueError("zstd: corrupt bitstream (no sentinel)")
        self.data = data
        self.byte = len(data) - 1
        last = data[-1]
        self.nacc = last.bit_length() - 1  # strip sentinel
        self.acc = last & ((1 << self.nacc) - 1)
        self.overread = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        while self.nacc < n:
            if self.byte > 0:
                self.byte -= 1
                self.acc = (self.acc << 8) | self.data[self.byte]
            else:
                self.acc <<= 8  # spec-permitted zero padding at start
                self.overread += 8
                if self.overread > 64:
                    raise ValueError("zstd: bitstream over-read")
            self.nacc += 8
        self.nacc -= n
        v = (self.acc >> self.nacc) & ((1 << n) - 1)
        self.acc &= (1 << self.nacc) - 1
        return v

    def finished(self) -> bool:
        return self.byte == 0 and self.nacc == 0


# ---------------------------------------------------------------------------
# FSE (tANS): table spread, decode table, encode via reverse walk,
# normalized-count header (read + write)
# ---------------------------------------------------------------------------


def _fse_spread(norm: List[int], table_log: int) -> np.ndarray:
    size = 1 << table_log
    table = np.zeros(size, np.int32)
    high = size - 1
    for s, c in enumerate(norm):
        if c == -1:
            table[high] = s
            high -= 1
    step = (size >> 1) + (size >> 3) + 3
    mask = size - 1
    pos = 0
    for s, c in enumerate(norm):
        for _ in range(max(c, 0)):
            table[pos] = s
            pos = (pos + step) & mask
            while pos > high:
                pos = (pos + step) & mask
    if pos != 0:
        raise ValueError("zstd: corrupt FSE distribution")
    return table


class _FSETable:
    """Decode table + the reverse-walk structures used for encoding."""

    def __init__(self, norm: List[int], table_log: int):
        self.table_log = table_log
        size = 1 << table_log
        spread = _fse_spread(norm, table_log)
        self.symbol = spread
        self.nb_bits = np.zeros(size, np.int32)
        self.new_state = np.zeros(size, np.int32)
        nxt = [max(c, 0) if c != -1 else 1 for c in norm]
        for u in range(size):
            s = int(spread[u])
            x = nxt[s]
            nxt[s] += 1
            nb = table_log - (x.bit_length() - 1)
            self.nb_bits[u] = nb
            self.new_state[u] = (x << nb) - size
        # encode view: per symbol, cells sorted by new_state base
        self.enc: Dict[int, List[Tuple[int, int, int]]] = {}
        for u in range(size):
            self.enc.setdefault(int(spread[u]), []).append(
                (int(self.new_state[u]), int(self.nb_bits[u]), u)
            )
        for cells in self.enc.values():
            cells.sort()

    def encode_cell(self, symbol: int, state: int) -> Tuple[int, int, int]:
        """-> (cell index = next state, bits value, nbits) such that
        decoding from `cell` reads `bits` and lands on `state`."""
        cells = self.enc.get(symbol)
        if not cells:
            raise ValueError(f"zstd: symbol {symbol} has no FSE slot")
        lo, hi = 0, len(cells) - 1
        while lo < hi:  # last cell with base <= state
            mid = (lo + hi + 1) >> 1
            if cells[mid][0] <= state:
                lo = mid
            else:
                hi = mid - 1
        base, nb, cell = cells[lo]
        if not (base <= state < base + (1 << nb)):
            raise ValueError("zstd: FSE encode state out of range")
        return cell, state - base, nb

    def first_cell(self, symbol: int) -> int:
        """An init cell for `symbol`, preferring nb_bits > 0: the
        weight-stream decoder terminates on `remaining < nb_bits` of
        the final states, so a 0-bit final state (possible when a
        symbol owns more than half the table) would never stop it."""
        for base, nb, cell in self.enc[symbol]:
            if nb > 0:
                return cell
        return self.enc[symbol][0][2]


def _fse_read_ncount(data: bytes, pos: int, max_symbol: int,
                     max_log: int) -> Tuple[List[int], int, int]:
    """Forward little-endian normalized-count header (RFC 8878
    section 4.1.1) -> (norm, table_log, new byte pos)."""
    bitpos = 0

    def peek(n: int) -> int:
        byte0 = pos + (bitpos >> 3)
        chunk = int.from_bytes(data[byte0:byte0 + 4].ljust(4, b"\0"), "little")
        return (chunk >> (bitpos & 7)) & ((1 << n) - 1)

    table_log = peek(4) + 5
    bitpos += 4
    if table_log > max_log:
        raise ValueError("zstd: FSE accuracy log too large")
    size = 1 << table_log
    remaining = size + 1
    threshold = size
    nbits = table_log + 1
    norm: List[int] = []
    prev0 = False
    while remaining > 1 and len(norm) <= max_symbol:
        if prev0:
            # runs of zero-probability symbols: 2-bit repeat flags
            while peek(2) == 3:
                bitpos += 2
                norm.extend([0, 0, 0])
            rep = peek(2)
            bitpos += 2
            norm.extend([0] * rep)
            prev0 = False
            if len(norm) > max_symbol:
                break
            continue
        maxv = (2 * threshold - 1) - remaining
        val = peek(nbits)
        if (val & (threshold - 1)) < maxv:
            val &= threshold - 1
            bitpos += nbits - 1
        else:
            val &= 2 * threshold - 1
            if val >= threshold:
                val -= maxv
            bitpos += nbits
        count = val - 1  # -1 encodes "less than 1" probability
        remaining -= -count if count < 0 else count
        norm.append(count)
        if count == 0:
            prev0 = True
        while remaining < threshold:
            nbits -= 1
            threshold >>= 1
    if remaining != 1:
        raise ValueError("zstd: corrupt FSE normalized counts")
    norm.extend([0] * (max_symbol + 1 - len(norm)))
    return norm, table_log, pos + ((bitpos + 7) >> 3)


def _fse_write_ncount(norm: List[int], table_log: int) -> bytes:
    """Inverse of _fse_read_ncount (libzstd FSE_writeNCount layout)."""
    w_bits: List[Tuple[int, int]] = [(table_log - 5, 4)]
    size = 1 << table_log
    remaining = size + 1
    threshold = size
    nbits = table_log + 1
    i = 0
    # trim trailing zeros — the reader stops once remaining hits 1
    last = len(norm)
    while last > 0 and norm[last - 1] == 0:
        last -= 1
    while remaining > 1 and i < last:
        c = norm[i]
        maxv = (2 * threshold - 1) - remaining
        val = c + 1  # -1 ("less than 1") encodes as 0
        if val >= threshold:
            val += maxv
        if val < maxv:
            w_bits.append((val, nbits - 1))
        else:
            w_bits.append((val, nbits))
        remaining -= -c if c < 0 else c
        i += 1
        if c == 0:
            # emit zero-run repeat flags for the zeros that follow
            run = 0
            while i < last and norm[i] == 0:
                run += 1
                i += 1
            while run >= 3:
                w_bits.append((3, 2))
                run -= 3
            w_bits.append((run, 2))
        while remaining < threshold:
            nbits -= 1
            threshold >>= 1
    # pack little-endian forward
    acc = 0
    pos_bits = 0
    out = bytearray()
    for value, n in w_bits:
        acc |= (value & ((1 << n) - 1)) << pos_bits
        pos_bits += n
        while pos_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            pos_bits -= 8
    if pos_bits:
        out.append(acc & 0xFF)
    return bytes(out)


def _fse_normalize(counts: np.ndarray, table_log: int) -> List[int]:
    """Scale histogram to 2**table_log with every present symbol >= 1
    (largest-remainder; drift absorbed by the most frequent symbol)."""
    total = int(counts.sum())
    size = 1 << table_log
    norm = np.zeros(len(counts), np.int64)
    nz = counts > 0
    scaled = counts[nz].astype(np.float64) * size / total
    vals = np.maximum(1, np.floor(scaled)).astype(np.int64)
    norm[nz] = vals
    drift = size - int(norm.sum())
    order = np.argsort(-(counts - norm * (total / size)))
    k = 0
    while drift != 0:
        s = int(order[k % len(order)])
        if counts[s] > 0:
            if drift > 0:
                norm[s] += 1
                drift -= 1
            elif norm[s] > 1:
                norm[s] -= 1
                drift += 1
        k += 1
        if k > 16 * len(order):
            raise ValueError("zstd: normalization failed")
    return [int(v) for v in norm]


# ---------------------------------------------------------------------------
# Huffman (literals): canonical weights, direct + FSE-compressed
# descriptions, backward-bitstream encode/decode
# ---------------------------------------------------------------------------


class _HufTable:
    def __init__(self, weights: List[int]):
        """weights: per-symbol, 0 = absent.  Bit length of symbol s is
        table_log + 1 - weight[s]."""
        total = sum((1 << (w - 1)) for w in weights if w)
        if total == 0 or total & (total - 1):
            raise ValueError("zstd: Huffman weights do not sum to a power of 2")
        self.table_log = total.bit_length() - 1
        if self.table_log > 11:
            raise ValueError("zstd: Huffman table log > 11")
        self.weights = weights
        size = 1 << self.table_log
        self.sym = np.zeros(size, np.uint8)
        self.len = np.zeros(size, np.uint8)
        # rank start positions: lower weight (longer code) first
        rank = [0] * (self.table_log + 2)
        start = 0
        counts = [0] * (self.table_log + 2)
        for w in weights:
            if w:
                counts[w] += 1
        for w in range(1, self.table_log + 2):
            rank[w] = start
            start += counts[w] << (w - 1)
        self.code: Dict[int, Tuple[int, int]] = {}
        for s, w in enumerate(weights):
            if not w:
                continue
            run = 1 << (w - 1)
            nb = self.table_log + 1 - w
            self.sym[rank[w]:rank[w] + run] = s
            self.len[rank[w]:rank[w] + run] = nb
            self.code[s] = (rank[w] >> (w - 1), nb)
            rank[w] += run

    def decode_stream(self, br: _BwdBitReader, n_out: int) -> bytearray:
        out = bytearray(n_out)
        tl = self.table_log
        sym, ln = self.sym, self.len
        acc_read = br.read
        for i in range(n_out):
            idx = acc_read(tl)
            s = sym[idx]
            nb = ln[idx]
            if nb < tl:  # give back the unused low bits
                br.nacc += tl - nb
                br.acc = (br.acc & ((1 << br.nacc) - 1)) | (
                    (idx & ((1 << (tl - nb)) - 1)) << (br.nacc - (tl - nb))
                )
            out[i] = s
        return out

    def encode_stream(self, data: bytes) -> bytes:
        w = _FwdBitWriter()
        code = self.code
        # symbols written in reverse so the backward reader sees them
        # in forward order
        for b in reversed(data):
            v, nb = code[b]
            w.add(v, nb)
        return w.close()


def _huf_weights_for(counts: np.ndarray, limit: int = 11) -> Optional[List[int]]:
    """Optimal length-limited Huffman code lengths (shared
    package-merge, kernels/huffman.py), converted to zstd weights.
    Kraft equality (and therefore the power-of-two slot sum the table
    needs) holds by construction.  Returns None when <2 distinct
    symbols (caller uses RLE/raw)."""
    from gdal_boots_ray.kernels.huffman import package_merge_lengths

    length = package_merge_lengths(counts, limit)
    if length is None:
        return None
    max_len = max(length.values())
    weights = [0] * (max(length) + 1)
    for s, l in length.items():
        weights[s] = max_len + 1 - l
    total_slots = sum(1 << (w - 1) for w in weights if w)
    if total_slots & (total_slots - 1):  # defensive: should never fire
        return None
    return weights


def _huf_write_description(weights: List[int]) -> Optional[bytes]:
    """Last present symbol's weight is implicit (it completes the
    power-of-2 sum); try FSE-compressed weights, fall back to direct
    4-bit packing.  Direct packing caps at 128 explicit weights
    (headerByte = 127 + n), so wide alphabets REQUIRE the FSE form —
    returns None when neither representation fits (caller emits raw
    literals instead)."""
    last = max(s for s, w in enumerate(weights) if w)
    explicit = weights[:last]  # weights for symbols 0..last-1
    n = len(explicit)
    direct = None
    if n <= 128:
        direct = bytearray([127 + n])
        for i in range(0, n, 2):
            hi = explicit[i] << 4
            lo = explicit[i + 1] if i + 1 < n else 0
            direct.append(hi | lo)
    if n >= 2 and max(explicit) <= 15:
        counts = np.bincount(np.asarray(explicit, np.int64), minlength=1)
        if np.count_nonzero(counts) >= 2:
            try:
                log = 5 if np.count_nonzero(counts) <= 32 else 6
                norm = _fse_normalize(counts.astype(np.int64), log)
                table = _FSETable(norm, log)
                header = _fse_write_ncount(norm, log)
                body = _fse_encode_weights(explicit, table)
                fse_desc = bytes([len(header) + len(body)]) + header + body
                if len(header) + len(body) < 128 and (
                    direct is None or len(fse_desc) < len(direct)
                ):
                    return fse_desc
            except ValueError:
                pass
    return bytes(direct) if direct is not None else None


def _fse_encode_weights(symbols: List[int], table: _FSETable) -> bytes:
    """Two interleaved FSE states (even/odd positions), per RFC 8878
    4.2.1.2: decoder alternates states starting with state1."""
    # decoder read order: init state1, init state2, then alternately
    # emit from state1/state2, each emit followed by that state's
    # transition bits.  Build the decoder-read list then reverse-write.
    tl = table.table_log
    n = len(symbols)
    # simulate decode in reverse: states walk backward
    reads: List[Tuple[int, int]] = []  # decoder-read order
    # assign final states: walk symbols backward building transitions
    # decoder: s1 emits symbols[0], s2 emits symbols[1], s1 emits [2]...
    # reverse construction: start from arbitrary valid final cells.
    state = [0, 0]
    inited = [False, False]
    trans: List[Tuple[int, int]] = []
    for i in range(n - 1, -1, -1):
        which = i & 1
        if not inited[which]:
            state[which] = table.first_cell(symbols[i])
            inited[which] = True
        else:
            cell, bits, nb = table.encode_cell(symbols[i], state[which])
            trans.append((bits, nb))
            state[which] = cell
    reads.append((state[0], tl))  # decoder reads state1 first
    reads.append((state[1] if inited[1] else 0, tl))
    # transitions were collected in reverse decode order already
    reads.extend(reversed(trans))
    w = _FwdBitWriter()
    for v, nb in reversed(reads):
        w.add(v, nb)
    return w.close()


def _fse_decode_weights(data: bytes, n_weights_max: int = 255) -> List[int]:
    """FSE-compressed Huffman weights (headerByte < 128 payload):
    two interleaved states alternate emitting; when the bitstream
    cannot fund the next state update, both states emit their final
    symbol and decoding ends (RFC 8878 4.2.1.2)."""
    norm, log, pos = _fse_read_ncount(data, 0, 15, 6)
    table = _FSETable(norm, log)
    br = _BwdBitReader(data[pos:])
    states = [br.read(log), br.read(log)]
    weights: List[int] = []
    cur = 0
    while True:
        st = states[cur]
        weights.append(int(table.symbol[st]))
        nb = int(table.nb_bits[st])
        if br.byte * 8 + br.nacc < nb:
            weights.append(int(table.symbol[states[1 - cur]]))
            break
        states[cur] = int(table.new_state[st]) + br.read(nb)
        cur ^= 1
        if len(weights) > n_weights_max:
            raise ValueError("zstd: runaway Huffman weight stream")
    return weights


def _huf_read_description(data: bytes, pos: int) -> Tuple[_HufTable, int]:
    header = data[pos]
    pos += 1
    if header < 128:
        payload = data[pos:pos + header]
        pos += header
        explicit = _fse_decode_weights(payload)
    else:
        n = header - 127
        explicit = []
        raw = data[pos:pos + (n + 1) // 2]
        pos += (n + 1) // 2
        for i in range(n):
            b = raw[i >> 1]
            explicit.append((b >> 4) if i % 2 == 0 else (b & 0xF))
    total = sum((1 << (w - 1)) for w in explicit if w)
    if total == 0:
        raise ValueError("zstd: empty Huffman description")
    # the last symbol's weight is implicit: it completes the next
    # power of two STRICTLY above the explicit slot total
    nxt = 1 << total.bit_length()
    rest = nxt - total
    if rest & (rest - 1):
        raise ValueError("zstd: invalid implicit Huffman weight")
    weights = explicit + [rest.bit_length()]
    return _HufTable(weights), pos


# ---------------------------------------------------------------------------
# Sequence code tables (RFC 8878 3.1.1.3.2.1): baseline + extra bits
# ---------------------------------------------------------------------------

_LL_BASE = list(range(16)) + [16, 18, 20, 22, 24, 28, 32, 40, 48, 64, 128,
                              256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
_LL_BITS = [0] * 16 + [1, 1, 1, 1, 2, 2, 3, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
_ML_BASE = list(range(3, 35)) + [35, 37, 39, 41, 43, 47, 51, 59, 67, 83, 99,
                                 131, 259, 515, 1027, 2051, 4099, 8195, 16387, 32771, 65539]
_ML_BITS = [0] * 32 + [1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]

_LL_DEFAULT = [4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 2, 2, 2, 2,
               2, 2, 2, 2, 3, 2, 1, 1, 1, 1, 1, -1, -1, -1, -1]
_ML_DEFAULT = [1, 4, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
               1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
               1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1]
_OF_DEFAULT = [1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
               1, 1, 1, -1, -1, -1, -1, -1]
_LL_LOG, _ML_LOG, _OF_LOG = 6, 6, 5
_LL_MAXSYM, _ML_MAXSYM, _OF_MAXSYM = 35, 52, 31
_LL_MAXLOG, _ML_MAXLOG, _OF_MAXLOG = 9, 9, 8

_LL_DEFAULT_TABLE = _FSETable(_LL_DEFAULT, _LL_LOG)
_ML_DEFAULT_TABLE = _FSETable(_ML_DEFAULT, _ML_LOG)
_OF_DEFAULT_TABLE = _FSETable(_OF_DEFAULT, _OF_LOG)


def _ll_code(v: int) -> int:
    if v < 16:
        return v
    for c in range(35, 15, -1):
        if v >= _LL_BASE[c]:
            return c
    raise ValueError


def _ml_code(v: int) -> int:
    if v < 3:
        raise ValueError("zstd: match length < 3")
    if v < 35:
        return v - 3
    for c in range(52, 31, -1):
        if v >= _ML_BASE[c]:
            return c
    raise ValueError


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


class _FrameCtx:
    def __init__(self):
        self.huf: Optional[_HufTable] = None
        self.ll: Optional[_FSETable] = _LL_DEFAULT_TABLE
        self.ml: Optional[_FSETable] = _ML_DEFAULT_TABLE
        self.of: Optional[_FSETable] = _OF_DEFAULT_TABLE
        self.rep = [1, 4, 8]


def _decode_literals(data: bytes, pos: int, ctx: _FrameCtx) -> Tuple[bytes, int]:
    b0 = data[pos]
    lb_type = b0 & 3
    size_fmt = (b0 >> 2) & 3
    if lb_type in (0, 1):  # Raw / RLE
        if size_fmt in (0, 2):
            rsize = b0 >> 3
            pos += 1
        elif size_fmt == 1:
            rsize = (b0 >> 4) | (data[pos + 1] << 4)
            pos += 2
        else:
            rsize = (b0 >> 4) | (data[pos + 1] << 4) | (data[pos + 2] << 12)
            pos += 3
        if lb_type == 0:
            return data[pos:pos + rsize], pos + rsize
        return bytes([data[pos]]) * rsize, pos + 1
    # Compressed (2) / Treeless (3)
    if size_fmt == 0:
        streams = 1
        h = int.from_bytes(data[pos:pos + 3], "little")
        rsize = (h >> 4) & 0x3FF
        csize = (h >> 14) & 0x3FF
        pos += 3
    elif size_fmt == 1:
        streams = 4
        h = int.from_bytes(data[pos:pos + 3], "little")
        rsize = (h >> 4) & 0x3FF
        csize = (h >> 14) & 0x3FF
        pos += 3
    elif size_fmt == 2:
        streams = 4
        h = int.from_bytes(data[pos:pos + 4], "little")
        rsize = (h >> 4) & 0x3FFF
        csize = (h >> 18) & 0x3FFF
        pos += 4
    else:
        streams = 4
        h = int.from_bytes(data[pos:pos + 5], "little")
        rsize = (h >> 4) & 0x3FFFF
        csize = (h >> 22) & 0x3FFFF
        pos += 5
    end = pos + csize
    if lb_type == 2:
        ctx.huf, pos = _huf_read_description(data, pos)
    elif ctx.huf is None:
        raise ValueError("zstd: treeless literals with no previous table")
    huf = ctx.huf
    if streams == 1:
        out = huf.decode_stream(_BwdBitReader(data[pos:end]), rsize)
        return bytes(out), end
    s1, s2, s3 = struct.unpack_from("<3H", data, pos)
    pos += 6
    sizes = [s1, s2, s3, end - (pos + s1 + s2 + s3)]
    if sizes[3] < 0:
        raise ValueError("zstd: bad literals jump table")
    per = (rsize + 3) >> 2
    outs = []
    for i, sz in enumerate(sizes):
        n_out = per if i < 3 else rsize - 3 * per
        outs.append(huf.decode_stream(_BwdBitReader(data[pos:pos + sz]), n_out))
        pos += sz
    return bytes(b"".join(outs)), end


def _read_seq_table(data: bytes, pos: int, mode: int, cur: Optional[_FSETable],
                    default: _FSETable, max_sym: int, max_log: int,
                    ) -> Tuple[_FSETable, int]:
    if mode == 0:
        return default, pos
    if mode == 1:  # RLE: single symbol, zero-bit table
        sym = data[pos]
        if sym > max_sym:
            raise ValueError("zstd: RLE sequence symbol out of range")
        norm = [0] * (sym + 1)
        norm[sym] = 1
        return _FSETable(norm, 0), pos + 1
    if mode == 2:
        norm, log, pos = _fse_read_ncount(data, pos, max_sym, max_log)
        return _FSETable(norm, log), pos
    if cur is None:
        raise ValueError("zstd: repeat sequence table with no previous table")
    return cur, pos


def _decode_block(data: bytes, out: bytearray, ctx: _FrameCtx) -> None:
    pos = 0
    literals, pos = _decode_literals(data, pos, ctx)
    # sequences header
    b0 = data[pos]
    if b0 < 128:
        n_seq = b0
        pos += 1
    elif b0 < 255:
        n_seq = ((b0 - 128) << 8) + data[pos + 1]
        pos += 2
    else:
        n_seq = data[pos + 1] + (data[pos + 2] << 8) + 0x7F00
        pos += 3
    if n_seq == 0:
        out.extend(literals)
        return
    modes = data[pos]
    pos += 1
    if modes & 3:
        raise ValueError("zstd: reserved sequence-mode bits set")
    ctx.ll, pos = _read_seq_table(data, pos, (modes >> 6) & 3, ctx.ll,
                                  _LL_DEFAULT_TABLE, _LL_MAXSYM, _LL_MAXLOG)
    ctx.of, pos = _read_seq_table(data, pos, (modes >> 4) & 3, ctx.of,
                                  _OF_DEFAULT_TABLE, _OF_MAXSYM, _OF_MAXLOG)
    ctx.ml, pos = _read_seq_table(data, pos, (modes >> 2) & 3, ctx.ml,
                                  _ML_DEFAULT_TABLE, _ML_MAXSYM, _ML_MAXLOG)
    ll_t, of_t, ml_t = ctx.ll, ctx.of, ctx.ml
    br = _BwdBitReader(data[pos:])
    ll_s = br.read(ll_t.table_log)
    of_s = br.read(of_t.table_log)
    ml_s = br.read(ml_t.table_log)
    lit_pos = 0
    rep = ctx.rep
    for i in range(n_seq):
        of_code = int(of_t.symbol[of_s])
        if of_code > 31:
            raise ValueError("zstd: offset code out of range")
        of_value = (1 << of_code) + br.read(of_code)
        ml_code = int(ml_t.symbol[ml_s])
        match_len = _ML_BASE[ml_code] + br.read(_ML_BITS[ml_code])
        ll_code = int(ll_t.symbol[ll_s])
        lit_len = _LL_BASE[ll_code] + br.read(_LL_BITS[ll_code])
        # repeat-offset resolution
        if of_value > 3:
            offset = of_value - 3
            rep[2], rep[1], rep[0] = rep[1], rep[0], offset
        else:
            idx = of_value - 1 + (1 if lit_len == 0 else 0)
            if idx == 0:
                offset = rep[0]
            elif idx == 1:
                offset = rep[1]
                rep[1], rep[0] = rep[0], offset
            elif idx == 2:
                offset = rep[2]
                rep[2], rep[1], rep[0] = rep[1], rep[0], offset
            else:
                offset = rep[0] - 1
                if offset == 0:
                    raise ValueError("zstd: repeat offset underflow")
                rep[2], rep[1], rep[0] = rep[1], rep[0], offset
        out.extend(literals[lit_pos:lit_pos + lit_len])
        lit_pos += lit_len
        if offset > len(out):
            raise ValueError("zstd: match offset beyond window")
        if offset >= match_len:
            start = len(out) - offset
            out.extend(out[start:start + match_len])
        else:
            for _ in range(match_len):
                out.append(out[-offset])
        if i < n_seq - 1:
            ll_s = int(ll_t.new_state[ll_s]) + br.read(int(ll_t.nb_bits[ll_s]))
            ml_s = int(ml_t.new_state[ml_s]) + br.read(int(ml_t.nb_bits[ml_s]))
            of_s = int(of_t.new_state[of_s]) + br.read(int(of_t.nb_bits[of_s]))
    out.extend(literals[lit_pos:])


def zstd_decompress(data: bytes) -> bytes:
    if len(data) < 4 or struct.unpack_from("<I", data)[0] != _MAGIC:
        raise ValueError("zstd: bad magic")
    pos = 4
    fhd = data[pos]
    pos += 1
    if fhd & 0x08:
        raise ValueError("zstd: reserved frame-header bit set")
    dict_flag = fhd & 3
    checksum = bool(fhd & 4)
    single = bool(fhd & 0x20)
    fcs_flag = fhd >> 6
    if not single:
        pos += 1  # window descriptor (we rely on content growth checks)
    if dict_flag:
        raise ValueError("zstd: dictionaries not supported")
    fcs_len = (1 if single else 0, 2, 4, 8)[fcs_flag]
    content_size = None
    if fcs_len:
        content_size = int.from_bytes(data[pos:pos + fcs_len], "little")
        if fcs_flag == 1:
            content_size += 256
        pos += fcs_len
    ctx = _FrameCtx()
    out = bytearray()
    try:
        while True:
            if pos + 3 > len(data):
                raise ValueError("zstd: truncated frame")
            h = int.from_bytes(data[pos:pos + 3], "little")
            pos += 3
            last = h & 1
            btype = (h >> 1) & 3
            bsize = h >> 3
            if btype != 1 and pos + bsize > len(data):
                raise ValueError("zstd: truncated block")
            if btype == 0:
                out.extend(data[pos:pos + bsize])
                pos += bsize
            elif btype == 1:
                out.extend(bytes([data[pos]]) * bsize)
                pos += 1
            elif btype == 2:
                _decode_block(data[pos:pos + bsize], out, ctx)
                pos += bsize
            else:
                raise ValueError("zstd: reserved block type")
            if last:
                break
    except (IndexError, struct.error) as exc:
        raise ValueError(f"zstd: truncated or corrupt stream ({exc})") from exc
    if checksum:
        if pos + 4 > len(data):
            raise ValueError("zstd: truncated content checksum")
        want = struct.unpack_from("<I", data, pos)[0]
        if xxh64(bytes(out)) & 0xFFFFFFFF != want:
            raise ValueError("zstd: content checksum mismatch")
        pos += 4
    if content_size is not None and len(out) != content_size:
        raise ValueError("zstd: content size mismatch")
    return bytes(out)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def _find_sequences(block: bytes) -> Tuple[List[Tuple[int, int, int]], int]:
    """Greedy hash-table LZ -> ([(lit_len, offset, match_len)], tail
    literal count).  Offsets are absolute distances; min match 3."""
    n = len(block)
    seqs: List[Tuple[int, int, int]] = []
    if n < 8:
        return seqs, n
    table: Dict[int, int] = {}
    anchor = 0
    i = 0
    limit = n - 5  # leave room for last-literals requirement
    mv = memoryview(block)
    while i < limit:
        key = block[i] | (block[i + 1] << 8) | (block[i + 2] << 16) | (block[i + 3] << 24)
        cand = table.get(key)
        table[key] = i
        if cand is None or i - cand > (1 << 21):
            i += 1
            continue
        if mv[cand:cand + 4] != mv[i:i + 4]:
            i += 1
            continue
        mlen = 4
        maxm = n - i - 1  # keep >= 1 byte after the match region ok
        while mlen < maxm and block[cand + mlen] == block[i + mlen]:
            mlen += 1
        seqs.append((i - anchor, i - cand, mlen))
        i += mlen
        anchor = i
    return seqs, n - anchor


def _encode_literals(lits: bytes) -> bytes:
    n = len(lits)
    if n == 0:
        return bytes([0 << 3 | 0])  # raw, size 0

    def _size_header(lb_type: int, rsize: int) -> bytes:
        if rsize < 32:
            return bytes([lb_type | (0 << 2) | (rsize << 3)])
        if rsize < 4096:
            v = lb_type | (1 << 2) | (rsize << 4)
            return v.to_bytes(2, "little")
        v = lb_type | (3 << 2) | (rsize << 4)
        return v.to_bytes(3, "little")

    if n >= 2 and lits.count(lits[0]) == n:
        return _size_header(1, n) + lits[:1]
    raw = _size_header(0, n) + lits
    if n < 16:
        return raw
    counts = np.bincount(np.frombuffer(lits, np.uint8), minlength=256)
    weights = _huf_weights_for(counts)
    if weights is None:
        return raw
    try:
        huf = _HufTable(weights)
    except ValueError:
        return raw
    desc = _huf_write_description(weights)
    if desc is None:
        return raw
    streams = 1 if n < 256 else 4
    if streams == 1:
        body = huf.encode_stream(lits)
        payload = desc + body
        csize = len(payload)
        if n < 1024 and csize < n:
            hdr = int(2 | (0 << 2) | (n << 4) | (csize << 14)).to_bytes(3, "little")
            return hdr + payload
        return raw
    per = (n + 3) >> 2
    parts = [huf.encode_stream(lits[i * per:(i + 1) * per]) for i in range(3)]
    parts.append(huf.encode_stream(lits[3 * per:]))
    jump = struct.pack("<3H", len(parts[0]), len(parts[1]), len(parts[2]))
    if max(len(p) for p in parts[:3]) > 0xFFFF:
        return raw
    payload = desc + jump + b"".join(parts)
    csize = len(payload)
    if csize >= n:
        return raw
    if n < 1024 and csize < 1024:
        hdr = int(2 | (1 << 2) | (n << 4) | (csize << 14)).to_bytes(3, "little")
    elif n < 16384 and csize < 16384:
        hdr = int(2 | (2 << 2) | (n << 4) | (csize << 18)).to_bytes(4, "little")
    elif n < (1 << 18) and csize < (1 << 18):
        hdr = int(2 | (3 << 2) | (n << 4) | (csize << 22)).to_bytes(5, "little")
    else:
        return raw
    return hdr + payload


def _seq_tables_for(codes: List[Tuple[int, int, int]], custom: bool,
                    ) -> Tuple[bytes, _FSETable, _FSETable, _FSETable]:
    """-> (modes byte + table descriptions, ll, of, ml tables)."""
    if not custom:
        return bytes([0]), _LL_DEFAULT_TABLE, _OF_DEFAULT_TABLE, _ML_DEFAULT_TABLE
    lls = np.bincount([c[0] for c in codes], minlength=1)
    ofs = np.bincount([c[1] for c in codes], minlength=1)
    mls = np.bincount([c[2] for c in codes], minlength=1)
    out = bytearray([(2 << 6) | (2 << 4) | (2 << 2)])
    tables = []
    for counts, max_log in ((lls, _LL_MAXLOG), (ofs, _OF_MAXLOG), (mls, _ML_MAXLOG)):
        total = int(counts.sum())
        distinct = int(np.count_nonzero(counts))
        log = max(5, int(np.ceil(np.log2(max(2, distinct)))),
                  min(max_log, max(1, int(np.ceil(np.log2(max(2, total)))) - 2)))
        log = min(log, max_log)
        norm = _fse_normalize(counts.astype(np.int64), log)
        out.extend(_fse_write_ncount(norm, log))
        tables.append(_FSETable(norm, log))
    return bytes(out), tables[0], tables[1], tables[2]


def _encode_block_body(block: bytes, level: int,
                       rep1_in: int = 1) -> Tuple[Optional[bytes], int]:
    """-> (compressed-block payload or None if expansion, decoder's
    rep[0] AFTER this block).  ``rep1_in`` is the decoder's current
    rep[0]: repeat-offset state persists ACROSS blocks within a frame
    (RFC 8878; the per-block reset this replaced silently corrupted
    any >128 KiB payload whose next block led with an offset-1 run)."""
    seqs, _tail = _find_sequences(block)
    lits = bytearray()
    pos = 0
    rep1 = rep1_in
    rows: List[Tuple[int, int, int]] = []  # (lit_len, of_value, match_len)
    for lit_len, offset, mlen in seqs:
        lits.extend(block[pos:pos + lit_len])
        pos += lit_len + mlen
        if offset == rep1 and lit_len > 0:
            of_value = 1  # repeat-offset-1 shorthand
        else:
            of_value = offset + 3
        rep1 = offset
        rows.append((lit_len, of_value, mlen))
    lits.extend(block[pos:])
    lit_payload = _encode_literals(bytes(lits))
    n_seq = len(rows)
    if n_seq == 0:
        body = lit_payload + bytes([0])
        # no sequences decoded either way: rep state is untouched
        return (body if len(body) < len(block) else None), rep1_in
    if n_seq < 128:
        nseq_hdr = bytes([n_seq])
    elif n_seq < 0x7F00:
        nseq_hdr = bytes([128 + (n_seq >> 8), n_seq & 0xFF])
    else:
        v = n_seq - 0x7F00
        nseq_hdr = bytes([255, v & 0xFF, v >> 8])
    # offset code = floor(log2(of_value)); extra bits restore the rest
    codes = [(_ll_code(ll), of.bit_length() - 1, _ml_code(ml)) for ll, of, ml in rows]
    custom = level >= 2 and n_seq >= 32
    try:
        mode_bytes, ll_t, of_t, ml_t = _seq_tables_for(codes, custom)
    except ValueError:
        mode_bytes, ll_t, of_t, ml_t = _seq_tables_for(codes, False)
    # Build the list of (value, nbits) the DECODER will read, in its
    # read order, then write them reversed (the backward bitstream
    # returns writes last-to-first).  The state BEFORE decoding
    # sequence i must be a cell whose symbol is codes[i]; we pick
    # cells by walking the automaton backward from the last sequence.
    reads: List[Tuple[int, int]] = []
    ll_cells = [0] * n_seq
    of_cells = [0] * n_seq
    ml_cells = [0] * n_seq
    ll_bits: List[Tuple[int, int]] = [(0, 0)] * (n_seq - 1)
    of_bits: List[Tuple[int, int]] = [(0, 0)] * (n_seq - 1)
    ml_bits: List[Tuple[int, int]] = [(0, 0)] * (n_seq - 1)
    ll_cells[n_seq - 1] = ll_t.first_cell(codes[n_seq - 1][0])
    of_cells[n_seq - 1] = of_t.first_cell(codes[n_seq - 1][1])
    ml_cells[n_seq - 1] = ml_t.first_cell(codes[n_seq - 1][2])
    for i in range(n_seq - 2, -1, -1):
        cell, bits, nb = ll_t.encode_cell(codes[i][0], ll_cells[i + 1])
        ll_cells[i] = cell
        ll_bits[i] = (bits, nb)
        cell, bits, nb = ml_t.encode_cell(codes[i][2], ml_cells[i + 1])
        ml_cells[i] = cell
        ml_bits[i] = (bits, nb)
        cell, bits, nb = of_t.encode_cell(codes[i][1], of_cells[i + 1])
        of_cells[i] = cell
        of_bits[i] = (bits, nb)
    reads.append((ll_cells[0], ll_t.table_log))
    reads.append((of_cells[0], of_t.table_log))
    reads.append((ml_cells[0], ml_t.table_log))
    for i in range(n_seq):
        llc, ofc, mlc = codes[i]
        ll, of_value, ml = rows[i]
        reads.append((of_value - (1 << ofc), ofc))
        reads.append((ml - _ML_BASE[mlc], _ML_BITS[mlc]))
        reads.append((ll - _LL_BASE[llc], _LL_BITS[llc]))
        if i < n_seq - 1:
            reads.append(ll_bits[i])
            reads.append(ml_bits[i])
            reads.append(of_bits[i])
    w = _FwdBitWriter()
    for v, nb in reversed(reads):
        w.add(v, nb)
    seq_stream = w.close()
    body = lit_payload + nseq_hdr + mode_bytes + seq_stream
    if len(body) < len(block):
        return body, rep1  # decoder executed our sequences
    return None, rep1_in  # raw fallback: decoder sees no sequences


def zstd_compress(data: bytes, level: int = 3, checksum: bool = True) -> bytes:
    """RFC 8878 single frame: single-segment header with explicit
    content size, 128 KiB blocks, optional xxh64 checksum."""
    data = bytes(data)
    n = len(data)
    out = bytearray()
    out += struct.pack("<I", _MAGIC)
    if n < 256 and n != 0:
        fhd = 0x20 | (0 << 6)
        fcs = n.to_bytes(1, "little")
    elif n < 65536 + 256 and n >= 256:
        fhd = 0x20 | (1 << 6)
        fcs = (n - 256).to_bytes(2, "little")
    elif n < (1 << 32):
        fhd = 0x20 | (2 << 6)
        fcs = n.to_bytes(4, "little")
    else:
        fhd = 0x20 | (3 << 6)
        fcs = n.to_bytes(8, "little")
    if checksum:
        fhd |= 4
    out.append(fhd)
    out += fcs
    if n == 0:
        out += (1 | (0 << 1) | (0 << 3)).to_bytes(3, "little")
    rep1 = 1  # decoder's rep[0]; persists across blocks (RFC 8878)
    for off in range(0, n, _MAX_BLOCK):
        block = data[off:off + _MAX_BLOCK]
        last = 1 if off + _MAX_BLOCK >= n else 0
        if level >= 1 and len(block) >= 2 and block.count(block[0]) == len(block):
            out += (last | (1 << 1) | (len(block) << 3)).to_bytes(3, "little")
            out.append(block[0])
            continue  # RLE block: no sequences, rep1 unchanged
        if level >= 1:
            body, rep1 = _encode_block_body(block, level, rep1)
        else:
            body = None
        if body is not None and len(body) < len(block):
            out += (last | (2 << 1) | (len(body) << 3)).to_bytes(3, "little")
            out += body
        else:
            out += (last | (0 << 1) | (len(block) << 3)).to_bytes(3, "little")
            out += block
    if checksum:
        out += struct.pack("<I", xxh64(data) & 0xFFFFFFFF)
    return bytes(out)
