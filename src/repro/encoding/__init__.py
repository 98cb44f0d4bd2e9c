"""Entropy-coding and byte-framing substrate shared by every compressor.

The subpackage provides:

* :mod:`repro.encoding.bitstream` -- vectorized MSB-first packing of
  integer arrays at fixed or per-value bit widths.
* :mod:`repro.encoding.huffman` -- canonical Huffman coding with one
  chunk-parallel (numpy) decode walk for every blob.
* :mod:`repro.encoding.codecs` -- zigzag/varint integer codecs, sign-bitmap
  packing and the DEFLATE (zlib) stage used as SZ's optional third stage.
* :mod:`repro.encoding.container` -- a small tagged section container so
  every compressor emits a genuine self-describing byte stream (compression
  ratios in the experiments are measured on these real bytes).
* :mod:`repro.encoding.rs` -- pure-numpy GF(256) Reed-Solomon erasure
  coding behind the v3 chunk-parity sections.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.encoding.bitstream import (
        pack_fixed_width,
        pack_varbits,
        unpack_fixed_width,
        unpack_varbits,
    )
    from repro.encoding.codecs import (
        decode_sign_bitmap,
        deflate,
        encode_sign_bitmap,
        inflate,
        read_varint,
        write_varint,
        zigzag_decode,
        zigzag_encode,
    )
    from repro.encoding.container import (
        ChecksumError,
        Container,
        ContainerError,
        StreamError,
        TruncatedStreamError,
        section_byte_ranges,
    )
    from repro.encoding.crc import crc32c
    from repro.encoding.huffman import HuffmanCodec
    from repro.encoding.range_coder import RangeCodec
    from repro.encoding.rs import (
        MAX_GROUP_BLOCKS,
        InsufficientParityError,
        decode_blocks,
        encode_parity,
    )

__all__ = [
    "ChecksumError",
    "Container",
    "ContainerError",
    "InsufficientParityError",
    "MAX_GROUP_BLOCKS",
    "StreamError",
    "TruncatedStreamError",
    "HuffmanCodec",
    "RangeCodec",
    "crc32c",
    "decode_blocks",
    "encode_parity",
    "decode_sign_bitmap",
    "deflate",
    "section_byte_ranges",
    "encode_sign_bitmap",
    "inflate",
    "pack_fixed_width",
    "pack_varbits",
    "read_varint",
    "unpack_fixed_width",
    "unpack_varbits",
    "write_varint",
    "zigzag_decode",
    "zigzag_encode",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.encoding.bitstream": (
        "pack_fixed_width", "pack_varbits", "unpack_fixed_width", "unpack_varbits",
    ),
    "repro.encoding.codecs": (
        "decode_sign_bitmap", "deflate", "encode_sign_bitmap", "inflate",
        "read_varint", "write_varint", "zigzag_decode", "zigzag_encode",
    ),
    "repro.encoding.container": (
        "ChecksumError", "Container", "ContainerError", "StreamError",
        "TruncatedStreamError", "section_byte_ranges",
    ),
    "repro.encoding.crc": ("crc32c",),
    "repro.encoding.huffman": ("HuffmanCodec",),
    "repro.encoding.range_coder": ("RangeCodec",),
    "repro.encoding.rs": (
        "MAX_GROUP_BLOCKS", "InsufficientParityError", "decode_blocks", "encode_parity",
    ),
})
