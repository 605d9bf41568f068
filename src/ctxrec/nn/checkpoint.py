"""Versioned binary checkpoint container, and the checked reader of the
``.npz`` array files that stages store.

Checkpoint layout (all integers little-endian):

    bytes 0..3    magic b"NNCK"
    bytes 4..7    format version, uint32
    bytes 8..15   header length in bytes, uint64
    ...           header: UTF-8 JSON with sorted keys
    ...           payload: tensor data, concatenated in header order

The header holds the config snapshot and one entry per tensor:
{"name", "shape", "dtype", "offset", "nbytes"}. Tensors are stored C-order
as little-endian float64 ("<f8"). Format version 2 holds model parameters
only: no optimizer moments and no optimizer step counter (version 1 had
both); a file of any other version is rejected on load.
"""

from __future__ import annotations

import json
import struct
import tokenize
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Parameter

MAGIC = b"NNCK"
FORMAT_VERSION = 2
_DTYPE = "<f8"


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config: dict | None = None) -> None:
    entries = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        blob = arr.astype(_DTYPE).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": _DTYPE,
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)

    header = json.dumps({
        "config": config or {},
        "tensors": entries,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint. A file cut short, or whose header does not decode
    to tensor entries that fit the payload, is a ValueError naming it and,
    past the header, the first tensor it cuts."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint container")
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    header_len = struct.unpack("<Q", data[8:16])[0]
    if 16 + header_len > len(data):
        raise ValueError(f"{path}: file ends inside the {header_len}-byte header")
    payload = data[16 + header_len:]
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        header = json.loads(data[16:16 + header_len].decode("utf-8"))
        tensors = {}
        for entry in header["tensors"]:
            name, offset, nbytes = entry["name"], entry["offset"], entry["nbytes"]
            if offset + nbytes > len(payload):
                raise ValueError(f"tensor {name!r} needs payload bytes {offset}.."
                                 f"{offset + nbytes}, but the file holds {len(payload)}")
            arr = np.frombuffer(payload[offset:offset + nbytes], dtype=entry["dtype"])
            tensors[name] = arr.astype(np.float64).reshape(entry["shape"])
        return Checkpoint(tensors=tensors, config=header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def load_arrays(path: str | Path, *names: str) -> list[np.ndarray]:
    """The arrays ``names`` of the ``.npz`` file ``path``, read whole. Every
    member's CRC-32 is checked first, so a flipped bit is refused rather
    than read. A file that is missing, cut or corrupt, or lacks one of
    ``names``, is a ValueError naming it."""
    try:
        with np.load(path) as data:
            bad = data.zip.testzip()
            if bad is not None:
                raise ValueError(f"member {bad} fails its CRC-32")
            return [data[name] for name in names]
    # RuntimeError: an encrypted member, and its subclass NotImplementedError
    # an unknown compression method; TokenError: a bad npy header; TypeError:
    # a plain .npy file, which np.load returns as an array
    except (OSError, EOFError, KeyError, ValueError, RuntimeError, TypeError,
            zipfile.BadZipFile, tokenize.TokenError) as exc:
        raise ValueError(f"{path}: unreadable arrays: {exc!r}") from None


def load_params(params: list[Parameter], ck: Checkpoint) -> None:
    """Copy each parameter's tensor from ``ck`` into it in place. A tensor
    that is missing or has another shape is a ValueError naming it."""
    for p in params:
        if p.name not in ck.tensors:
            raise ValueError(f"checkpoint has no tensor {p.name!r}")
        value = ck.tensors[p.name]
        if value.shape != p.value.shape:
            raise ValueError(f"checkpoint tensor {p.name!r} has shape "
                             f"{value.shape}, expected {p.value.shape}")
        p.value[...] = value
