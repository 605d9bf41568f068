"""Checkpoints of model parameters, and the checked reader of the ``.npz``
array files that every stage stores.

A checkpoint is an ``.npz`` file of two members, read through
``load_arrays``, so every byte of it is under a CRC-32:

    header    UTF-8 JSON with sorted keys, as uint8: the config snapshot
              and one ``[name, shape]`` per tensor, in name order
    values    float64: every tensor's values, C-order, end to end in
              header order

A file in any other format, such as the older NNCK container, is refused
on load as an unreadable older format.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Parameter

# the leading bytes np.load reads a file by: a zip (an .npz) or an .npy
_MAGICS = (b"PK\x03\x04", b"PK\x05\x06", b"\x93NUMPY")


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config: dict | None = None) -> None:
    names = sorted(tensors)
    arrays = [np.asarray(tensors[name], dtype=np.float64) for name in names]
    header = json.dumps({"config": config or {},
                         "tensors": [[name, list(a.shape)] for name, a in zip(names, arrays)]},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:  # a path np.savez would give an .npz suffix
        np.savez(fh, header=np.frombuffer(header, dtype=np.uint8),
                 values=np.concatenate([np.zeros(0), *(a.ravel() for a in arrays)]))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint. A file that ``load_arrays`` refuses, or whose
    header does not decode to tensor shapes that hold exactly its values,
    is a ValueError naming it."""
    header, values = load_arrays(path, "header", "values")
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        header = json.loads(header.tobytes().decode("utf-8"))
        tensors, end = {}, 0
        for name, shape in header["tensors"]:
            start, end = end, end + math.prod(shape)
            tensors[name] = values[start:end].reshape(shape)
        if end != values.size:
            raise ValueError(f"the header's shapes hold {end} values, the file {values.size}")
        return Checkpoint(tensors=tensors, config=header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def load_arrays(path: str | Path, *names: str) -> list[np.ndarray]:
    """The arrays ``names`` of the ``.npz`` file ``path``, read whole. Every
    member's CRC-32 is checked first, so a flipped bit is refused rather
    than read. A file that is missing, cut or corrupt, or lacks one of
    ``names``, is a ValueError naming it; so is a file that begins neither
    as a zip nor as an ``.npy``, which is named as an older format."""
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
        if _older_format(path):
            raise ValueError(f"{path}: unreadable older format, neither an .npz nor an "
                             ".npy file; artifacts are immutable - use a fresh workdir") from None
        raise ValueError(f"{path}: unreadable arrays: {exc!r}") from None


def _older_format(path: str | Path) -> bool:
    """Whether ``path`` opens with bytes that no cut of a zip or an
    ``.npy`` file begins with."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(max(map(len, _MAGICS)))
    except OSError:
        return False
    return not any(head.startswith(m) or m.startswith(head) for m in _MAGICS)


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
