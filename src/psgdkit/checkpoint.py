"""Flat binary serialization of preconditioner state for checkpointing.

Record layout (all integers little-endian, payload little-endian float64):

    magic    4 bytes   b"PCS1"
    tag      1 byte    the family's ``tag``
    nshape   uint32    number of shape fields
    shape    nshape x uint64, the family's ``shape_fields``
    npayload uint64    number of float64 values
    payload  npayload x float64, the family's ``factors`` in declared order,
                       matrices row-major

A direct sum (tag 6) has no shape fields and an empty payload, followed by a
uint32 block count and, per block, uint16 name length + UTF-8 name + nested
record. Loading sizes each record from its shape fields and reads its
payload before it builds anything, so a record cannot make the loader
allocate more than the record holds. It then rebuilds each family through
its constructor and sets its factors through ``set_factors``, which checks
each against its declared structure: finite entries, no entry outside a
triangle, and no diagonal entry below the floor that the kernels keep.
Direct sums nest at most ``MAX_NESTING`` deep, in saving and in loading.
"""

import math
import os
import struct
import tempfile

import numpy as np

from .errors import ContractViolationError
from .preconditioners import FAMILIES, DirectSumPrecond, Preconditioner

__all__ = ["load_state", "save_state", "state_from_bytes", "state_to_bytes"]

_MAGIC = b"PCS1"
MAX_NESTING = 32  # direct sums inside direct sums, counting the outermost
_MAX_NAME = 0xFFFF  # bytes of a block name, whose length the record holds as a uint16
_BY_TAG = {cls.tag: cls for cls in (*FAMILIES.values(), DirectSumPrecond)}


def state_to_bytes(p: Preconditioner) -> bytes:
    """The record of a state, written as it is: its values are not checked.
    ContractViolationError for a direct sum nested more than MAX_NESTING deep
    or a block name the record cannot hold (not UTF-8-encodable, or over
    65,535 bytes encoded)."""
    return _record(p, 0)


def _nesting_check(depth: int) -> None:
    if depth == MAX_NESTING:
        raise ContractViolationError(f"direct sums nested more than {MAX_NESTING} deep")


def _record(p: Preconditioner, depth: int) -> bytes:
    cls = type(p)
    if _BY_TAG.get(getattr(cls, "tag", None)) is not cls:
        raise ContractViolationError(f"cannot serialize {cls.__name__}")
    arrays = [np.ravel(getattr(p, name)) for name, _ in cls.factors]
    flat = np.concatenate(arrays) if arrays else np.zeros(0)
    out = [_MAGIC, struct.pack("<BI", cls.tag, len(cls.shape_fields))]
    out.extend(struct.pack("<Q", int(getattr(p, f))) for f in cls.shape_fields)
    out.append(struct.pack("<Q", flat.size))
    out.append(np.asarray(flat, dtype="<f8").tobytes())
    if cls is DirectSumPrecond:
        _nesting_check(depth)
        out.append(struct.pack("<I", len(p.blocks)))
        for i, (name, block) in enumerate(p.blocks):
            try:
                encoded = name.encode("utf-8")
            except UnicodeEncodeError:
                raise ContractViolationError(
                    f"direct sum block {i} name {name!r} is not UTF-8 encodable") from None
            if len(encoded) > _MAX_NAME:
                raise ContractViolationError(
                    f"direct sum block {i} name is {len(encoded)} UTF-8 bytes, "
                    f"over the record's {_MAX_NAME}")
            out.append(struct.pack("<H", len(encoded)))
            out.append(encoded)
            out.append(_record(block, depth + 1))
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ContractViolationError("truncated preconditioner record")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def _read_record(r: _Reader, depth: int = 0) -> Preconditioner:
    if r.take(4) != _MAGIC:
        raise ContractViolationError("bad magic in preconditioner record")
    tag = r.unpack("<B")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise ContractViolationError(f"unknown preconditioner tag {tag}")
    shape = [r.unpack("<Q") for _ in range(r.unpack("<I"))]
    if len(shape) != len(cls.shape_fields):
        raise ContractViolationError(
            f"{cls.__name__} record needs {len(cls.shape_fields)} shape fields, got {len(shape)}")
    npayload = r.unpack("<Q")
    if cls is DirectSumPrecond:
        if npayload:
            raise ContractViolationError(f"direct sum record has a payload of {npayload} values")
        _nesting_check(depth)
        blocks = []
        for _ in range(r.unpack("<I")):
            try:
                name = r.take(r.unpack("<H")).decode("utf-8")
            except UnicodeDecodeError:
                raise ContractViolationError("direct sum block name is not UTF-8") from None
            blocks.append((name, _read_record(r, depth + 1)))
        return DirectSumPrecond(blocks)

    shapes = cls.factor_shapes(*shape)
    size = sum(math.prod(s) for s in shapes)
    if npayload != size:
        raise ContractViolationError(
            f"{cls.__name__} record of shape {shape} needs a payload of {size} values, "
            f"got {npayload}")
    payload = np.frombuffer(r.take(8 * npayload), dtype="<f8")
    arrays, start = {}, 0
    for (name, _), s in zip(cls.factors, shapes):
        arrays[name] = payload[start:start + math.prod(s)].reshape(s)
        start += math.prod(s)
    return cls(*shape).set_factors(**arrays)


def state_from_bytes(data: bytes) -> Preconditioner:
    r = _Reader(data)
    p = _read_record(r)
    if r.pos != len(data):
        raise ContractViolationError("trailing bytes after preconditioner record")
    return p


def _atomic_write(path, data: bytes) -> None:
    """Write data to path through a temporary file in its directory, which
    os.replace then renames: a write that fails leaves path as it was."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    except OSError as exc:  # which names the temporary file: name path
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_state(p: Preconditioner, path) -> None:
    """Write p's record to path (see _atomic_write)."""
    _atomic_write(path, state_to_bytes(p))


def load_state(path) -> Preconditioner:
    with open(path, "rb") as fh:
        return state_from_bytes(fh.read())
