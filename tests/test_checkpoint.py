import hashlib
import struct

import numpy as np
import pytest

from psgdkit.checkpoint import (
    MAX_NESTING,
    load_state,
    save_state,
    state_from_bytes,
    state_to_bytes,
)
from psgdkit.curvature import TangentPair
from psgdkit.errors import ContractViolationError, PsgdkitError
from psgdkit.preconditioners import (
    DensePrecond,
    DiagPrecond,
    DirectSumPrecond,
    KronPrecond,
    ScanPrecond,
    SpluPrecond,
)


def trained(p, seed=0, updates=100):
    rng = np.random.default_rng(seed)
    for _ in range(updates):
        dt = rng.standard_normal(p.dim)
        p.update(TangentPair(dt, rng.standard_normal(p.dim) * 1.7), 0.2)
    return p


def states_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, DirectSumPrecond):
        return all(na == nb and states_equal(pa, pb)
                   for (na, pa), (nb, pb) in zip(a.blocks, b.blocks))
    fields = {
        DensePrecond: ["q"],
        DiagPrecond: ["q"],
        SpluPrecond: ["l1", "l2", "l3", "u1", "u2", "u3"],
        KronPrecond: ["q1", "q2"],
        ScanPrecond: ["q1", "d2", "c2"],
    }[type(a)]
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


@pytest.mark.parametrize("maker", [
    lambda: DensePrecond(5),
    lambda: DiagPrecond(7),
    lambda: SpluPrecond(9, 3),
    lambda: KronPrecond(3, 4),
    lambda: ScanPrecond(3, 4),
    lambda: DirectSumPrecond([("w1", KronPrecond(2, 3)), ("w2", ScanPrecond(2, 2)),
                              ("v", DiagPrecond(3))]),
])
def test_round_trip_bitwise(maker):
    p = trained(maker())
    data = state_to_bytes(p)
    q = state_from_bytes(data)
    assert states_equal(p, q)
    # behavior round-trips too
    rng = np.random.default_rng(1)
    v = rng.standard_normal(p.dim)
    np.testing.assert_array_equal(p.apply(v), q.apply(v))


def test_payload_is_little_endian_float64():
    p = DiagPrecond(3)
    p.q = np.array([1.0, 2.0, 4.0])
    data = state_to_bytes(p)
    assert data[:4] == b"PCS1"
    assert np.frombuffer(data[-24:], dtype="<f8").tolist() == [1.0, 2.0, 4.0]


def test_file_round_trip(tmp_path):
    p = trained(SpluPrecond(8, 2))
    path = tmp_path / "state.pcs"
    save_state(p, path)
    q = load_state(path)
    assert states_equal(p, q)


def test_corrupt_record_rejected():
    p = DiagPrecond(2)
    data = state_to_bytes(p)
    with pytest.raises(ContractViolationError):
        state_from_bytes(b"XXXX" + data[4:])
    with pytest.raises(ContractViolationError):
        state_from_bytes(data[:-4])
    with pytest.raises(ContractViolationError):
        state_from_bytes(data + b"\x00")


def test_nesting_bound_holds_for_save_and_load():
    def nested(depth):
        p = DiagPrecond(2)
        for _ in range(depth):
            p = DirectSumPrecond([("a", p)])
        return p

    deepest = nested(MAX_NESTING)
    assert state_to_bytes(state_from_bytes(state_to_bytes(deepest))) == state_to_bytes(deepest)
    with pytest.raises(ContractViolationError, match="nested"):
        state_to_bytes(nested(MAX_NESTING + 1))


# sha256 of state_to_bytes(trained(maker())); the record format and every
# update trajectory must keep these exact bytes
GOLDEN = {
    "dense": "150c67624c78d971570d9a672bdcab4d84101ef4a5e13b0b1da842990238f89b",
    "diag": "7b293e90003fd3a5ea2bf362c269ceb3df44fb1985baf52c4941039f820090f7",
    "splu": "3a5cb5aedfe63e92c82e284ebdadbda9ddbcb7b9755b4e1585a939e9f78d75fb",
    "splu-full-order": "ba4836a94f668d64da0bfdf10dfc17e105012bb20c76bc1de98b72c6817a69ee",
    "kron": "d06cac965f8ba78d44738906fc3aae4d191f04b3bb21de4c446699c8394442d6",
    "scan": "4db6e5fe466c5a41341a6a37000923767d440c74d689edae565cb3f1752e758a",
    "scan-one-column": "2d793050024c33221123c189b8c857cd6fe6f03e5246944200a8d15153bb161e",
    "nested-direct-sum": "db9500dc4b6448cf6cfbf3ff545e3f3522fa4de53934ee1c8e825b415a279034",
}
GOLDEN_MAKERS = {
    "dense": lambda: DensePrecond(5),
    "diag": lambda: DiagPrecond(7),
    "splu": lambda: SpluPrecond(9, 3),
    "splu-full-order": lambda: SpluPrecond(6, 6),
    "kron": lambda: KronPrecond(3, 4),
    "scan": lambda: ScanPrecond(3, 4),
    "scan-one-column": lambda: ScanPrecond(4, 1),
    "nested-direct-sum": lambda: DirectSumPrecond([
        ("w1", KronPrecond(2, 3)),
        ("inner", DirectSumPrecond([("s", ScanPrecond(2, 2)), ("d", DensePrecond(3))])),
        ("v", DiagPrecond(3)),
        ("lu", SpluPrecond(5, 2)),
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name):
    data = state_to_bytes(trained(GOLDEN_MAKERS[name]()))
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]
    assert state_to_bytes(state_from_bytes(data)) == data


def record(tag, shape, payload):
    """A raw record with the given tag, shape fields and float64 payload."""
    payload = np.asarray(payload, dtype="<f8").ravel()
    return b"".join([b"PCS1", struct.pack("<BI", tag, len(shape)),
                     b"".join(struct.pack("<Q", s) for s in shape),
                     struct.pack("<Q", payload.size), payload.tobytes()])


def splu_payload(dim, r, **factors):
    p = SpluPrecond(dim, r)
    return np.concatenate([np.ravel(factors.get(f, getattr(p, f)))
                           for f in ("l1", "l2", "l3", "u1", "u2", "u3")])


def direct_sum_header(name=b"a"):
    """A direct sum record with one block, up to that block's own record."""
    return b"PCS1" + struct.pack("<BIQI", 6, 0, 0, 1) + struct.pack("<H", len(name)) + name


MALFORMED = {
    "payload-too-long": (record(1, [2], np.arange(1.0, 7.0)), "payload"),
    "payload-too-short": (record(1, [2], [1.0, 0.0, 1.0]), "payload"),
    "dense-two-shape-fields": (record(1, [2, 2], np.eye(2)), "shape"),
    "kron-one-shape-field": (record(4, [3], np.eye(3)), "shape"),
    "dense-no-shape-field": (record(1, [], []), "shape"),
    "dense-nan": (record(1, [2], [[1.0, np.nan], [0.0, 1.0]]), "non-finite.*q"),
    "diag-inf": (record(2, [3], [1.0, np.inf, 1.0]), "non-finite.*q"),
    "diag-negative": (record(2, [2], [1.0, -0.5]), "diagonal.*q"),
    "dense-zero-diagonal": (record(1, [2], [[1.0, 0.0], [0.0, 0.0]]), "diagonal.*q"),
    # positive but below the floor update refuses; apply_inv would return inf
    "dense-diagonal-1e-305": (record(1, [2], [[1e-305, 0.0], [0.0, 1.0]]), "diagonal.*q"),
    "dense-lower-entry": (record(1, [2], [[1.0, 0.0], [0.5, 1.0]]), "triangle.*q"),
    "kron-lower-entry": (record(4, [2, 2], [1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 1.0]),
                         "triangle.*q2"),
    "scan-negative-d2": (record(5, [2, 2], [1.0, 1.0, 1.0, -1.0, 0.5]), "diagonal.*d2"),
    "scan-nan-c2": (record(5, [2, 2], [1.0, 1.0, 1.0, 1.0, np.nan]), "non-finite.*c2"),
    "splu-upper-entry-in-l1": (record(3, [4, 2], splu_payload(4, 2, l1=[[1.0, 2.0], [0.0, 1.0]])),
                               "triangle.*l1"),
    "splu-zero-u3": (record(3, [4, 2], splu_payload(4, 2, u3=[1.0, 0.0])), "diagonal.*u3"),
    "splu-l3-1e-305": (record(3, [4, 2], splu_payload(4, 2, l3=[1e-305, 1.0])),
                       "diagonal.*l3"),
    "splu-inf-l2": (record(3, [4, 2], splu_payload(4, 2, l2=[[0.0, np.inf], [0.0, 0.0]])),
                    "non-finite.*l2"),
    "splu-order-above-dim": (record(3, [4, 5], splu_payload(4, 4)), "order"),
    "dense-zero-dim": (record(1, [0], []), "dimension"),
    "unknown-tag": (record(9, [2], np.eye(2)), "tag"),
    "negative-diagonal-in-direct-sum": (
        b"PCS1" + struct.pack("<BIQI", 6, 0, 0, 1) + struct.pack("<H", 1) + b"a"
        + record(2, [2], [1.0, -1.0]), "diagonal.*q"),
    # sized and checked before anything is allocated
    "dense-dim-2^40": (record(1, [2 ** 40], []), "payload"),
    "dense-dim-2^31-payload-missing": (
        b"PCS1" + struct.pack("<BIQQ", 1, 1, 2 ** 31, 2 ** 62), "truncated"),
    "direct-sum-nested-5000-deep": (
        direct_sum_header() * 5000 + record(2, [2], [1.0, 1.0]), "nested"),
    "direct-sum-name-not-utf8": (direct_sum_header(b"\xff") + record(2, [1], [1.0]), "UTF-8"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_record_rejected(name):
    data, fault = MALFORMED[name]
    with pytest.raises(PsgdkitError, match=fault):
        state_from_bytes(data)


def test_diagonal_above_the_floor_loads():
    # 1e-299 is above the 1e-300 floor, so the state loads as written
    p = state_from_bytes(record(1, [2], [[1e-299, 0.0], [0.0, 1.0]]))
    assert p.q.tobytes() == np.array([[1e-299, 0.0], [0.0, 1.0]]).tobytes()
    assert p.min_diag() == 1e-299
