"""Value types: the wire messages and the verdict are immutable records
backed by a tuple, with a frozen dataclass's surface. The device's frozen
records are slotted classes written out in source (``kernel.Frozen``, and
``crypto.VerifyKey``), with a frozen dataclass's equality, hashing and
immutability."""

from __future__ import annotations

import pickle

import pytest

from attestsim.boot import ImageManifest, ProcessSpec
from attestsim.crypto import SignKey, SignMode, VerifyKey
from attestsim.kernel import (
    Call,
    Capability,
    KernelProcessSpec,
    NetRecv,
    RegionRequest,
    Recv,
    Rights,
)
from attestsim.userland import BoundChannelInit, NetChannelFail
from attestsim.verifier import AttestResult
from attestsim.wire import (
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    record,
)

VALUES = [
    (AttestRequest, {"pid": 1, "chal": b"\x01" * 32}),
    (AttestResponse, {"status": 0, "pid": 2, "pk": b"\x02" * 32,
                      "sigma": b"\x03" * 32}),
    (ChannelInit, {"eph_pk": b"\x04" * 32, "nonce": b"\x05" * 12,
                   "ct": b"\x06" * 16}),
    (ChannelConfirm, {"nonce": b"\x07" * 12, "ct": b"\x08" * 16}),
    (ErrorMsg, {"code": 3}),
    (AttestResult, {"device_id": "dev0", "pid": 4, "chal": b"\x0a" * 32,
                    "pk": b"\x0b" * 32, "sigma": b"\x0c" * 64,
                    "measurement": b"\x0d" * 32}),
]


def _twin(cls: type) -> type:
    """A record of another type, with the same name and fields."""
    return record(type(cls.__name__, (), {
        "__annotations__": dict.fromkeys(cls._fields, "object"),
        "__module__": __name__}))


@pytest.mark.parametrize("cls,fields", VALUES,
                         ids=[cls.__name__ for cls, _ in VALUES])
def test_value_type(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    # the type is part of the value
    assert by_keyword != tuple(by_keyword)
    assert tuple(by_keyword) != by_keyword
    twin = _twin(cls)(*fields.values())
    assert by_keyword != twin and not by_keyword == twin
    assert len({by_keyword, by_position, twin, tuple(by_keyword)}) == 3
    assert repr(by_keyword) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in fields.items()))
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword


def test_repr_shape():
    assert repr(AttestRequest(pid=1, chal=b"\x00\xff")) == (
        "AttestRequest(pid=1, chal=b'\\x00\\xff')")



READ_EXEC = Rights(read=True, execute=True)
FROZEN = [
    (Rights, {"read": True, "write": False, "execute": True}),
    (Capability, {"handle": 1, "kind": "endpoint", "obj": 2,
                  "rights": Rights(write=True), "badge": 9}),
    (RegionRequest, {"region": "self_code", "rights": READ_EXEC}),
    (KernelProcessSpec, {"pid": 1, "code": b"\x01" * 8,
                         "regions": (RegionRequest("self_code", READ_EXEC),)}),
    (Call, {"cap": 1, "msg_len": 8}),
    (Recv, {"cap": 2}),
    (NetRecv, {}),
    (ImageManifest, {"kernel_image": b"k", "rp_image": b"r",
                     "expected_kernel_sha256": b"\x01" * 32,
                     "expected_rp_sha256": b"\x02" * 32}),
    (ProcessSpec, {"pid": 3, "binary": b"\x7fELF", "regions": ()}),
    (VerifyKey, {"mode": SignMode.HMAC, "material": b"\x11" * 32}),
    (NetChannelFail, {"reason": "init did not authenticate"}),
    (BoundChannelInit, {"init": ChannelInit(b"\x04" * 32, b"\x05" * 12,
                                            b"\x06" * 16),
                        "chal": b"\x0a" * 32, "sigma": b"\x0b" * 32}),
]


@pytest.mark.parametrize("cls,fields", FROZEN,
                         ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_record(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert tuple(cls.__slots__[:len(fields)]) == tuple(fields)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    # only VerifyKey has a __dict__, for its cached values
    assert hasattr(by_keyword, "__dict__") == (cls is VerifyKey)
    # the type is part of the value: no plain tuple, and no instance of
    # another class with the same name and field values, is equal
    values = tuple(fields.values())
    assert by_keyword != values and not by_keyword == values
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(*values)
    assert by_keyword != twin and not by_keyword == twin
    assert twin != by_keyword
    assert len({by_keyword, by_position, twin, values}) == 3
    assert repr(by_keyword) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in fields.items()))


@pytest.mark.parametrize("mode", list(SignMode))
def test_verify_key_ignores_its_cache(mode):
    material = SignKey(mode, b"\x07" * 32).verify_key().material
    cached, fresh = VerifyKey(mode, material), VerifyKey(mode, material)
    cached._hmac_pads, cached._ed25519          # built on first use, then kept
    assert set(vars(cached)) == {"_hmac_pads", "_ed25519"}
    assert vars(fresh) == {}
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == (
        f"VerifyKey(mode={mode!r}, material={material!r})")
