"""Value types: the wire messages and the verdict are immutable records
backed by a tuple, with a frozen dataclass's surface. The device's frozen
records, ``crypto.VerifyKey`` among them, are slotted classes written out
in source on ``crypto.Frozen``, with a frozen dataclass's equality, hashing
and immutability."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil

import pytest

import attestsim
from attestsim.boot import ProcessSpec
from attestsim.crypto import SignKey, SignMode, VerifyKey
from attestsim.kernel import (
    Call,
    Capability,
    Frozen,
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
    (Capability, {"kind": "endpoint", "obj": 2, "rights": Rights(write=True),
                  "badge": 9}),
    (RegionRequest, {"region": "self_code", "rights": READ_EXEC}),
    (Call, {"cap": 1, "msg_len": 8}),
    (Recv, {"cap": 2}),
    (NetRecv, {}),
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
    # no record has a __dict__, so nothing can be attached to one
    assert not hasattr(by_keyword, "__dict__")
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


@pytest.mark.parametrize("cls,fields", FROZEN,
                         ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_record_copies_and_pickles(cls, fields):
    """A copy, a deep copy and a pickle round trip each rebuild an equal
    record of the same type."""
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value


def test_every_record_is_listed():
    """Each ``Frozen`` record the package defines is pinned above,
    so a new record cannot go untested."""
    for module in pkgutil.iter_modules(attestsim.__path__):
        importlib.import_module(f"attestsim.{module.name}")
    records = {cls for cls in Frozen.__subclasses__()
               if cls.__module__.startswith("attestsim.")}
    assert records <= {cls for cls, _ in FROZEN}


@pytest.mark.parametrize("mode", list(SignMode))
def test_verify_key_holds_only_its_modes_state(mode):
    """A key builds its own mode's check state when it is made, and the
    other mode's is ``None``; equality, hashing and the repr see only
    ``mode`` and ``material``, not the state objects each key holds."""
    material = SignKey(mode, b"\x07" * 32).verify_key().material
    key, twin = VerifyKey(mode, material), VerifyKey(mode, material)
    if mode is SignMode.HMAC:
        own, other, twins = key._hmac_pads, key._ed25519, twin._hmac_pads
    else:
        own, other, twins = key._ed25519, key._hmac_pads, twin._ed25519
    assert own is not None and other is None
    assert own is not twins
    assert key == twin and hash(key) == hash(twin)
    assert repr(key) == repr(twin) == (
        f"VerifyKey(mode={mode!r}, material={material!r})")
