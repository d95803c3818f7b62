"""Value types: the wire messages and the verdict are immutable records
backed by a tuple, with a frozen dataclass's surface."""

from __future__ import annotations

import pickle

import pytest

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

