"""User-process side scaffolding: the network relay program.

A relay program is what an attestable user process runs in this simulator.
It owns an X25519 keypair (the private half lives only in the program
closure) and forwards challenges to the signing process over its badged
endpoint capability. Its network events are the wire messages themselves:
the daemon injects the ``AttestRequest`` or ``ChannelInit`` it decoded,
and the relay emits the ``AttestResponse`` or ``ChannelConfirm`` to send
back, or a :class:`NetChannelFail` that the daemon turns into an error
frame. The programs themselves never see sockets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Generator, Optional

from .crypto import (
    CHANNEL_AD_CONFIRM,
    CHANNEL_AD_INIT,
    NONCE_LEN,
    AllZeroSharedSecretError,
    derive_session_key,
    open_sealed,
    seal,
    x25519_keypair,
)
from .kernel import Call, NetRecv, ProcessApi
from .signing import REQUEST_LEN, bytes_from_words_be, words_from_bytes_be
from .wire import AttestRequest, AttestResponse, ChannelConfirm, ChannelInit


@dataclass(frozen=True)
class NetChannelFail:
    reason: str


def make_relay_program(sp_cap: int):
    """Program factory for a standard relay user process.

    ``sp_cap`` is the handle of the badged send capability to the signing
    endpoint. The channel private key is drawn fresh, built into its key
    object once, captured in the closure, and never leaves it.
    """
    private, pk = x25519_keypair()
    pk_words = words_from_bytes_be(pk)

    def program(ctx: ProcessApi) -> Generator:
        last: Optional[tuple[bytes, bytes]] = None    # (chal, sigma)
        net_recv = NetRecv()
        call = Call(sp_cap, REQUEST_LEN)
        get_mr, set_mr = ctx.get_mr, ctx.set_mr
        while True:
            event = yield net_recv
            if isinstance(event, AttestRequest):
                pid, chal = event
                for i, word in enumerate(words_from_bytes_be(chal) + pk_words):
                    set_mr(i, word)
                reply_len = yield call
                status = get_mr(0)
                sigma = bytes_from_words_be(
                    [get_mr(i) for i in range(1, reply_len)])
                if status == 0:
                    last = (chal, sigma)
                ctx.net_send(AttestResponse(status, pid, pk, sigma))
            elif isinstance(event, ChannelInit):
                if last is None:
                    ctx.net_send(NetChannelFail("no prior attestation"))
                    continue
                chal, sigma = last
                transcript = chal + pk + sigma
                try:
                    key = derive_session_key(private, event.eph_pk, transcript)
                except AllZeroSharedSecretError:
                    ctx.net_send(NetChannelFail("degenerate peer key"))
                    continue
                token = open_sealed(key, event.nonce, event.ct, CHANNEL_AD_INIT)
                if token is None:
                    ctx.net_send(NetChannelFail("init did not authenticate"))
                    continue
                nonce = os.urandom(NONCE_LEN)
                ctx.net_send(ChannelConfirm(
                    nonce, seal(key, nonce, token, CHANNEL_AD_CONFIRM)))
            else:
                ctx.net_send(NetChannelFail(f"unhandled event {type(event).__name__}"))

    return program
