"""User-process side scaffolding: the network relay program.

A relay program is what an attestable user process runs in this simulator.
It owns an X25519 keypair (the private half lives only in the program
closure) and forwards challenges to the signing process over its badged
endpoint capability. Its network events are the ``AttestRequest`` the
daemon decoded, or a ``ChannelInit`` in a :class:`BoundChannelInit` with
the attestation its channel binds to (the relay keeps none). It emits the
``AttestResponse`` or ``ChannelConfirm`` to send back, or a
:class:`NetChannelFail` that the daemon turns into an error frame. The
programs themselves never see sockets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Generator

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
from .signing import REQUEST_LEN, WORDS
from .wire import AttestRequest, AttestResponse, ChannelConfirm, ChannelInit


@dataclass(frozen=True)
class NetChannelFail:
    reason: str


@dataclass(frozen=True)
class BoundChannelInit:
    """A ``ChannelInit`` and the accepted attestation its channel binds to."""
    init: ChannelInit
    chal: bytes
    sigma: bytes


def make_relay_program(spec, sp_cap: int):
    """``boot.ProgramFactory`` of a standard relay user process (any ``spec``).

    ``sp_cap`` is the handle of the badged send capability to the signing
    endpoint. The channel private key is drawn fresh, built into its key
    object once, captured in the closure, and never leaves it. A channel
    key binds the event's ``chal`` and ``sigma`` and the relay's own ``pk``.
    """
    private, pk = x25519_keypair()
    pk_words = WORDS[4].unpack(pk)

    def program(ctx: ProcessApi) -> Generator:
        net_recv = NetRecv()
        call = Call(sp_cap, REQUEST_LEN)
        get_mr, set_mr, net_send = ctx.get_mr, ctx.set_mr, ctx.net_send
        chal_words = WORDS[4].unpack
        while True:
            event = yield net_recv
            if type(event) is AttestRequest:
                pid, chal = event
                for i, word in enumerate(chal_words(chal) + pk_words):
                    set_mr(i, word)
                reply_len = yield call
                # the reply is the status, then the token's words, if any
                status = get_mr(0)
                sigma = WORDS[reply_len - 1].pack(*map(get_mr, range(1, reply_len)))
                net_send(AttestResponse(status, pid, pk, sigma))
            elif isinstance(event, BoundChannelInit):
                init = event.init
                transcript = event.chal + pk + event.sigma
                try:
                    key = derive_session_key(private, init.eph_pk, transcript)
                except AllZeroSharedSecretError:
                    net_send(NetChannelFail("degenerate peer key"))
                    continue
                token = open_sealed(key, init.nonce, init.ct, CHANNEL_AD_INIT)
                if token is None:
                    net_send(NetChannelFail("init did not authenticate"))
                    continue
                nonce = os.urandom(NONCE_LEN)
                net_send(ChannelConfirm(
                    nonce, seal(key, nonce, token, CHANNEL_AD_CONFIRM)))
            else:
                net_send(NetChannelFail(f"unhandled event {type(event).__name__}"))

    return program
