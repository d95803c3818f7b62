"""Prover daemon: boots the simulated device, then serves the wire protocol.

Boot happens before the listening socket is opened, so a connectable
daemon implies a fully measured, finalized device. The server is single
threaded on purpose: the simulated device has one core and the kernel
object is not shared between threads. ``ProverServer.serve_forever`` is
the daemon's one loop, run by ``proverd`` and by ``BackgroundDaemon``'s
thread alike: it accepts a connection, serves it to the end, ends its
side of the stream (FIN) and closes it, then accepts the next, in accept
order. A connection may carry any number of frames. The loop has no
timer: it blocks in ``accept`` until ``ProverServer.shutdown`` wakes it,
then closes the listener and returns.

Two owners split each connection. ``Connection`` owns the protocol:
framing, routing, the channel binding and the error policy, as bytes in
and bytes out. ``ProverServer.finish_request`` owns the socket and only
moves bytes between the two. The socket stays blocking, and the host
kernel enforces the ``IO_TIMEOUT`` deadline on every read and write
(``SO_RCVTIMEO`` and ``SO_SNDTIMEO``, set by ``wire.set_deadlines``), so
no call waits longer than that. Python's own socket timeout would add a
``poll()`` before every ``recv`` and ``send``. A deadline that expires
raises ``OSError``, and the connection is dropped.

Frame handling is total. A frame that parses but cannot be honored gets
an Error frame back, and so does a reply that a user process built but
the codec refuses; a stream whose framing can no longer be trusted
(oversize declared length, torn frame) is closed. The daemon never
crashes on input.

A fault in the device is contained where it happens. A relay process that
faults is retired by the kernel, so its pid answers ``ERR_UNKNOWN_PID``
from then on. A signer that faults leaves every relay that called it
blocked for good (the kernel's rendezvous rule), so the runtime fails
stop: every later request, on any pid, is answered ``ERR_INTERNAL``
without reaching the kernel. Either fault is logged once, as a
``phase=fault`` line.
"""

from __future__ import annotations

import argparse
import logging
import socket
import sys
import threading
from typing import Optional

from .boot import RESERVED_PID_BASE, SP_PID, BootedSystem, bring_up
from .crypto import CHAL_LEN
from .kernel import ProcState
from .provision import load_anchors, load_keystore, load_user_manifest
from .userland import BoundChannelInit, NetChannelFail, make_relay_program
from .wire import (
    ERR_BAD_REQUEST,
    ERR_CHANNEL,
    ERR_INTERNAL,
    ERR_NO_CONTEXT,
    ERR_UNKNOWN_PID,
    READ_SIZE,
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameDecoder,
    WireError,
    WireMessage,
    decode_payload,
    encode,
    parse_address,
    set_deadlines,
)

log = logging.getLogger(__name__)

DEFAULT_LISTEN = "0.0.0.0:7411"
IO_TIMEOUT = 10.0


class NotAttestableError(KeyError):
    """The pid names no live relay process of the device."""


class DeviceFaultError(RuntimeError):
    """The signer faulted earlier; the device serves no request any more."""


class ProverConfig:
    def __init__(self, host: str, port: int, keystore_path: str,
                 anchors_path: str, manifest_path: str):
        self.host = host
        self.port = port
        self.keystore_path = keystore_path
        self.anchors_path = anchors_path
        self.manifest_path = manifest_path


class ProverRuntime:
    """The booted device plus the event plumbing the daemon drives.

    Also usable without any socket: ``attest_once`` and ``channel_once``
    inject a host event, run the kernel to quiescence, and return the
    single event the target process emitted. ``channel_once`` is given the
    ``chal`` and ``sigma`` of the accepted attestation its channel binds to.

    Both raise ``NotAttestableError`` (a ``KeyError``) for a reserved pid or
    one the kernel does not hold live, and ``DeviceFaultError`` once
    ``fault`` holds the exception a signer fault raised.
    """

    def __init__(self, system: BootedSystem):
        self.kernel = system.kernel
        self.sp_state = system.sp_state
        self.fault: Optional[Exception] = None

    @property
    def up_pids(self) -> set[int]:
        """The pids that answer: the kernel's live user processes."""
        return {pid for pid in self.kernel.live_pids() if pid < RESERVED_PID_BASE}

    def attest_once(self, pid: int, chal: bytes) -> AttestResponse:
        if len(chal) != CHAL_LEN:
            raise ValueError(f"chal must be {CHAL_LEN} bytes")
        return self._exchange(pid, tuple.__new__(AttestRequest, (pid, chal)),
                              AttestResponse)

    def channel_once(self, pid: int, chal: bytes, sigma: bytes,
                     init: ChannelInit) -> ChannelConfirm | NetChannelFail:
        return self._exchange(pid, BoundChannelInit(init, chal, sigma),
                              (ChannelConfirm, NetChannelFail))

    def _exchange(self, pid: int, event: WireMessage | BoundChannelInit,
                  expected: type | tuple[type, ...]):
        if self.fault is not None:
            raise DeviceFaultError(f"the signer faulted: {self.fault!r}")
        # the signer is live too: an event injected there would never be read
        if pid >= RESERVED_PID_BASE:
            raise NotAttestableError(f"pid {pid} is reserved")
        kernel = self.kernel
        if not kernel.inject_net(pid, event):
            raise NotAttestableError(f"pid {pid} is not live")
        try:
            kernel.run()
        except Exception as e:
            self._contain(pid, e)
            raise
        events = kernel.drain_net(pid)
        if len(events) != 1 or not isinstance(events[0], expected):
            raise RuntimeError(
                f"pid {pid} emitted {events!r} for {type(event).__name__}")
        return events[0]

    def _contain(self, target: int, error: Exception) -> None:
        """Log the process ``Kernel.run`` retired for ``error``: a retired
        relay's pid already answers no more, and a signer stops the device."""
        state = self.kernel.process_state
        if state(SP_PID) is ProcState.TERMINATED:
            self.fault = error
            target = SP_PID
        elif state(target) is not ProcState.TERMINATED:
            return
        log.error("phase=fault pid=%d error=%r", target, error)


def build_runtime(config: ProverConfig) -> ProverRuntime:
    """Load inputs, run the measured-boot pipeline, return the runtime."""
    key = load_keystore(config.keystore_path)
    anchors = load_anchors(config.anchors_path)
    specs = load_user_manifest(config.manifest_path)
    return ProverRuntime(bring_up(anchors, specs, key, make_relay_program))


class Connection:
    """One connection's protocol, with no socket and no clock (sans-IO).
    ``bound`` is the ``(pid, chal, sigma)`` of its last accepted attestation."""

    def __init__(self, runtime: ProverRuntime):
        self.runtime = runtime
        self.decoder = FrameDecoder()
        self.bound: Optional[tuple[int, bytes, bytes]] = None

    def receive(self, data: bytes) -> bytes:
        """The replies to every frame ``data`` completes, in order; bytes
        after the last whole frame wait in ``decoder.pending`` for the next
        call. Lost framing (``decoder.lost``) ends the replies with one
        error frame, after which every call returns ``b""``."""
        if self.decoder.lost is not None:
            return b""
        replies = []
        for item in self.decoder.feed(data):
            try:
                frame = decode_payload(*item)
            except WireError:
                # the declared length was consumed, so the stream is still in sync
                replies.append(encode(ErrorMsg(ERR_BAD_REQUEST)))
                continue
            try:
                # a user process may emit a reply that encode refuses
                reply = encode(self._route(frame))
            except Exception:
                log.exception("handler fault on %r", type(frame).__name__)
                reply = encode(ErrorMsg(ERR_INTERNAL))
            replies.append(reply)
        if self.decoder.lost is not None:
            # framing can't be trusted past the bad header: answer, then close
            replies.append(encode(ErrorMsg(ERR_BAD_REQUEST)))
        return b"".join(replies)

    def _route(self, msg: WireMessage) -> WireMessage:
        try:
            if isinstance(msg, AttestRequest):
                pid, chal = msg
                reply = self.runtime.attest_once(pid, chal)
                if reply.status == 0:
                    self.bound = (pid, chal, reply.sigma)
                return reply
            if isinstance(msg, ChannelInit):
                # no pid on the wire for channel frames: route to the pid of
                # the connection's last accepted attestation
                if self.bound is None:
                    return ErrorMsg(ERR_NO_CONTEXT)
                outcome = self.runtime.channel_once(*self.bound, msg)
                if isinstance(outcome, NetChannelFail):
                    log.info("channel refused for pid=%d: %s", self.bound[0], outcome.reason)
                    return ErrorMsg(ERR_CHANNEL)
                return outcome
        except NotAttestableError:
            return ErrorMsg(ERR_UNKNOWN_PID)
        except DeviceFaultError:
            return ErrorMsg(ERR_INTERNAL)       # logged when it faulted
        # clients have no business sending responses, confirms, or errors
        return ErrorMsg(ERR_BAD_REQUEST)


class ProverServer:
    """The daemon: boots the device from ``config``, then binds and logs
    the ``phase=listen`` line. ``proverd`` and ``BackgroundDaemon`` both
    start through here and run ``serve_forever``."""

    def __init__(self, config: ProverConfig):
        self.runtime = build_runtime(config)
        self.socket = socket.create_server((config.host, config.port))
        self.server_address = self.socket.getsockname()
        self.stopping = False
        log.info("phase=listen host=%s port=%d pids=%s mode=%s",
                 *self.server_address, sorted(self.runtime.up_pids),
                 self.runtime.sp_state.sign_key.mode.value)

    def serve_forever(self) -> None:
        """Serve one connection at a time, in accept order, until
        ``shutdown``; then close the listener."""
        try:
            while True:
                try:
                    request, client_address = self.socket.accept()
                except OSError:
                    if self.stopping:
                        return
                    continue        # a peer gone before accept, say: skip it
                with request:
                    self.finish_request(request, client_address)
                    try:
                        # FIN first: close resets a stream with input left
                        # unread, and the peer then reads end of stream first
                        request.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass        # the peer is gone already
        finally:
            self.socket.close()

    def shutdown(self) -> None:
        """Make ``serve_forever`` return, from any thread, once the
        connection it serves ends: a listener shut down fails ``accept``."""
        self.stopping = True
        self.socket.shutdown(socket.SHUT_RDWR)

    def finish_request(self, request: socket.socket, client_address) -> None:
        """One connection: each read goes to a ``Connection``, and its
        replies go back in one ``sendall``, until EOF, an expired deadline,
        or loss of sync."""
        set_deadlines(request, IO_TIMEOUT)
        conn = Connection(self.runtime)
        try:
            while conn.decoder.lost is None and (data := request.recv(READ_SIZE)):
                if replies := conn.receive(data):
                    request.sendall(replies)
        except OSError:
            pass            # an expired deadline or a reset: drop the connection


class BackgroundDaemon:
    """Daemon on a thread, for tests and the attack harness."""

    def __init__(self, config: ProverConfig):
        self.server = ProverServer(config)
        self.runtime = self.server.runtime
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server.server_address
        return ("127.0.0.1" if host == "0.0.0.0" else host, port)

    def __enter__(self) -> "BackgroundDaemon":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.thread.join()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="proverd",
        description="Boot the simulated attestation device and serve "
                    "verifier connections.")
    parser.add_argument("--listen", default=DEFAULT_LISTEN,
                        help="host:port to bind (default %(default)s)")
    parser.add_argument("--keystore", required=True,
                        help="signing keystore file (hex secret + mode tag)")
    parser.add_argument("--anchors", required=True,
                        help="trust-anchor JSON with image digests")
    parser.add_argument("--manifest", required=True,
                        help="user-process manifest JSON")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        host, port = parse_address(args.listen)
        config = ProverConfig(
            host=host, port=port, keystore_path=args.keystore,
            anchors_path=args.anchors, manifest_path=args.manifest)
        ProverServer(config).serve_forever()
    except KeyboardInterrupt:
        return 0
    except Exception as e:
        print(f"proverd: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
