"""Prover daemon: boots the simulated device, then serves the wire protocol.

Boot happens before the listening socket is opened, so a connectable
daemon implies a fully measured, finalized device. The server is single
threaded on purpose: the simulated device has one core and the kernel
object is not shared between threads. Connections are serviced one at a
time and may carry any number of frames.

Each connection's socket stays blocking, and the host kernel enforces the
``IO_TIMEOUT`` deadline on every read and write (``SO_RCVTIMEO`` and
``SO_SNDTIMEO``, set by ``wire.set_deadlines``), so no call waits longer
than that. Python's own socket timeout would add a ``poll()`` before every
``recv`` and ``send``. A deadline that expires raises ``OSError``, and the
connection is dropped.

Frame handling is total. A frame that parses but cannot be honored gets
an Error frame back; a stream whose framing can no longer be trusted
(oversize declared length, torn frame) is closed. The daemon never
crashes on input.

A fault in the device is contained where it happens. A relay process that
faults is retired by the kernel and its pid leaves ``up_pids``, so that pid
answers ``ERR_UNKNOWN_PID`` from then on. A signer that faults leaves every
relay that called it blocked for good (the kernel's rendezvous rule), so
the runtime fails stop: every later request, on any pid, is answered
``ERR_INTERNAL`` without reaching the kernel. Either fault is logged once,
as a ``phase=fault`` line.
"""

from __future__ import annotations

import argparse
import logging
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass
from typing import Optional

from .boot import (
    SP_PID,
    BootedSystem,
    bring_up,
    image_manifest,
    load_anchors,
    load_user_manifest,
)
from .crypto import CHAL_LEN, load_keystore
from .kernel import ProcState
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
    LostSync,
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

Binding = tuple[int, bytes, bytes]  # (pid, chal, sigma) last accepted


class NotAttestableError(KeyError):
    """The pid names no live relay process of the device."""


class DeviceFaultError(RuntimeError):
    """The signer faulted earlier; the device serves no request any more."""


@dataclass
class ProverConfig:
    host: str = "0.0.0.0"
    port: int = 7411
    keystore_path: str = "keystore.hex"
    anchors_path: str = "anchors.json"
    manifest_path: str = "manifest.json"


class ProverRuntime:
    """The booted device plus the event plumbing the daemon drives.

    Also usable without any socket: ``attest_once`` and ``channel_once``
    inject a host event, run the kernel to quiescence, and return the
    single event the target process emitted. ``channel_once`` is given the
    ``chal`` and ``sigma`` of the accepted attestation its channel binds to.

    Both raise ``NotAttestableError`` (a ``KeyError``) for a pid outside
    ``up_pids``, and ``DeviceFaultError`` once ``fault`` holds the
    exception a signer fault raised.
    """

    def __init__(self, system: BootedSystem):
        self.kernel = system.kernel
        self.report = system.report
        self.up_pids = set(system.report.up_pids())
        self.fault: Optional[Exception] = None

    def attest_once(self, pid: int, chal: bytes) -> AttestResponse:
        if len(chal) != CHAL_LEN:
            raise ValueError(f"chal must be {CHAL_LEN} bytes")
        return self._exchange(pid, AttestRequest(pid, chal), AttestResponse)

    def channel_once(self, pid: int, chal: bytes, sigma: bytes,
                     init: ChannelInit) -> ChannelConfirm | NetChannelFail:
        return self._exchange(pid, BoundChannelInit(init, chal, sigma),
                              (ChannelConfirm, NetChannelFail))

    def _exchange(self, pid: int, event: WireMessage | BoundChannelInit,
                  expected: type | tuple[type, ...]):
        if self.fault is not None:
            raise DeviceFaultError(f"the signer faulted: {self.fault!r}")
        if pid not in self.up_pids:
            raise NotAttestableError(f"pid {pid} is not an attestable process")
        kernel = self.kernel
        kernel.inject_net(pid, event)
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
        """Take the process ``Kernel.run`` retired for ``error`` out of
        service: a relay loses its pid, a signer stops the device."""
        state = self.kernel.process_state
        if state(SP_PID) is ProcState.TERMINATED:
            self.fault = error
            pid = SP_PID
        elif state(target) is ProcState.TERMINATED:
            self.up_pids.discard(target)
            pid = target
        else:
            return
        log.error("phase=fault pid=%d error=%r", pid, error)


def build_runtime(config: ProverConfig) -> ProverRuntime:
    """Load inputs, run the measured-boot pipeline, return the runtime."""
    key = load_keystore(config.keystore_path)
    anchors = load_anchors(config.anchors_path)
    specs = load_user_manifest(config.manifest_path)
    return ProverRuntime(bring_up(image_manifest(anchors), specs, key, make_relay_program))


class ProverServer(socketserver.TCPServer):
    """The daemon: boots the device from ``config``, then binds and logs
    the ``phase=listen`` line. ``proverd`` and ``BackgroundDaemon`` both
    start through here."""

    allow_reuse_address = True

    def __init__(self, config: ProverConfig):
        self.runtime = build_runtime(config)
        # no handler class: finish_request serves each connection itself
        super().__init__((config.host, config.port), None)
        log.info("phase=listen host=%s port=%d pids=%s mode=%s",
                 *self.server_address[:2], sorted(self.runtime.up_pids),
                 self.runtime.report.mode)

    def finish_request(self, request: socket.socket, client_address) -> None:
        """One connection: a loop of reads until EOF, an expired deadline,
        or loss of sync.

        Every complete frame of a read is answered, in order, and the
        replies go back in one ``sendall``.
        """
        set_deadlines(request, IO_TIMEOUT)
        decoder = FrameDecoder()
        bound: Optional[Binding] = None
        try:
            while data := request.recv(READ_SIZE):
                replies = bytearray()
                for item in decoder.feed(data):
                    if isinstance(item, LostSync):
                        # framing can't be trusted past this point; answer and drop
                        replies += encode(ErrorMsg(ERR_BAD_REQUEST))
                        request.sendall(replies)
                        return
                    try:
                        frame = decode_payload(*item)
                    except WireError:
                        # the declared length was consumed, so the stream is
                        # still in sync
                        replies += encode(ErrorMsg(ERR_BAD_REQUEST))
                        continue
                    try:
                        reply, bound = self._route(frame, bound)
                    except Exception:
                        log.exception("handler fault on %r", type(frame).__name__)
                        reply = ErrorMsg(ERR_INTERNAL)
                    replies += encode(reply)
                if replies:
                    request.sendall(replies)
        except OSError:
            pass            # an expired deadline or a reset: drop the connection

    def _route(self, msg: WireMessage, bound: Optional[Binding]
               ) -> tuple[WireMessage, Optional[Binding]]:
        runtime = self.runtime
        try:
            if isinstance(msg, AttestRequest):
                pid, chal = msg
                reply = runtime.attest_once(pid, chal)
                return reply, (pid, chal, reply.sigma) if reply.status == 0 else bound
            if isinstance(msg, ChannelInit):
                # no pid on the wire for channel frames: route to the pid of
                # the connection's last accepted attestation
                if bound is None:
                    return ErrorMsg(ERR_NO_CONTEXT), bound
                outcome = runtime.channel_once(*bound, msg)
                if isinstance(outcome, NetChannelFail):
                    log.info("channel refused for pid=%d: %s", bound[0], outcome.reason)
                    return ErrorMsg(ERR_CHANNEL), bound
                return outcome, bound
        except NotAttestableError:
            return ErrorMsg(ERR_UNKNOWN_PID), bound
        except DeviceFaultError:
            return ErrorMsg(ERR_INTERNAL), bound    # logged when it faulted
        # clients have no business sending responses, confirms, or errors
        return ErrorMsg(ERR_BAD_REQUEST), bound


class BackgroundDaemon:
    """Daemon on a thread, for tests and the attack harness."""

    def __init__(self, config: ProverConfig):
        self.server = ProverServer(config)
        self.runtime = self.server.runtime
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server.server_address[:2]
        return ("127.0.0.1" if host == "0.0.0.0" else host, port)

    def __enter__(self) -> "BackgroundDaemon":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


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
        with ProverServer(config) as server:
            server.serve_forever()
    except KeyboardInterrupt:
        return 0
    except Exception as e:
        print(f"proverd: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
