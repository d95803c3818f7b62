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
    DEFAULT_CAPACITY,
    BootedSystem,
    bring_up,
    image_manifest,
    load_anchors,
    load_user_manifest,
)
from .crypto import CHAL_LEN, SignKey, SignMode, load_keystore
from .userland import NetChannelFail
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
    set_deadlines,
)

log = logging.getLogger(__name__)

DEFAULT_LISTEN = "0.0.0.0:7411"
IO_TIMEOUT = 10.0


@dataclass
class ProverConfig:
    host: str = "0.0.0.0"
    port: int = 7411
    keystore_path: str = "keystore.hex"
    anchors_path: str = "anchors.json"
    manifest_path: str = "manifest.json"
    capacity: int = DEFAULT_CAPACITY
    mode_override: Optional[SignMode] = None


class ProverRuntime:
    """The booted device plus the event plumbing the daemon drives.

    Also usable without any socket: ``attest_once`` and ``channel_once``
    inject a wire message as a host event, run the kernel to quiescence,
    and return the single event the target process emitted.
    """

    def __init__(self, system: BootedSystem):
        self.system = system
        self.kernel = system.kernel
        self.report = system.report
        self.up_pids = set(system.report.up_pids())

    def attest_once(self, pid: int, chal: bytes) -> AttestResponse:
        if len(chal) != CHAL_LEN:
            raise ValueError(f"chal must be {CHAL_LEN} bytes")
        return self._exchange(pid, AttestRequest(pid, chal), AttestResponse)

    def channel_once(self, pid: int, init: ChannelInit
                     ) -> ChannelConfirm | NetChannelFail:
        return self._exchange(pid, init, (ChannelConfirm, NetChannelFail))

    def _exchange(self, pid: int, event: WireMessage,
                  expected: type | tuple[type, ...]):
        if pid not in self.up_pids:
            raise KeyError(f"pid {pid} is not an attestable process")
        self.kernel.inject_net(pid, event)
        self.kernel.run()
        events = self.kernel.drain_net(pid)
        if len(events) != 1 or not isinstance(events[0], expected):
            raise RuntimeError(
                f"pid {pid} emitted {events!r} for {type(event).__name__}")
        return events[0]


def build_runtime(config: ProverConfig) -> ProverRuntime:
    """Load inputs, run the measured-boot pipeline, return the runtime."""
    key = load_keystore(config.keystore_path)
    if config.mode_override is not None and config.mode_override is not key.mode:
        key = SignKey(config.mode_override, key.secret_bytes())
    anchors = load_anchors(config.anchors_path)
    specs = load_user_manifest(config.manifest_path)
    system = bring_up(image_manifest(anchors), specs, key,
                      capacity=config.capacity)
    return ProverRuntime(system)


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a loop of reads until EOF or loss of sync.

    Every complete frame of a read is answered, in order, and the replies
    go back in one ``sendall``.
    """

    def handle(self) -> None:  # noqa: D102 (behavior described on the class)
        server: "ProverServer" = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        set_deadlines(sock, IO_TIMEOUT)
        decoder = FrameDecoder()
        last_pid: Optional[int] = None
        while True:
            try:
                data = sock.recv(READ_SIZE)
            except OSError:
                return
            if not data:
                return
            replies = bytearray()
            for item in decoder.feed(data):
                if isinstance(item, LostSync):
                    # framing can't be trusted past this point; answer and drop
                    replies += encode(ErrorMsg(ERR_BAD_REQUEST))
                    self._send(sock, replies)
                    return
                try:
                    frame = decode_payload(*item)
                except WireError:
                    # the declared length was consumed, so the stream is
                    # still in sync
                    replies += encode(ErrorMsg(ERR_BAD_REQUEST))
                    continue
                try:
                    reply, last_pid = self._route(server, frame, last_pid)
                except Exception:
                    log.exception("handler fault on %r", type(frame).__name__)
                    reply = ErrorMsg(ERR_INTERNAL)
                replies += encode(reply)
            if replies and not self._send(sock, replies):
                return

    @staticmethod
    def _send(sock: socket.socket, data: bytes) -> bool:
        try:
            sock.sendall(data)
            return True
        except OSError:
            return False

    def _route(self, server: "ProverServer", msg: WireMessage,
               last_pid: Optional[int]) -> tuple[WireMessage, Optional[int]]:
        runtime = server.runtime
        if isinstance(msg, AttestRequest):
            if msg.pid not in runtime.up_pids:
                return ErrorMsg(ERR_UNKNOWN_PID), last_pid
            return runtime.attest_once(msg.pid, msg.chal), msg.pid
        if isinstance(msg, ChannelInit):
            # no pid on the wire for channel frames: route to the pid the
            # connection last attested
            if last_pid is None:
                return ErrorMsg(ERR_NO_CONTEXT), last_pid
            outcome = runtime.channel_once(last_pid, msg)
            if isinstance(outcome, NetChannelFail):
                log.info("channel refused for pid=%d: %s", last_pid, outcome.reason)
                return ErrorMsg(ERR_CHANNEL), last_pid
            return outcome, last_pid
        # clients have no business sending responses, confirms, or errors
        return ErrorMsg(ERR_BAD_REQUEST), last_pid


class ProverServer(socketserver.TCPServer):
    allow_reuse_address = True

    def __init__(self, config: ProverConfig, runtime: ProverRuntime):
        self.runtime = runtime
        super().__init__((config.host, config.port), _Handler)

    @property
    def bound_port(self) -> int:
        return self.server_address[1]


def serve(config: ProverConfig) -> None:
    runtime = build_runtime(config)
    with ProverServer(config, runtime) as server:
        log.info("phase=listen host=%s port=%d pids=%s mode=%s",
                 config.host, server.bound_port,
                 sorted(runtime.up_pids), runtime.report.mode)
        server.serve_forever()


class BackgroundDaemon:
    """Daemon on a thread, for tests and the attack harness."""

    def __init__(self, config: ProverConfig):
        self.runtime = build_runtime(config)
        self.server = ProverServer(config, self.runtime)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        host = self.server.server_address[0]
        return ("127.0.0.1" if host == "0.0.0.0" else host,
                self.server.bound_port)

    def __enter__(self) -> "BackgroundDaemon":
        self.thread.start()
        log.info("phase=listen host=%s port=%d", *self.address)
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def parse_listen(listen: str) -> tuple[str, int]:
    host, _, port = listen.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"--listen must be host:port, got {listen!r}")
    return host, int(port)


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
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                        help="measurement map capacity (default %(default)s)")
    parser.add_argument("--mode", choices=[m.value for m in SignMode],
                        help="override the keystore's signing mode tag")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        host, port = parse_listen(args.listen)
        config = ProverConfig(
            host=host, port=port, keystore_path=args.keystore,
            anchors_path=args.anchors, manifest_path=args.manifest,
            capacity=args.capacity,
            mode_override=SignMode(args.mode) if args.mode else None)
        serve(config)
    except KeyboardInterrupt:
        return 0
    except Exception as e:
        print(f"proverd: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
