"""Deterministic single-core capability kernel simulator.

Processes are generator coroutines driven by a FIFO scheduler. A process
blocks by yielding a syscall descriptor (:class:`Call`, :class:`Recv`,
:class:`NetRecv`) and is resumed with that syscall's result. Non-blocking
operations (register access, replying, emitting a network event) go through
the :class:`ProcessApi` handed to the program at start.

Security properties maintained here and relied on by everything above:

* Capabilities are kernel-side records; processes only ever hold integer
  handles and the API offers no way to read a capability's badge or rights.
* The badge reported by ``Recv`` comes from the capability the sender
  invoked, never from message payload. Badge 0 is reserved for objects
  minted without a badge (boot-time authority), and no cap is minted with it.
* A process spawned without write rights to its own code region can never
  acquire them afterwards; the spawn call rejects write+execute on
  ``self_code`` outright.
* After ``finalize()`` every authority-bearing operation (endpoint or
  capability creation, spawn, terminate) raises ``AuthorityError``.

IPC is a rendezvous: a ``Call`` blocks its caller until the callee
replies. A caller whose callee retires (exits, faults or is terminated)
before replying stays blocked for good: nothing wakes it or fails its
call. The host above the kernel decides what that means for the device
(``prover.ProverRuntime`` stops serving).

Scheduling is strictly FIFO over a ready queue and every state transition
appends a tuple to ``Kernel.trace``, so identical operation sequences
produce identical traces. The trace is a ring of the last ``TRACE_LEN``
transitions (about 1000 attestation rounds), so a long-running device
keeps a bounded amount of it.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Any, Callable, Generator, Optional

from .crypto import Frozen

MSG_MAX_LENGTH = 120          # IPC buffer size in 64-bit registers
WORD_MASK = (1 << 64) - 1
BOOT_BADGE = 0                # reported when the sender's cap carries no badge
SELF_CODE_REGION = "self_code"
TRACE_LEN = 4096              # transitions kept in Kernel.trace


class KernelError(Exception):
    """Base for all simulator faults."""


class AuthorityError(KernelError):
    """Privileged operation attempted after boot authority was dropped."""


class UnknownEndpointError(KernelError):
    pass


class DuplicateBadgeError(KernelError):
    pass


class UnknownPidError(KernelError):
    pass


class DuplicatePidError(KernelError):
    pass


class WxViolationError(KernelError):
    """Requested write and execute rights over the process's own code."""


class BadCapabilityError(KernelError):
    """Handle does not name a capability of the required kind."""


class NoSendRightError(KernelError):
    pass


class NoReceiveRightError(KernelError):
    pass


class NoPendingCallerError(KernelError):
    pass


class LengthOverflowError(KernelError):
    pass


class IndexOutOfRangeError(KernelError):
    pass


class Rights(Frozen):
    __slots__ = ("read", "write", "execute")

    def __init__(self, read: bool = False, write: bool = False, execute: bool = False):
        object.__setattr__(self, "read", read)
        object.__setattr__(self, "write", write)
        object.__setattr__(self, "execute", execute)


class Capability(Frozen):
    """Kernel-side capability record. Processes see only the handle, which
    is the record's key in their cspace.

    ``kind`` is "endpoint" or "region"; ``obj`` is the endpoint id or the
    region name.
    """

    __slots__ = ("kind", "obj", "rights", "badge")

    def __init__(self, kind: str, obj: Any, rights: Rights,
                 badge: Optional[int] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "rights", rights)
        object.__setattr__(self, "badge", badge)


class RegionRequest(Frozen):
    __slots__ = ("region", "rights")

    def __init__(self, region: str, rights: Rights):
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "rights", rights)


class ProcState(Enum):
    RUNNABLE = "runnable"
    BLOCKED_RECV = "blocked_recv"
    BLOCKED_CALL = "blocked_call"
    BLOCKED_NET = "blocked_net"
    TERMINATED = "terminated"


# the states the IPC path sets, as globals: an enum member read through its
# class costs a lookup on every use
_RUNNABLE = ProcState.RUNNABLE
_BLOCKED_RECV = ProcState.BLOCKED_RECV
_BLOCKED_CALL = ProcState.BLOCKED_CALL
_BLOCKED_NET = ProcState.BLOCKED_NET
_TERMINATED = ProcState.TERMINATED


# --- syscall descriptors (yielded by programs) ---------------------------

class Call(Frozen):
    """Rendezvous call: send ``msg_len`` registers, block until replied.

    Resumes with the reply's register count; reply payload is in the IPC
    buffer. There is deliberately no badge field here, and no ``__dict__``
    to attach one: the sender cannot choose how it appears to the receiver.
    """

    __slots__ = ("cap", "msg_len")

    def __init__(self, cap: int, msg_len: int):
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "msg_len", msg_len)


class Recv(Frozen):
    """Block until a sender rendezvouses; resumes with (badge, msg_len)."""

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        object.__setattr__(self, "cap", cap)


class NetRecv(Frozen):
    """Block until the host injects a network event for this process."""

    __slots__ = ()


Syscall = Call | Recv | NetRecv
Program = Callable[["ProcessApi"], Generator[Syscall, Any, None]]


class _Endpoint:
    __slots__ = ("eid", "send_queue", "recv_queue", "badges")

    def __init__(self, eid: int):
        self.eid = eid
        # senders: (pid, msg_len, badge) in arrival order; payload stays in
        # the sender's buffer until rendezvous since the sender is blocked.
        self.send_queue: deque[tuple[int, int, int]] = deque()
        self.recv_queue: deque[int] = deque()
        self.badges: set[int] = set()


class _Process:
    __slots__ = (
        "pid", "ipc", "cspace", "next_handle", "state",
        "gen", "resume_value", "reply_to", "net_inbox", "outbox",
    )

    def __init__(self, pid: int):
        self.pid = pid
        self.ipc: list[int] = [0] * MSG_MAX_LENGTH
        self.cspace: dict[int, Capability] = {}
        self.next_handle = 1
        self.state = ProcState.RUNNABLE
        self.gen: Optional[Generator] = None
        self.resume_value: Any = None
        self.reply_to: Optional[int] = None
        self.net_inbox: deque[Any] = deque()     # events injected by the host
        self.outbox: deque[Any] = deque()        # events emitted by net_send


class ProcessApi:
    """Unprivileged per-process surface: IPC registers, reply, host I/O.

    This is everything a running program can touch. No operation here
    creates authority, inspects capabilities, or names another process.
    It holds its own process's register list and outbox, and the
    kernel's trace (the kernel only ever changes those in place), so a
    register access is one bounds check and one list index, and an emitted
    event is two appends.
    """

    __slots__ = ("_kernel", "_pid", "_ipc", "_outbox", "_trace")

    def __init__(self, kernel: "Kernel", pid: int):
        self._kernel = kernel
        self._pid = pid
        self._ipc = kernel._procs[pid].ipc
        self._outbox = kernel._procs[pid].outbox
        self._trace = kernel.trace

    def get_mr(self, index: int) -> int:
        if not 0 <= index < MSG_MAX_LENGTH:
            raise IndexOutOfRangeError(f"register index {index}")
        return self._ipc[index]

    def set_mr(self, index: int, word: int) -> None:
        if not 0 <= index < MSG_MAX_LENGTH:
            raise IndexOutOfRangeError(f"register index {index}")
        # exact 64-bit wraparound semantics, no implicit widening
        self._ipc[index] = word & WORD_MASK

    def reply(self, msg_len: int) -> None:
        self._kernel._reply(self._pid, msg_len)

    def net_send(self, event: Any) -> None:
        self._outbox.append(event)
        self._trace.append(("net_out", self._pid, type(event).__name__))


class Kernel:
    """Single-core kernel instance: endpoints, processes, scheduler."""

    def __init__(self) -> None:
        self._endpoints: dict[int, _Endpoint] = {}
        self._next_eid = 1
        self._procs: dict[int, _Process] = {}
        self._ready: deque[int] = deque()
        self._finalized = False
        self.trace: deque[tuple] = deque(maxlen=TRACE_LEN)

    # --- authority-bearing operations (boot-time only) -------------------

    def _require_authority(self, op: str) -> None:
        if self._finalized:
            raise AuthorityError(f"{op}: boot authority was dropped at finalize")

    def create_endpoint(self) -> int:
        self._require_authority("create_endpoint")
        eid = self._next_eid
        self._next_eid += 1            # ids are never reused within a run
        self._endpoints[eid] = _Endpoint(eid)
        self.trace.append(("endpoint", eid))
        return eid

    def mint_badged_cap(self, eid: int, badge: Optional[int], rights: Rights,
                        pid: int) -> int:
        """Mint a capability to endpoint ``eid`` into ``pid``'s cspace.

        ``badge`` is attached kernel-side and stamped on every message sent
        through the resulting cap. A badge may be minted at most once per
        endpoint; ``None`` means unbadged (reported to receivers as 0).
        Any other badge must be in 1..2**64-1, or ``KernelError`` is raised.
        """
        self._require_authority("mint_badged_cap")
        ep = self._endpoints.get(eid)
        if ep is None:
            raise UnknownEndpointError(f"endpoint {eid}")
        rec = self._procs.get(pid)
        if rec is None or rec.state is ProcState.TERMINATED:
            raise UnknownPidError(f"pid {pid}")
        if badge is not None:
            if not BOOT_BADGE < badge <= WORD_MASK:
                raise KernelError(f"badge {badge} is reserved or not a 64-bit word")
            if badge in ep.badges:
                raise DuplicateBadgeError(f"badge {badge} on endpoint {eid}")
            ep.badges.add(badge)
        handle = rec.next_handle
        rec.next_handle += 1
        rec.cspace[handle] = Capability("endpoint", eid, rights, badge)
        self.trace.append(("mint", eid, -1 if badge is None else badge, pid, handle))
        return handle

    def spawn_process(self, pid: int, code: bytes,
                      regions: tuple[RegionRequest, ...] = ()) -> None:
        """Create process ``pid`` from the image ``code`` (the trace keeps
        its length), with a region cap for each of ``regions``.

        Write-and-execute over the process's own code region is refused
        here, at creation time; nothing later can add rights.
        """
        self._require_authority("spawn_process")
        if pid in self._procs:
            raise DuplicatePidError(f"pid {pid}")
        for req in regions:
            if req.region == SELF_CODE_REGION and req.rights.write and req.rights.execute:
                raise WxViolationError(
                    f"pid {pid}: write+execute requested over own code")
        rec = _Process(pid)
        for req in regions:
            handle = rec.next_handle
            rec.next_handle += 1
            rec.cspace[handle] = Capability("region", req.region, req.rights)
        self._procs[pid] = rec
        self.trace.append(("spawn", pid, len(code)))

    def start_process(self, pid: int, program: Program) -> None:
        """Bind a program to a spawned, live process and make it runnable."""
        self._require_authority("start_process")
        rec = self._procs.get(pid)
        if rec is None or rec.state is ProcState.TERMINATED:
            raise UnknownPidError(f"pid {pid}")
        if rec.gen is not None:
            raise KernelError(f"pid {pid} already started")
        rec.gen = program(ProcessApi(self, pid))
        rec.state = ProcState.RUNNABLE
        self._ready.append(pid)
        self.trace.append(("start", pid))

    def terminate_process(self, pid: int) -> None:
        """Tear a process down and revoke everything it held."""
        self._require_authority("terminate_process")
        rec = self._procs.get(pid)
        if rec is None:
            raise UnknownPidError(f"pid {pid}")
        if rec.state is not ProcState.TERMINATED:
            self._retire(rec, "terminate")

    def finalize(self) -> None:
        """Drop boot authority for the rest of the run."""
        self._require_authority("finalize")
        self._finalized = True
        self.trace.append(("finalize",))

    # --- host-side interface ---------------------------------------------

    def inject_net(self, pid: int, event: Any) -> bool:
        """Deliver a network event to ``pid`` (queued if it is not waiting);
        ``False``, with nothing delivered or traced, if ``pid`` is not live."""
        rec = self._procs.get(pid)
        if rec is None or rec.state is _TERMINATED:
            return False
        self.trace.append(("net_in", pid, type(event).__name__))
        if rec.state is _BLOCKED_NET:
            rec.resume_value = event
            rec.state = _RUNNABLE
            self._ready.append(pid)
        else:
            rec.net_inbox.append(event)
        return True

    def drain_net(self, pid: int) -> list[Any]:
        """Collect events the process emitted via ``net_send``."""
        rec = self._procs.get(pid)
        if rec is None:
            raise UnknownPidError(f"pid {pid}")
        out = list(rec.outbox)
        rec.outbox.clear()
        return out

    def live_pids(self) -> set[int]:
        return {p for p, r in self._procs.items()
                if r.state is not ProcState.TERMINATED}

    def process_state(self, pid: int) -> ProcState:
        rec = self._procs.get(pid)
        if rec is None:
            raise UnknownPidError(f"pid {pid}")
        return rec.state

    def registers(self, pid: int) -> list[int]:
        """Snapshot of a process's IPC registers (host-side inspection)."""
        rec = self._procs.get(pid)
        if rec is None:
            raise UnknownPidError(f"pid {pid}")
        return list(rec.ipc)

    # --- scheduler --------------------------------------------------------

    def run(self) -> int:
        """Advance ready processes FIFO until everything blocks or exits.

        Returns the number of scheduler dispatches. Exceptions a syscall
        raises are thrown into the faulting program at its yield point; if
        the program does not handle them, or raises one of its own, the
        process is retired as a ``"fault"`` and the exception propagates to
        the caller.
        """
        steps = 0
        ready, procs, syscalls = self._ready, self._procs, _SYSCALLS
        while ready:
            rec = procs[ready.popleft()]
            gen = rec.gen
            if rec.state is not _RUNNABLE or gen is None:
                continue
            steps += 1
            # a fresh generator starts on send(None), and resume_value starts None
            value, rec.resume_value = rec.resume_value, None
            try:
                sc = gen.send(value)
                while True:
                    try:
                        do = syscalls.get(type(sc))
                        if do is None:
                            raise KernelError(
                                f"pid {rec.pid} yielded a non-syscall: {sc!r}")
                        do(self, rec, sc)
                        break
                    except KernelError as e:
                        sc = gen.throw(e)
            except StopIteration:
                self._retire(rec, "exit")
            except Exception:
                self._retire(rec, "fault")
                raise
        return steps

    def _retire(self, rec: _Process, kind: str) -> None:
        """Retire a process that exited, faulted or was terminated (``kind``).

        The record stays (pids are never reused) but its cspace is emptied,
        it is pulled out of every queue, and any reply obligation pointing
        at it is dropped, so it can never send or be replied to again.
        """
        pid = rec.pid
        rec.state = ProcState.TERMINATED
        rec.cspace.clear()
        rec.net_inbox.clear()
        if rec.gen is not None:
            rec.gen.close()
        for ep in self._endpoints.values():
            ep.send_queue = deque(e for e in ep.send_queue if e[0] != pid)
            if pid in ep.recv_queue:
                ep.recv_queue.remove(pid)
        for other in self._procs.values():
            if other.reply_to == pid:
                other.reply_to = None
        if pid in self._ready:
            self._ready.remove(pid)
        self.trace.append((kind, pid))

    def _do_net_recv(self, rec: _Process, sc: NetRecv) -> None:
        if rec.net_inbox:
            rec.resume_value = rec.net_inbox.popleft()
            self._ready.append(rec.pid)
        else:
            rec.state = _BLOCKED_NET

    # _do_call and _do_recv look the handle up inline, a call cheaper

    def _do_call(self, rec: _Process, sc: Call) -> None:
        cap = rec.cspace.get(sc.cap)
        if cap is None or cap.kind != "endpoint":
            raise BadCapabilityError(f"pid {rec.pid}: handle {sc.cap}")
        if not cap.rights.write:
            raise NoSendRightError(f"pid {rec.pid}: endpoint {cap.obj}")
        msg_len = sc.msg_len
        if not 0 <= msg_len <= MSG_MAX_LENGTH:
            raise LengthOverflowError(f"msg_len {msg_len}")
        ep = self._endpoints[cap.obj]
        badge = BOOT_BADGE if cap.badge is None else cap.badge
        rec.state = _BLOCKED_CALL
        if ep.recv_queue:
            rpid = ep.recv_queue.popleft()
            self._deliver(rec, self._procs[rpid], ep, badge, msg_len)
        else:
            ep.send_queue.append((rec.pid, msg_len, badge))
            self.trace.append(("queued", rec.pid, ep.eid, msg_len))

    def _do_recv(self, rec: _Process, sc: Recv) -> None:
        cap = rec.cspace.get(sc.cap)
        if cap is None or cap.kind != "endpoint":
            raise BadCapabilityError(f"pid {rec.pid}: handle {sc.cap}")
        if not cap.rights.read:
            raise NoReceiveRightError(f"pid {rec.pid}: endpoint {cap.obj}")
        ep = self._endpoints[cap.obj]
        if ep.send_queue:
            spid, msg_len, badge = ep.send_queue.popleft()
            self._deliver(self._procs[spid], rec, ep, badge, msg_len)
        else:
            rec.state = _BLOCKED_RECV
            ep.recv_queue.append(rec.pid)

    def _deliver(self, sender: _Process, receiver: _Process, ep: _Endpoint,
                 badge: int, msg_len: int) -> None:
        receiver.ipc[:msg_len] = sender.ipc[:msg_len]
        receiver.reply_to = sender.pid
        receiver.resume_value = (badge, msg_len)
        receiver.state = _RUNNABLE
        self._ready.append(receiver.pid)
        self.trace.append(("deliver", sender.pid, receiver.pid, ep.eid, badge, msg_len))

    def _reply(self, pid: int, msg_len: int) -> None:
        rec = self._procs[pid]
        if not 0 <= msg_len <= MSG_MAX_LENGTH:
            raise LengthOverflowError(f"msg_len {msg_len}")
        if rec.reply_to is None:
            raise NoPendingCallerError(f"pid {pid} has no caller awaiting reply")
        caller = self._procs[rec.reply_to]
        rec.reply_to = None
        if caller.state is not _BLOCKED_CALL:
            raise NoPendingCallerError(f"pid {pid}: caller no longer waiting")
        caller.ipc[:msg_len] = rec.ipc[:msg_len]
        caller.resume_value = msg_len
        caller.state = _RUNNABLE
        self._ready.append(caller.pid)
        self.trace.append(("reply", pid, caller.pid, msg_len))


# syscall descriptor type -> handler; anything else a program yields is a fault
_SYSCALLS: dict[type, Callable[[Kernel, _Process, Any], None]] = {
    Call: Kernel._do_call,
    Recv: Kernel._do_recv,
    NetRecv: Kernel._do_net_recv,
}
