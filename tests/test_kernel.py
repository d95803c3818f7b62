"""Kernel simulator: capabilities, IPC rendezvous, scheduling, authority."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.kernel import (
    BOOT_BADGE,
    MSG_MAX_LENGTH,
    WORD_MASK,
    AuthorityError,
    BadCapabilityError,
    Call,
    Capability,
    DuplicateBadgeError,
    DuplicatePidError,
    IndexOutOfRangeError,
    Kernel,
    KernelError,
    KernelProcessSpec,
    LengthOverflowError,
    NetRecv,
    NoPendingCallerError,
    NoReceiveRightError,
    NoSendRightError,
    ProcessApi,
    ProcState,
    Recv,
    RegionRequest,
    Rights,
    TRACE_LEN,
    UnknownEndpointError,
    UnknownPidError,
    WxViolationError,
)

R = Rights(read=True)
W = Rights(write=True)
RW = Rights(read=True, write=True)


def spawn(kernel: Kernel, pid: int, code: bytes = b"\x90" * 64,
          regions=()) -> int:
    return kernel.spawn_process(KernelProcessSpec(pid, code, tuple(regions)))


def idle_recv(cap):
    """Program that receives forever without replying."""
    def program(ctx):
        while True:
            yield Recv(cap)
    return program


class TestObjects:
    def test_endpoint_ids_unique(self):
        kernel = Kernel()
        ids = [kernel.create_endpoint() for _ in range(1000)]
        assert len(set(ids)) == 1000
        assert ids == sorted(ids)

    def test_mint_unknown_endpoint(self):
        kernel = Kernel()
        spawn(kernel, 1)
        with pytest.raises(UnknownEndpointError):
            kernel.mint_badged_cap(404, 1, W, 1)

    def test_mint_into_unknown_pid(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        with pytest.raises(UnknownPidError):
            kernel.mint_badged_cap(ep, 1, W, 9)

    def test_duplicate_badge_rejected_per_endpoint(self):
        kernel = Kernel()
        ep1, ep2 = kernel.create_endpoint(), kernel.create_endpoint()
        spawn(kernel, 1)
        spawn(kernel, 2)
        kernel.mint_badged_cap(ep1, 7, W, 1)
        with pytest.raises(DuplicateBadgeError):
            kernel.mint_badged_cap(ep1, 7, W, 2)
        # same badge on a different endpoint is a different identity space
        kernel.mint_badged_cap(ep2, 7, W, 2)

    @pytest.mark.parametrize("badge", [BOOT_BADGE, -1, -(2**64), 2**64, 2**70])
    def test_reserved_or_wide_badge_is_refused(self, badge):
        """0 is what an unbadged cap reports, the trace writes -1 for no
        badge, and a badge is one 64-bit word: a mint of any of them is
        refused and leaves no trace, while 1 and 2**64 - 1 still mint."""
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        trace = list(kernel.trace)
        with pytest.raises(KernelError, match="reserved or not a 64-bit word"):
            kernel.mint_badged_cap(ep, badge, W, 1)
        assert list(kernel.trace) == trace
        kernel.mint_badged_cap(ep, 1, W, 1)
        kernel.mint_badged_cap(ep, 2**64 - 1, W, 1)

    def test_unbadged_caps_do_not_collide(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        kernel.mint_badged_cap(ep, None, W, 1)
        kernel.mint_badged_cap(ep, None, R, 1)

    def test_duplicate_pid_rejected(self):
        kernel = Kernel()
        spawn(kernel, 1)
        with pytest.raises(DuplicatePidError):
            spawn(kernel, 1)

    def test_wx_rejected_at_spawn(self):
        kernel = Kernel()
        with pytest.raises(WxViolationError):
            spawn(kernel, 1, regions=[
                RegionRequest("self_code", Rights(write=True, execute=True))])
        # only the write+execute combination is forbidden
        spawn(kernel, 2, regions=[RegionRequest("self_code", Rights(write=True))])
        spawn(kernel, 3, regions=[
            RegionRequest("self_code", Rights(read=True, execute=True)),
            RegionRequest("scratch", Rights(read=True, write=True))])


class TestRegisters:
    def test_registers_start_zeroed(self):
        kernel = Kernel()
        spawn(kernel, 1)
        assert kernel.registers(1) == [0] * MSG_MAX_LENGTH

    def test_set_mr_wraps_to_64_bits(self):
        kernel = Kernel()
        spawn(kernel, 1)
        seen = []

        def program(ctx):
            ctx.set_mr(0, 2**64 + 5)
            ctx.set_mr(1, -1)
            seen.extend([ctx.get_mr(0), ctx.get_mr(1)])
            return
            yield  # pragma: no cover

        kernel.start_process(1, program)
        kernel.run()
        assert seen == [5, WORD_MASK]

    def test_register_index_bounds(self):
        kernel = Kernel()
        spawn(kernel, 1)
        caught = []

        def program(ctx):
            for idx in (-1, MSG_MAX_LENGTH, MSG_MAX_LENGTH + 50):
                try:
                    ctx.get_mr(idx)
                except IndexOutOfRangeError:
                    caught.append(idx)
                try:
                    ctx.set_mr(idx, 1)
                except IndexOutOfRangeError:
                    caught.append(idx)
            return
            yield  # pragma: no cover

        kernel.start_process(1, program)
        kernel.run()
        assert len(caught) == 6

    @given(word=st.integers(min_value=-2**80, max_value=2**80))
    @settings(max_examples=80, deadline=None)
    def test_set_get_masking_invariant(self, word):
        kernel = Kernel()
        spawn(kernel, 1)
        out = []

        def program(ctx):
            ctx.set_mr(3, word)
            out.append(ctx.get_mr(3))
            return
            yield  # pragma: no cover

        kernel.start_process(1, program)
        kernel.run()
        assert out == [word & WORD_MASK]


class TestIpc:
    def _pair(self, kernel, badge=7):
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        spawn(kernel, 2)
        send = kernel.mint_badged_cap(ep, badge, W, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 2)
        return ep, send, recv

    def test_call_recv_reply_roundtrip(self):
        kernel = Kernel()
        _, send, recv = self._pair(kernel)
        log = []

        def client(ctx):
            ctx.set_mr(0, 11)
            ctx.set_mr(1, 22)
            reply_len = yield Call(send, 2)
            log.append(("reply", reply_len, ctx.get_mr(0)))

        def server(ctx):
            badge, n = yield Recv(recv)
            log.append(("recv", badge, n, ctx.get_mr(0), ctx.get_mr(1)))
            ctx.set_mr(0, 99)
            ctx.reply(1)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert log == [("recv", 7, 2, 11, 22), ("reply", 1, 99)]

    def test_badge_comes_from_kernel_not_payload(self):
        kernel = Kernel()
        _, send, recv = self._pair(kernel, badge=7)
        seen = []

        def client(ctx):
            ctx.set_mr(0, 1234)      # a forged "badge" in the payload
            yield Call(send, 1)

        def server(ctx):
            badge, _ = yield Recv(recv)
            seen.append(badge)
            ctx.reply(0)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert seen == [7]

    def test_unbadged_cap_reports_boot_badge(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        spawn(kernel, 2)
        send = kernel.mint_badged_cap(ep, None, W, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 2)
        seen = []

        def client(ctx):
            yield Call(send, 0)

        def server(ctx):
            badge, _ = yield Recv(recv)
            seen.append(badge)
            ctx.reply(0)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert seen == [BOOT_BADGE]

    def test_senders_queue_fifo(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        for pid in (1, 2, 3):
            spawn(kernel, pid)
        caps = {pid: kernel.mint_badged_cap(ep, pid * 10, W, pid)
                for pid in (1, 2)}
        recv = kernel.mint_badged_cap(ep, None, R, 3)
        order = []

        def sender(pid):
            def program(ctx):
                yield Call(caps[pid], 0)
            return program

        def receiver(ctx):
            for _ in range(2):
                badge, _ = yield Recv(recv)
                order.append(badge)
                ctx.reply(0)

        kernel.start_process(1, sender(1))
        kernel.start_process(2, sender(2))
        kernel.run()                         # both senders now queued
        kernel.start_process(3, receiver)
        kernel.run()
        assert order == [10, 20]

    def test_recv_blocks_with_no_sender(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 1)
        kernel.start_process(1, idle_recv(recv))
        kernel.run()
        assert kernel.process_state(1) is ProcState.BLOCKED_RECV

    def test_call_blocks_until_replied(self):
        kernel = Kernel()
        _, send, recv = self._pair(kernel)

        def client(ctx):
            yield Call(send, 0)

        kernel.start_process(1, client)
        kernel.run()
        assert kernel.process_state(1) is ProcState.BLOCKED_CALL

    def test_send_without_write_right(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        cap = kernel.mint_badged_cap(ep, 1, R, 1)   # read-only

        def program(ctx):
            yield Call(cap, 0)

        kernel.start_process(1, program)
        with pytest.raises(NoSendRightError):
            kernel.run()

    def test_recv_without_read_right(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        cap = kernel.mint_badged_cap(ep, 1, W, 1)   # write-only

        def program(ctx):
            yield Recv(cap)

        kernel.start_process(1, program)
        with pytest.raises(NoReceiveRightError):
            kernel.run()

    def test_unknown_handle_is_a_fault(self):
        kernel = Kernel()
        spawn(kernel, 1)

        def program(ctx):
            yield Call(12345, 0)

        kernel.start_process(1, program)
        with pytest.raises(BadCapabilityError):
            kernel.run()

    def test_program_that_catches_a_fault_keeps_running(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        spawn(kernel, 2)
        send = kernel.mint_badged_cap(ep, 4, W, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 2)
        seen = []

        def client(ctx):
            ctx.set_mr(0, 77)
            yield Call(send, 1)
            seen.append("replied")

        def server(ctx):
            for bad in (12345, 54321):      # two faults in one dispatch
                try:
                    yield Call(bad, 0)
                except BadCapabilityError:
                    seen.append("fault")
            badge, n = yield Recv(recv)      # the client is already queued
            seen.append((badge, n, ctx.get_mr(0)))
            ctx.reply(0)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert seen == ["fault", "fault", (4, 1, 77), "replied"]
        assert kernel.live_pids() == set()

    def test_non_syscall_is_thrown_back_as_kernel_error(self):
        kernel = Kernel()
        spawn(kernel, 1)
        seen = []

        def program(ctx):
            for bad in ("recv", None, object()):
                try:
                    yield bad
                except KernelError as e:
                    seen.append(type(e) is KernelError and "non-syscall" in str(e))
            yield 42                    # not caught: reaches the caller

        kernel.start_process(1, program)
        with pytest.raises(KernelError, match="non-syscall"):
            kernel.run()
        assert seen == [True, True, True]

    def test_region_cap_is_not_an_ipc_cap(self):
        kernel = Kernel()
        spawn(kernel, 1, regions=[RegionRequest("scratch", RW)])

        def program(ctx):
            yield Call(1, 0)          # handle 1 is the region cap

        kernel.start_process(1, program)
        with pytest.raises(BadCapabilityError):
            kernel.run()

    @pytest.mark.parametrize("bad_len", [-1, MSG_MAX_LENGTH + 1, 500])
    def test_call_length_overflow(self, bad_len):
        kernel = Kernel()
        _, send, recv = self._pair(kernel)

        def program(ctx):
            yield Call(send, bad_len)

        kernel.start_process(1, program)
        with pytest.raises(LengthOverflowError):
            kernel.run()

    def test_reply_length_overflow(self):
        kernel = Kernel()
        _, send, recv = self._pair(kernel)

        def client(ctx):
            yield Call(send, 1)

        def server(ctx):
            yield Recv(recv)
            ctx.reply(MSG_MAX_LENGTH + 1)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        with pytest.raises(LengthOverflowError):
            kernel.run()

    def test_reply_without_caller(self):
        kernel = Kernel()
        spawn(kernel, 1)

        def program(ctx):
            ctx.reply(0)
            return
            yield  # pragma: no cover

        kernel.start_process(1, program)
        with pytest.raises(NoPendingCallerError):
            kernel.run()

    def test_only_msg_len_registers_are_copied(self):
        kernel = Kernel()
        _, send, recv = self._pair(kernel)
        seen = []

        def client(ctx):
            ctx.set_mr(0, 1)
            ctx.set_mr(1, 2)
            ctx.set_mr(2, 3)
            yield Call(send, 2)       # MR2 stays home

        def server(ctx):
            ctx.set_mr(2, 777)
            _, n = yield Recv(recv)
            seen.append((n, ctx.get_mr(0), ctx.get_mr(1), ctx.get_mr(2)))
            ctx.reply(0)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert seen == [(2, 1, 2, 777)]

    def test_ipc_frame_condition(self):
        """An exchange between 1 and 2 leaves bystander registers alone."""
        kernel = Kernel()
        _, send, recv = self._pair(kernel)
        spawn(kernel, 9)
        before = kernel.registers(9)

        def client(ctx):
            ctx.set_mr(0, 42)
            yield Call(send, 1)

        def server(ctx):
            yield Recv(recv)
            ctx.reply(1)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        assert kernel.registers(9) == before


class TestLifecycle:
    def test_terminate_revokes_and_unschedules(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 1)
        kernel.start_process(1, idle_recv(recv))
        kernel.run()
        assert kernel.process_state(1) is ProcState.BLOCKED_RECV
        kernel.terminate_process(1)
        assert kernel.process_state(1) is ProcState.TERMINATED
        assert kernel.live_pids() == set()
        # a sender now queues instead of rendezvousing with the dead pid
        spawn(kernel, 2)
        send = kernel.mint_badged_cap(ep, 5, W, 2)

        def sender(ctx):
            yield Call(send, 0)

        kernel.start_process(2, sender)
        kernel.run()
        assert kernel.process_state(2) is ProcState.BLOCKED_CALL

    def test_terminate_unknown_pid(self):
        kernel = Kernel()
        with pytest.raises(UnknownPidError):
            kernel.terminate_process(3)

    def test_program_completion_is_exit(self):
        kernel = Kernel()
        spawn(kernel, 1)

        def program(ctx):
            return
            yield  # pragma: no cover

        kernel.start_process(1, program)
        kernel.run()
        assert kernel.process_state(1) is ProcState.TERMINATED

    def test_program_exception_propagates(self):
        kernel = Kernel()
        spawn(kernel, 1)

        def program(ctx):
            raise ValueError("deliberate")
            yield  # pragma: no cover

        kernel.start_process(1, program)
        with pytest.raises(ValueError, match="deliberate"):
            kernel.run()
        self._assert_retired_as_fault(kernel, 1)

    def test_unhandled_syscall_fault_retires(self):
        kernel = Kernel()
        spawn(kernel, 1)

        def program(ctx):
            yield Call(99, 0)           # no capability at handle 99

        kernel.start_process(1, program)
        with pytest.raises(BadCapabilityError):
            kernel.run()
        self._assert_retired_as_fault(kernel, 1)

    @staticmethod
    def _assert_retired_as_fault(kernel, pid):
        assert kernel.process_state(pid) is ProcState.TERMINATED
        assert kernel.trace[-1] == ("fault", pid)
        trace = list(kernel.trace)
        assert kernel.inject_net(pid, "late") is False
        assert list(kernel.trace) == trace

    def test_authority_gone_after_finalize(self):
        kernel = Kernel()
        spawn(kernel, 1)
        ep = kernel.create_endpoint()
        kernel.finalize()
        with pytest.raises(AuthorityError):
            kernel.create_endpoint()
        with pytest.raises(AuthorityError):
            kernel.mint_badged_cap(ep, 1, W, 1)
        with pytest.raises(AuthorityError):
            spawn(kernel, 2)
        with pytest.raises(AuthorityError):
            kernel.terminate_process(1)
        with pytest.raises(AuthorityError):
            kernel.start_process(1, idle_recv(0))
        with pytest.raises(AuthorityError):
            kernel.finalize()


class TestNet:
    def test_inject_wakes_blocked_process(self):
        kernel = Kernel()
        spawn(kernel, 1)
        seen = []

        def program(ctx):
            while True:
                event = yield NetRecv()
                seen.append(event)
                ctx.net_send(("echo", event))

        kernel.start_process(1, program)
        kernel.run()
        assert kernel.process_state(1) is ProcState.BLOCKED_NET
        assert kernel.inject_net(1, "hello") is True
        kernel.run()
        assert seen == ["hello"]
        assert kernel.drain_net(1) == [("echo", "hello")]
        assert kernel.drain_net(1) == []

    def test_inject_queues_when_not_waiting(self):
        kernel = Kernel()
        spawn(kernel, 1)
        seen = []

        def program(ctx):
            for _ in range(2):
                seen.append((yield NetRecv()))

        kernel.inject_net(1, "a")
        kernel.inject_net(1, "b")
        kernel.start_process(1, program)
        kernel.run()
        assert seen == ["a", "b"]

    def test_inject_to_terminated_pid(self):
        kernel = Kernel()
        spawn(kernel, 1)
        kernel.terminate_process(1)
        trace = list(kernel.trace)
        assert kernel.inject_net(1, "x") is False
        assert kernel.inject_net(2, "x") is False       # never spawned
        assert list(kernel.trace) == trace


class TestDeterminism:
    @staticmethod
    def _scripted_run():
        kernel = Kernel()
        ep = kernel.create_endpoint()
        spawn(kernel, 1)
        spawn(kernel, 2)
        send = kernel.mint_badged_cap(ep, 3, W, 1)
        recv = kernel.mint_badged_cap(ep, None, R, 2)

        def client(ctx):
            for value in (5, 6):
                ctx.set_mr(0, value)
                yield Call(send, 1)

        def server(ctx):
            for _ in range(2):
                _, n = yield Recv(recv)
                ctx.set_mr(0, ctx.get_mr(0) + 1)
                ctx.reply(n)

        kernel.start_process(1, client)
        kernel.start_process(2, server)
        kernel.run()
        kernel.finalize()
        return kernel.trace

    def test_identical_sequences_identical_traces(self):
        assert self._scripted_run() == self._scripted_run()

    def test_trace_is_a_bounded_ring(self, runtime):
        for i in range(2000):
            runtime.attest_once(1 + i % 3, i.to_bytes(32, "big"))
        assert len(runtime.kernel.trace) == TRACE_LEN
        assert runtime.kernel.trace[-1][0] == "net_out"

    def test_trace_records_every_transition(self):
        trace = self._scripted_run()
        kinds = [entry[0] for entry in trace]
        for kind in ("endpoint", "mint", "spawn", "start", "deliver",
                     "reply", "exit", "finalize"):
            assert kind in kinds


class TestOpacity:
    def test_process_api_surface_is_minimal(self):
        surface = {name for name in dir(ProcessApi) if not name.startswith("_")}
        assert surface == {"get_mr", "set_mr", "reply", "net_send"}

    def test_capability_records_immutable(self):
        cap = Capability(1, "endpoint", 2, Rights(write=True), badge=9)
        with pytest.raises(AttributeError):
            cap.badge = 1            # type: ignore[misc]
        with pytest.raises(AttributeError):
            cap.rights = Rights()    # type: ignore[misc]

    def test_call_descriptor_has_no_badge_field(self):
        assert set(Call.__slots__) == {"cap", "msg_len"}
        # no __dict__ either, so no badge can be attached to a descriptor
        assert not hasattr(Call(1, 0), "__dict__")
        with pytest.raises(AttributeError):
            Call(1, 0).badge = 9     # type: ignore[attr-defined]
