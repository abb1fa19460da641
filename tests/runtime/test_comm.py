"""Tests for the mailbox communicator."""

import numpy as np
import pytest

from repro.runtime import FaultEvent, FaultPlan, FaultyWorld, MailboxWorld
from repro.runtime.comm import allreduce_sum
from repro.util.errors import CommError


class TestMailbox:
    def test_send_recv_roundtrip(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        data = np.arange(5.0)
        c0.Send(data, dest=1, tag=7)
        out = c1.recv(source=0, tag=7)
        assert np.array_equal(out, data)

    def test_send_copies_buffer(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        data = np.zeros(3)
        c0.Send(data, dest=1)
        data[:] = 99.0
        assert np.array_equal(c1.recv(source=0), np.zeros(3))

    def test_recv_into_buffer(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        c0.Send(np.array([1.0, 2.0]), dest=1, tag=3)
        buf = np.zeros(2)
        c1.Recv(buf, source=0, tag=3)
        assert np.array_equal(buf, [1.0, 2.0])

    def test_recv_shape_mismatch_raises(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        c0.Send(np.zeros(3), dest=1)
        with pytest.raises(CommError, match="shape"):
            c1.Recv(np.zeros(2), source=0)

    def test_recv_empty_channel_raises(self):
        world = MailboxWorld(2)
        _, c1 = world.comms()
        with pytest.raises(CommError, match="no message"):
            c1.recv(source=0)

    def test_fifo_per_channel(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        c0.Send(np.array([1.0]), dest=1, tag=0)
        c0.Send(np.array([2.0]), dest=1, tag=0)
        assert c1.recv(0)[0] == 1.0
        assert c1.recv(0)[0] == 2.0

    def test_tags_are_independent_channels(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        c0.Send(np.array([1.0]), dest=1, tag=1)
        c0.Send(np.array([2.0]), dest=1, tag=2)
        assert c1.recv(0, tag=2)[0] == 2.0
        assert c1.recv(0, tag=1)[0] == 1.0

    def test_stats_and_pending(self):
        world = MailboxWorld(3)
        comms = world.comms()
        comms[0].Send(np.zeros(10), dest=2)
        assert world.sent_messages == 1
        assert world.sent_volume == 10
        assert world.pending() == 1
        comms[2].recv(0)
        assert world.pending() == 0

    def test_bad_rank_rejected(self):
        world = MailboxWorld(2)
        with pytest.raises(CommError):
            world.comm(5)
        with pytest.raises(CommError):
            world.comm(0).Send(np.zeros(1), dest=9)

    def test_channels_lists_nonempty_boxes(self):
        world = MailboxWorld(3)
        comms = world.comms()
        assert world.channels() == {}
        comms[0].Send(np.zeros(2), dest=1, tag=4)
        comms[0].Send(np.zeros(2), dest=1, tag=4)
        comms[2].Send(np.zeros(1), dest=0, tag=0)
        assert world.channels() == {(0, 1, 4): 2, (2, 0, 0): 1}
        assert world.channels(dst=1) == {(0, 1, 4): 2}
        comms[1].recv(0, tag=4)
        comms[1].recv(0, tag=4)
        assert world.channels(dst=1) == {}

    def test_describe_channels(self):
        text = MailboxWorld.describe_channels({(0, 1, 4): 2, (2, 0, 0): 1})
        assert "src=0" in text and "dst=1" in text and "tag=4" in text
        assert "x2" in text

    def test_empty_recv_error_names_pending_channels(self):
        """The enriched diagnostic: a failed recv tells you what *is*
        queued for that rank, the first clue for a schedule bug."""
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        c0.Send(np.zeros(1), dest=1, tag=9)
        with pytest.raises(CommError, match=r"pending for rank 1.*tag=9") as exc:
            c1.recv(source=0, tag=2)
        assert "no message" in str(exc.value)

    def test_empty_recv_error_when_nothing_pending(self):
        world = MailboxWorld(2)
        _, c1 = world.comms()
        with pytest.raises(CommError, match="no channels pending for rank 1"):
            c1.recv(source=0)

    def test_begin_superstep_is_a_noop_hook(self):
        world = MailboxWorld(2)
        world.begin_superstep()  # plain world: counts nothing, raises nothing
        c0, c1 = world.comms()
        c0.Send(np.ones(1), dest=1)
        assert c1.recv(0)[0] == 1.0


class TestIsend:
    """The zero-copy send: the queue holds the buffer itself, counted and
    hooked like any ``Send``."""

    def test_queues_the_buffer_itself(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        buf = np.arange(4.0)
        c0.Isend(buf, 1, tag=3)
        assert c1.recv(0, tag=3) is buf

    def test_counted_like_send(self):
        world = MailboxWorld(3)
        comms = world.comms()
        comms[0].Isend(np.zeros(10), 2)
        comms[1].Isend(np.zeros(3), 0)
        assert world.sent_messages == 2
        assert world.sent_volume == 13
        assert world.channels() == {(0, 2, 0): 1, (1, 0, 0): 1}

    def test_fifo_per_channel(self):
        world = MailboxWorld(2)
        c0, c1 = world.comms()
        a, b = np.ones(2), np.zeros(2)
        c0.Isend(a, 1)
        c0.Send(a, 1)
        c0.Isend(b, 1)
        assert c1.recv(0) is a
        copy = c1.recv(0)
        assert copy is not a and np.array_equal(copy, a)
        assert c1.recv(0) is b
        assert world.pending() == 0

    def test_bad_dest_rejected(self):
        world = MailboxWorld(2)
        with pytest.raises(CommError, match="dest rank 9 out of range"):
            world.comm(0).Isend(np.zeros(1), 9)
        assert world.sent_messages == 0

    def test_duplicate_delivers_a_copy_first(self):
        world = FaultyWorld(2, FaultPlan((FaultEvent("duplicate", src=0, dst=1),)))
        world.begin_superstep()
        c0, c1 = world.comms()
        buf = np.array([1.0, -2.0, 3.0])
        c0.Isend(buf, 1)
        first = c1.recv(0)
        assert first is not buf and np.array_equal(first, buf)
        first[:] = 0.0  # the receiver owns the copy: the sender's buffer is untouched
        assert c1.recv(0) is buf
        assert np.array_equal(buf, [1.0, -2.0, 3.0])
        assert world.sent_messages == 2

    def test_bitflip_corrupts_a_copy_only(self):
        world = FaultyWorld(2, FaultPlan((FaultEvent("bitflip", src=0, dst=1, bit=62),)))
        world.begin_superstep()
        c0, c1 = world.comms()
        buf = np.array([1.0, -2.0, 3.0])
        c0.Isend(buf, 1)
        msg = c1.recv(0)
        assert msg is not buf
        assert np.array_equal(buf, [1.0, -2.0, 3.0])
        assert (msg != buf).sum() == 1 and msg[2] != 3.0  # the largest magnitude


class TestAllreduce:
    def test_sum(self):
        world = MailboxWorld(3)
        comms = world.comms()
        vals = [np.full(2, float(r)) for r in range(3)]
        out = allreduce_sum(comms, vals)
        for o in out:
            assert np.array_equal(o, [3.0, 3.0])

    def test_length_mismatch(self):
        world = MailboxWorld(2)
        with pytest.raises(CommError):
            allreduce_sum(world.comms(), [np.zeros(1)])
