"""Property: push ordering and accounting across write-through and queued delivery.

Drives :meth:`AsapServer._dispatch_frames` directly against in-memory
connections (no sockets): random refresh boundaries over random
subscriptions, ``subscribe_queue`` sizes and message limits, with each
connection's transport switched between idle and congested and the writer
tasks given random turns on the event loop.  Every push the dispatcher
produces is recorded; what each fake transport received is decoded at the
end.  Invariants:

* a connection receives a subsequence of what was produced for it, in
  production order: no push is duplicated and none overtakes another (a
  direct write never passes a queued push);
* ``seq`` strictly increases per subscription;
* each delivered push's ``push_dropped`` is exactly the number of the
  connection's pushes produced before it and never delivered, so every
  ``seq`` gap is matched by the counter (pushes too big to frame included);
* ``pushes_sent + push_dropped + queued`` equals pushes produced at every
  step, ``pushes_sent`` equals the messages the transports received, and
  no outbox ever holds more than ``subscribe_queue`` pushes, and what one
  holds is always the newest pushes (drop-oldest);
* a boundary on an idle connection leaves nothing queued (write-through);
  one on a busy connection (congested, or its writer task woken) writes
  nothing, and a congested one is written to only by its writer task, one
  push per drain.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netutil import SPEC, make_arrivals
from repro.net import wire
from repro.net.server import AsapServer, _Connection
from repro.persist import codec
from repro.service import StreamHub

STREAMS = ("a", "b", "c")

#: Pushes here frame to about 820 (one frame or one view), 1,450 (two
#: frames) and 2,100 bytes (three frames): the tighter limits make some of
#: them unframeable.
LIMITS = (codec.MAX_MESSAGE_BYTES, 1470, 1000)


@pytest.fixture(scope="module")
def sample():
    """A hub whose streams serve views, and each stream's inline frames."""
    hub = StreamHub(default_config=SPEC)
    frames = {}
    for i, sid in enumerate(STREAMS):
        hub.create_stream(sid)
        frames[sid] = hub.ingest(sid, *make_arrivals(200 + 20 * i, seed=i))
    return hub, frames


class FakeWriter:
    """A ``StreamWriter`` stand-in whose transport records each message in
    the order it was handed over.  While congested it reports unsent bytes,
    ``drain()`` blocks, and a second write before the drain returns fails:
    a congested connection takes pushes only through its writer task."""

    def __init__(self):
        self.transport = self
        self.received: list[bytes] = []
        self.congested = False
        self.undrained = False
        self._clear = asyncio.Event()
        self._clear.set()

    def write(self, data):
        assert not self.undrained, "wrote past a congested transport"
        self.undrained = self.congested
        self.received.append(bytes(data))

    def writelines(self, chunks):
        for data in chunks:
            self.write(data)

    def get_write_buffer_size(self):
        return 1 if self.congested else 0

    def is_closing(self):
        return False

    async def drain(self):
        await self._clear.wait()
        self.undrained = False

    def congest(self, on):
        self.congested = on
        if on:
            self._clear.clear()
        else:
            self._clear.set()

    def close(self):
        pass


subscriptions = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(STREAMS),
        st.sampled_from([None, None, 20, 10_000]),
    ),
    min_size=2,
    max_size=8,
)
boundaries = st.tuples(
    st.just("boundary"),
    st.permutations(STREAMS).flatmap(
        lambda order: st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda counts: tuple(zip(order, counts))
        )
    ),
)
congestion = st.tuples(st.just("toggle"), st.integers(0, 2))
turns = st.tuples(st.just("run"), st.integers(1, 4))
# Boundaries, congestion and writer turns are drawn three times as often as
# unsubscribing or dropping a connection, which only shrink the scenario.
steps = st.lists(
    st.one_of(
        *[boundaries, congestion, turns] * 3,
        st.tuples(st.just("unsubscribe"), st.integers(1, 8)),
        st.tuples(st.just("drop"), st.integers(0, 2)),
    ),
    min_size=4,
    max_size=30,
)


async def _scenario(hub, frames, queue, limit, subs, plan):
    server = AsapServer(hub, subscribe_queue=queue, max_message_bytes=limit)
    writers = [FakeWriter() for _ in range(3)]
    conns = [_Connection(writer) for writer in writers]
    for conn in conns:
        server._connections.add(conn)
        conn.writer_task = asyncio.ensure_future(server._push_writer(conn))
    for index, sid, resolution in subs:
        server._op_subscribe(conns[index], {"stream_id": sid, "resolution": resolution})

    produced = {conn: [] for conn in conns}
    queue_push = server._queue_push

    def recording_queue_push(sub, payload):
        queue_push(sub, payload)
        produced[sub.conn].append((sub.sub_id, sub.seq))

    server._queue_push = recording_queue_push

    def check_accounting():
        total = sum(len(p) for p in produced.values())
        queued = sum(len(conn.outbox) for conn in conns)
        assert server._pushes_sent + server._push_dropped + queued == total
        assert server._pushes_sent == sum(len(w.received) for w in writers)
        for conn in conns:
            assert len(conn.outbox) <= queue
            # Drop-oldest: what waits is always the newest pushes.
            waiting = [(head["subscription"], head["seq"]) for head in conn.outbox]
            assert waiting == produced[conn][len(produced[conn]) - len(waiting) :]
        index = {}
        for conn in conns:
            for sub_id, sub in conn.subs.items():
                index.setdefault(sub.stream_id, {})[sub_id] = sub
        assert server._subscribers == index

    for step in plan:
        if step[0] == "boundary":
            idle = [not w.congested and not c.wakeup.is_set() for w, c in zip(writers, conns)]
            sent = [len(w.received) for w in writers]
            server._dispatch_frames({sid: frames[sid][:count] for sid, count in step[1]})
            for was_idle, before, writer, conn in zip(idle, sent, writers, conns):
                if was_idle:
                    assert not conn.outbox, "an idle connection's pushes were held back"
                else:
                    assert len(writer.received) == before, "wrote past a busy connection"
        elif step[0] == "toggle":
            writers[step[1]].congest(not writers[step[1]].congested)
        elif step[0] == "unsubscribe":
            for conn in conns:
                server._op_unsubscribe(conn, {"subscription": step[1]})
        elif step[0] == "drop":
            server._drop_connection(conns[step[1]])
        else:
            for _ in range(step[1]):
                await asyncio.sleep(0)
        check_accounting()

    for writer in writers:
        writer.congest(False)
    for _ in range(50):  # the writer tasks drain what congestion held back
        await asyncio.sleep(0)
    assert not any(conn.outbox for conn in conns), "queued pushes were never sent"
    for conn in conns:
        conn.closing = True
        conn.wakeup.set()
    await asyncio.wait_for(asyncio.gather(*(c.writer_task for c in conns)), 5.0)
    check_accounting()
    assert server._pushes_sent + server._push_dropped == sum(len(p) for p in produced.values())

    for writer, conn in zip(writers, conns):
        messages = [wire.decode_payload(d[codec.WIRE_HEADER_SIZE :]) for d in writer.received]
        assert all(m["msg"] == "push" for m in messages)
        order = {key: i for i, key in enumerate(produced[conn])}
        positions = [order[(m["subscription"], m["seq"])] for m in messages]
        assert positions == sorted(set(positions)), "a push was duplicated or overtaken"
        delivered = set(positions)
        last_seq: dict[int, int] = {}
        for message, position in zip(messages, positions):
            sub_id, seq = message["subscription"], message["seq"]
            assert seq > last_seq.get(sub_id, 0)
            last_seq[sub_id] = seq
            lost = sum(1 for p in range(position) if p not in delivered)
            assert message["push_dropped"] == lost
        assert conn.push_dropped == len(produced[conn]) - len(delivered)


@given(
    queue=st.integers(1, 4),
    limit=st.sampled_from(LIMITS),
    subs=subscriptions,
    plan=steps,
)
@settings(deadline=None)
def test_push_order_and_accounting(sample, queue, limit, subs, plan):
    asyncio.run(_scenario(*sample, queue, limit, subs, plan))
