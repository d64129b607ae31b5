"""Server-push subscriptions: delivery, backpressure, graceful shutdown.

The backpressure tests lean on a determinism property of the server: one
refresh boundary's pushes are enqueued *synchronously* on the event loop
(the writer task cannot interleave), so a ``subscribe_queue`` smaller than
the number of matching subscriptions must drop the oldest pushes and count
them — no timing games required.
"""

from __future__ import annotations

import socket
import threading

import pytest

from netutil import SPEC, make_arrivals
from repro.errors import ConnectionClosedError, NetError, UnknownStreamError
from repro.net import wire
from repro.net.remote import RemoteBackend
from repro.net.server import serve
from repro.persist import codec
from repro.service import StreamHub


class TestDelivery:
    def test_inline_ingest_frames_are_pushed(self, remote):
        sid = remote.create_stream(stream_id="s")
        sub = remote.subscribe(sid)
        ts, vs = make_arrivals(100)
        inline = remote.ingest(sid, ts, vs)
        assert inline, "workload must cross interior refresh boundaries"
        events = remote.wait_pushes(1, timeout=10)
        assert events
        pushed = [f for e in events for f in e.frames]
        assert len(pushed) == len(inline)
        for a, b in zip(pushed, inline):
            assert a.series.values.tobytes() == b.series.values.tobytes()
        assert all(e.subscription == sub and e.stream_id == sid for e in events)

    def test_tick_frames_are_pushed(self, remote):
        sid = remote.create_stream(stream_id="t")
        remote.subscribe(sid)
        # 10 panes: the interior boundary at pane 5 is below the minimum
        # search width (emits nothing); the batch-end boundary defers.
        ts, vs = make_arrivals(40)
        assert remote.ingest(sid, ts, vs) == []
        assert remote.snapshot(sid).refresh_due
        emitted = remote.tick()[sid]
        events = remote.wait_pushes(1, timeout=10)
        pushed = [f for e in events for f in e.frames]
        assert len(pushed) == len(emitted) == 1
        assert pushed[0].series.values.tobytes() == emitted[0].series.values.tobytes()

    def test_seq_increments_per_subscription(self, remote):
        sid = remote.create_stream(stream_id="q")
        remote.subscribe(sid)
        ts, vs = make_arrivals(100)
        remote.ingest(sid, ts, vs)
        remote.ingest(sid, ts + 100, vs)
        events = remote.wait_pushes(2, timeout=10)
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_subscribe_unknown_stream_rejected(self, remote):
        with pytest.raises(UnknownStreamError):
            remote.subscribe("ghost")

    def test_unsubscribe_stops_pushes(self, remote):
        sid = remote.create_stream(stream_id="u")
        sub = remote.subscribe(sid)
        ts, vs = make_arrivals(100)
        remote.ingest(sid, ts, vs)
        assert remote.wait_pushes(1, timeout=10)
        assert remote.unsubscribe(sub)
        remote.pushes()  # drain anything in flight
        remote.ingest(sid, ts + 100, vs)
        remote.ping()  # forces a full round trip after the ingest
        assert remote.pushes(timeout=0.2) == []

    def test_two_clients_get_independent_deliveries(self, server, remote):
        other = RemoteBackend(*server.address, spec=SPEC)
        sid = remote.create_stream(stream_id="pair")
        remote.subscribe(sid)
        other.subscribe(sid)
        ts, vs = make_arrivals(100)
        remote.ingest(sid, ts, vs)
        mine = remote.wait_pushes(1, timeout=10)
        theirs = other.wait_pushes(1, timeout=10)
        assert mine and theirs
        assert (
            mine[0].frames[0].series.values.tobytes()
            == theirs[0].frames[0].series.values.tobytes()
        )
        other.shutdown()

    def test_close_flush_frames_are_pushed(self, remote):
        sid = remote.create_stream(stream_id="c")
        remote.subscribe(sid)
        ts, vs = make_arrivals(30)  # 10 points past the deferred boundary
        remote.ingest(sid, ts, vs)
        remote.pushes()  # drain boundary pushes
        final = remote.close(sid, flush=True)
        if final:  # the partial tail pane flushed as a closing frame
            events = remote.wait_pushes(1, timeout=10)
            pushed = [f for e in events for f in e.frames]
            assert pushed[-1].series.values.tobytes() == final[-1].series.values.tobytes()


class TestBackpressure:
    def test_drop_oldest_is_counted_and_sequenced(self, hub):
        handle = serve(hub, subscribe_queue=1)
        try:
            client = RemoteBackend(*handle.address, spec=SPEC)
            sid = client.create_stream(stream_id="s")
            # Three subscriptions on one connection: one boundary enqueues
            # three pushes back-to-back into a queue of one.
            subs = [client.subscribe(sid) for _ in range(3)]
            ts, vs = make_arrivals(100)
            client.ingest(sid, ts, vs)
            events = client.wait_pushes(1, timeout=10)
            # Only the newest push survived the bounded outbox.
            assert len(events) == 1
            assert events[0].subscription == subs[-1]
            assert events[0].push_dropped == 2
            stats = client.server_stats()
            assert stats["push_dropped"] == 2
            assert stats["pushes_sent"] == 1
            client.shutdown()
        finally:
            handle.stop()

    def test_roomy_queue_drops_nothing(self, hub):
        handle = serve(hub, subscribe_queue=64)
        try:
            client = RemoteBackend(*handle.address, spec=SPEC)
            sid = client.create_stream(stream_id="s")
            subs = [client.subscribe(sid) for _ in range(3)]
            ts, vs = make_arrivals(100)
            inline = client.ingest(sid, ts, vs)
            assert inline
            events = client.wait_pushes(3, timeout=10)
            assert sorted(e.subscription for e in events) == sorted(subs)
            assert all(e.push_dropped == 0 for e in events)
            assert client.server_stats()["push_dropped"] == 0
            client.shutdown()
        finally:
            handle.stop()

    def test_stalled_reader_drops_oldest_and_others_are_unaffected(self, hub):
        handle = serve(hub, subscribe_queue=4)
        try:
            producer = RemoteBackend(*handle.address, spec=SPEC)
            fast = RemoteBackend(*handle.address, spec=SPEC)
            # Wide frames (about 13 kB a push) fill the socket buffers fast.
            sid = producer.create_stream(
                stream_id="s", config=SPEC.merge(resolution=400), history=make_arrivals(4000)
            )
            # A raw subscriber with a tiny receive buffer that stops reading
            # once subscribed.
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(10.0)
            slow.connect(handle.address)
            stream = slow.makefile("rb")

            def read_message():
                length = codec.parse_header(stream.read(codec.WIRE_HEADER_SIZE))
                return wire.decode_payload(stream.read(length))

            assert read_message()["msg"] == "hello"
            slow.sendall(
                wire.encode_message(
                    {"msg": "request", "id": 1, "op": "subscribe", "args": {"stream_id": sid}}
                )
            )
            slow_sub = read_message()["result"]["subscription"]
            fast_sub = fast.subscribe(sid)

            ts, vs = make_arrivals(20, start=4010)  # one interior boundary a batch
            produced, fast_events = 0, []
            for batch in range(2000):
                if producer.server_stats()["push_dropped"] >= 5:
                    break
                produced += bool(producer.ingest(sid, ts + 20 * batch, vs))
                fast_events += fast.pushes()
            else:
                pytest.fail("the stalled reader never lost a push")
            fast_events += fast.wait_pushes(produced - len(fast_events), timeout=10)

            # The fast subscriber got every push, in order, with no drops.
            assert [(e.subscription, e.seq, e.push_dropped) for e in fast_events] == [
                (fast_sub, seq, 0) for seq in range(1, produced + 1)
            ]
            # The stalled one gets the newest pushes; each seq gap arrives
            # with the same advance of its drop counter.
            delivered = []
            while not delivered or delivered[-1]["seq"] < produced:
                delivered.append(read_message())
            assert {m["subscription"] for m in delivered} == {slow_sub}
            seqs = [0] + [m["seq"] for m in delivered]
            drops = [0] + [m["push_dropped"] for m in delivered]
            for i in range(1, len(seqs)):
                assert seqs[i] - seqs[i - 1] - 1 == drops[i] - drops[i - 1]
            lost = produced - len(delivered)
            assert lost > 0 and drops[-1] == lost
            stats = producer.server_stats()
            assert stats["push_dropped"] == lost
            assert stats["pushes_sent"] == produced + len(delivered)
            stream.close()
            slow.close()
            producer.shutdown()
            fast.shutdown()
        finally:
            handle.stop()


class TestWriteThrough:
    """A push leaves at its refresh boundary: a frame observer registered
    after the server's runs on the server's loop thread, which is blocked
    until it returns, and reads the subscriber's socket from there."""

    @staticmethod
    def watch(hub, subscriber, count):
        seen = []

        def observer(frames):
            events = subscriber.wait_pushes(count, timeout=2.0)
            seen.append((threading.current_thread().name, list(frames), events))

        hub.add_frame_observer(observer)
        return seen, observer

    def test_inline_boundary_push_is_sent_before_the_request_returns(self, server, hub, remote):
        subscriber = RemoteBackend(*server.address, spec=SPEC)
        sid = remote.create_stream(stream_id="s")
        sub = subscriber.subscribe(sid)
        seen, observer = self.watch(hub, subscriber, 1)
        try:
            inline = remote.ingest(sid, *make_arrivals(100))
        finally:
            hub.remove_frame_observer(observer)
        assert inline
        [(thread, streams, events)] = seen
        assert thread == "asap-server" and streams == [sid]
        assert [(e.subscription, e.seq, e.push_dropped) for e in events] == [(sub, 1, 0)]
        pushed = events[0].frames
        assert [f.series.values.tobytes() for f in pushed] == [
            f.series.values.tobytes() for f in inline
        ]
        subscriber.shutdown()

    def test_tick_pushes_each_due_stream_in_emission_order(self, server, hub, remote):
        subscriber = RemoteBackend(*server.address, spec=SPEC)
        ts, vs = make_arrivals(40)  # each lands on a deferred boundary
        sids = [remote.create_stream(stream_id=name) for name in ("b", "a")]
        subs = {sid: subscriber.subscribe(sid) for sid in sids}
        for sid in sids:
            assert remote.ingest(sid, ts, vs) == []
        seen, observer = self.watch(hub, subscriber, 2)
        try:
            emitted = remote.tick()
        finally:
            hub.remove_frame_observer(observer)
        [(thread, streams, events)] = seen
        assert thread == "asap-server" and sorted(streams) == sorted(sids)
        assert [e.stream_id for e in events] == streams
        assert [e.subscription for e in events] == [subs[sid] for sid in streams]
        for event in events:
            [frame] = event.frames
            [expected] = emitted[event.stream_id]
            assert frame.series.values.tobytes() == expected.series.values.tobytes()
        subscriber.shutdown()


class TestUnframeablePush:
    def test_oversized_push_is_dropped_not_the_producers_request(self, hub):
        # The limit fits the producer's ingest response but not the push of
        # the same three frames, whose head is larger.
        handle = serve(hub, max_message_bytes=2052)
        try:
            producer = RemoteBackend(*handle.address, spec=SPEC)
            subscriber = RemoteBackend(*handle.address, spec=SPEC)
            sid = producer.create_stream(stream_id="s")
            sub = subscriber.subscribe(sid)
            ts, vs = make_arrivals(100)
            assert len(producer.ingest(sid, ts, vs)) == 3
            assert subscriber.pushes(timeout=0.2) == []
            stats = producer.server_stats()
            assert (stats["pushes_sent"], stats["push_dropped"]) == (0, 1)
            # One more boundary's single frame fits: the subscriber sees the
            # gap and the drop on the same push.
            [frame] = producer.ingest(sid, ts[:20] + 100, vs[:20])
            [event] = subscriber.wait_pushes(1, timeout=10)
            assert (event.subscription, event.seq, event.push_dropped) == (sub, 2, 1)
            assert event.frames[0].series.values.tobytes() == frame.series.values.tobytes()
            producer.shutdown()
            subscriber.shutdown()
        finally:
            handle.stop()


class TestGracefulShutdown:
    def test_stop_flushes_pending_ticks_to_subscribers(self):
        hub = StreamHub(default_config=SPEC)
        handle = serve(hub)
        client = RemoteBackend(*handle.address, spec=SPEC)
        sid = client.create_stream(stream_id="s")
        client.subscribe(sid)
        ts, vs = make_arrivals(40)  # lands exactly on a deferred boundary
        assert client.ingest(sid, ts, vs) == []
        assert client.snapshot(sid).refresh_due
        # Stop without ever ticking: the graceful path must run the final
        # tick and drain the resulting push before closing the socket.
        handle.stop(flush=True)
        events = client.pushes(timeout=10)
        assert len(events) == 1
        frame = events[0].frames[0]
        # The flushed frame is the one an explicit tick would have emitted.
        witness = StreamHub(default_config=SPEC)
        witness.create_stream("s")
        witness.ingest("s", ts, vs)
        expected = witness.tick()["s"][0]
        assert frame.series.values.tobytes() == expected.series.values.tobytes()
        with pytest.raises((ConnectionClosedError, NetError)):
            client.ping()
        client.shutdown()

    def test_stop_without_flush_skips_the_final_tick(self):
        hub = StreamHub(default_config=SPEC)
        handle = serve(hub)
        client = RemoteBackend(*handle.address, spec=SPEC)
        sid = client.create_stream(stream_id="s")
        client.subscribe(sid)
        ts, vs = make_arrivals(40)
        client.ingest(sid, ts, vs)
        handle.stop(flush=False)
        assert client.pushes(timeout=0.5) == []
        # The deferred refresh is still pending in the (local) hub.
        assert hub.snapshot(sid).refresh_due
        client.shutdown()


class TestResolutionSubscriptions:
    def test_view_pushes_match_polled_snapshots(self, remote, hub):
        sid = remote.create_stream(stream_id="v")
        ts, vs = make_arrivals(200)
        remote.ingest(sid, ts, vs)
        remote.pushes(timeout=0.2)  # drain the plain-frame era (no subs yet)
        remote.subscribe(sid, resolution=25)
        remote.ingest(sid, ts + 200, vs)
        events = [e for e in remote.wait_pushes(1, timeout=10) if e.view is not None]
        assert events, "a refresh boundary must produce a view push"
        view = events[-1].view
        polled = hub.snapshot(sid, resolution=25)
        assert view.resolution == 25
        assert view.series.values.tobytes() == polled.series.values.tobytes()
        assert view.series.timestamps.tobytes() == polled.series.timestamps.tobytes()
        assert view.window == polled.window
        assert view.search == polled.search

    def test_unservable_view_skips_boundary_not_subscription(self, remote):
        sid = remote.create_stream(stream_id="w")
        # Subscribing at an absurd width is allowed; early boundaries are
        # skipped until the pyramid can serve it, and the connection and
        # subscription stay healthy throughout.
        remote.subscribe(sid, resolution=10_000)
        ts, vs = make_arrivals(40)
        remote.ingest(sid, ts, vs)
        remote.ping()
        assert remote.pushes(timeout=0.2) == []
        assert remote.ping()


class TestClientFacadePassthrough:
    def test_in_process_backends_name_the_requirement(self):
        import repro

        client = repro.connect("local")
        with pytest.raises(NetError, match="tcp://"):
            client.subscribe("anything")
        with pytest.raises(NetError, match="tcp://"):
            client.pushes()

    def test_facade_subscribe_round_trip(self, server):
        import repro

        client = repro.connect(server.url, spec=SPEC)
        stream = client.stream(stream_id="f")
        sub = stream.subscribe()
        assert isinstance(sub, int)
        ts, vs = make_arrivals(100)
        stream.ingest(ts, vs)
        deadline_events = client.hub.wait_pushes(1, timeout=10)
        assert deadline_events
        assert client.pushes() == [] or True  # stash already drained above
        client.close()
