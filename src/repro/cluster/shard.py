"""Shard workers: one StreamHub behind a command loop.

A shard is a complete :class:`~repro.service.StreamHub` driven through a
small command protocol — ``("ingest", payload)`` in, ``("ok", result)`` or
``("error", exception)`` out.  The ``"batch"`` command (a coordinator's
buffered ingests plus, optionally, the tick) replies
``(inline, ticked, live_ids, rejected)``: a buffered batch the hub rejects
is listed with its :class:`~repro.errors.DataQualityError` instead of
aborting the command.  Two interchangeable backends implement it:

* :class:`InProcessShard` — the hub lives in the coordinator's process and
  commands dispatch as direct calls.  Deterministic and cheap: the backend
  for tests, for single-machine serving where the GIL is not the bottleneck,
  and for reasoning about cluster semantics without multiprocessing in the
  picture.
* :class:`ProcessShard` — the hub lives in a ``multiprocessing`` worker
  running :func:`_worker_main`'s receive/dispatch/reply loop over a pipe.
  This is the real-parallelism backend: N shards smooth on N cores, and the
  coordinator pays one pipe round trip per command.

Both expose ``submit``/``result`` as separate steps so the coordinator can
fan a command out to every shard *before* collecting any reply — with
process shards the workers genuinely overlap.  Hub exceptions cross the pipe
as values and re-raise at the coordinator with their original type
(:class:`~repro.service.UnknownStreamError` stays an ``UnknownStreamError``),
so the cluster preserves the single-hub API contract.  A dead worker
surfaces as :class:`ShardDownError` — the signal the coordinator's recovery
path (drop the shard, restore its streams from a checkpoint) is built on.
"""

from __future__ import annotations

import multiprocessing
import traceback

from ..errors import (
    ClusterError,
    DataQualityError,
    RemoteShardError,
    ShardDownError,
    ShardProtocolError,
)
from ..service import StreamHub, UnknownStreamError
from ..spec import AsapSpec

__all__ = [
    "ClusterError",
    "ShardDownError",
    "ShardProtocolError",
    "RemoteShardError",
    "InProcessShard",
    "ProcessShard",
]


def _build_hub(hub_kwargs: dict, hub_state) -> StreamHub:
    """One shard's hub, from wire-format kwargs or a checkpointed state.

    ``hub_kwargs`` is the coordinator's wire form: its ``default_config`` is
    a plain spec dict (or ``None``), exactly as the persist codec carries it,
    so the config schema has one spelling whether a spec arrives at a shard
    through construction, a ``create`` command, or a checkpoint.
    """
    if hub_state is not None:
        return StreamHub.from_state(hub_state)
    kwargs = dict(hub_kwargs)
    if kwargs.get("default_config") is not None:
        kwargs["default_config"] = AsapSpec.from_dict(kwargs["default_config"])
    return StreamHub(**kwargs)


def _dispatch(hub: StreamHub, command: str, payload):
    """Execute one protocol command against *hub*; shared by both backends."""
    if command == "batch":
        ingests, run_tick = payload
        inline: dict[str, list] = {}
        rejected: list[tuple[str, DataQualityError]] = []
        for stream_id, timestamps, values in ingests:
            try:
                frames = hub.ingest(stream_id, timestamps, values)
            except UnknownStreamError:
                # Evicted hub-side (LRU/idle) after the coordinator buffered
                # this batch — exactly the error a single hub would have
                # raised at the ingest call.  The live-ids reply below lets
                # the coordinator reconcile its placement map.
                continue
            except DataQualityError as exc:
                # A rejected batch changed nothing; the other buffered
                # batches and the tick still run, and the coordinator raises
                # the rejection once every shard has replied.
                rejected.append((stream_id, exc))
                continue
            if frames:
                inline.setdefault(stream_id, []).extend(frames)
        ticked = hub.tick() if run_tick else {}
        return inline, ticked, hub.stream_ids(), rejected
    if command == "ingest":
        stream_id, timestamps, values = payload
        return hub.ingest(stream_id, timestamps, values)
    if command == "backfill":
        stream_id, timestamps, values = payload
        return hub.backfill(stream_id, timestamps, values)
    if command == "tick":
        return hub.tick()
    if command == "create":
        stream_id, config_state, overrides = payload
        # Specs cross the IPC boundary as plain dicts (the codec's spelling);
        # they rebuild — and revalidate — at the shard.
        config = None if config_state is None else AsapSpec.from_dict(config_state)
        return hub.create_stream(stream_id, config, **overrides)
    if command == "snapshot":
        stream_id, resolution, include_partial = payload
        return hub.snapshot(stream_id, resolution=resolution, include_partial=include_partial)
    if command == "close":
        stream_id, flush = payload
        return hub.close(stream_id, flush=flush)
    if command == "stats":
        return hub.stats
    if command == "stream_ids":
        return hub.stream_ids()
    if command == "export":
        stream_id, remove = payload
        return hub.export_session(stream_id, remove=remove)
    if command == "import":
        return hub.import_session(payload)
    if command == "state":
        return hub.state_dict()
    if command == "ping":
        return "pong"
    raise ShardProtocolError(f"unknown shard command {command!r}")


def _worker_main(connection, hub_kwargs: dict, hub_state) -> None:  # pragma: no cover
    """The process-shard loop: recv (command, payload), dispatch, send reply.

    Exercised end to end by the process-backend tests, but in *child*
    processes, where the coverage tracer does not run — hence the pragma.
    """
    hub = _build_hub(hub_kwargs, hub_state)
    while True:
        try:
            command, payload = connection.recv()
        except (EOFError, OSError):
            break  # coordinator went away; die quietly
        if command == "shutdown":
            connection.send(("ok", None))
            break
        try:
            result = _dispatch(hub, command, payload)
        except Exception as exc:  # hub errors are protocol results, not crashes
            try:
                connection.send(("error", exc))
            except Exception:
                connection.send(("error", RemoteShardError(traceback.format_exc())))
        else:
            connection.send(("ok", result))
    connection.close()


class InProcessShard:
    """A shard whose hub lives in the coordinator's process.

    ``kill()`` marks the shard dead without touching its hub — the test and
    demo hook for exercising the coordinator's failure handling without a
    real process crash.
    """

    backend = "inprocess"

    def __init__(self, shard_id: str, hub_kwargs: dict, hub_state=None) -> None:
        self.shard_id = shard_id
        self.hub = _build_hub(hub_kwargs, hub_state)
        self._reply = None
        self._dead = False

    @property
    def alive(self) -> bool:
        return not self._dead

    def submit(self, command: str, payload=None) -> None:
        """Run *command* now; the reply is held until :meth:`result`."""
        if self._dead:
            raise ShardDownError(self.shard_id)
        if self._reply is not None:
            raise ShardProtocolError(
                f"shard {self.shard_id!r} has an uncollected reply; call result() first"
            )
        try:
            self._reply = ("ok", _dispatch(self.hub, command, payload))
        except Exception as exc:
            self._reply = ("error", exc)

    def result(self):
        """The reply to the last :meth:`submit` (raises what the hub raised)."""
        if self._dead:
            raise ShardDownError(self.shard_id)
        if self._reply is None:
            raise ShardProtocolError(f"shard {self.shard_id!r} has no pending reply")
        status, value = self._reply
        self._reply = None
        if status == "error":
            raise value
        return value

    def request(self, command: str, payload=None):
        """submit + result in one step (for single-shard commands)."""
        self.submit(command, payload)
        return self.result()

    def shutdown(self) -> None:
        self._dead = True

    def kill(self) -> None:
        """Simulate a crash: the shard stops answering (state unrecoverable)."""
        self._dead = True
        self._reply = None


class ProcessShard:
    """A shard whose hub lives in a ``multiprocessing`` worker process.

    One pipe, strict request/reply alternation per shard (the coordinator
    enforces it via submit/result), daemonized so leaked workers die with the
    coordinator.  All payloads cross the pipe via multiprocessing's native
    transport; *state* payloads (migration, checkpoint) are the plain
    scalar/array trees of the persist layer.
    """

    backend = "process"

    def __init__(
        self,
        shard_id: str,
        hub_kwargs: dict,
        hub_state=None,
        start_method: str | None = None,
    ) -> None:
        self.shard_id = shard_id
        context = multiprocessing.get_context(start_method)
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main,
            args=(child, hub_kwargs, hub_state),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._awaiting_reply = False

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def submit(self, command: str, payload=None) -> None:
        """Send *command* down the pipe; the worker replies to :meth:`result`."""
        if self._awaiting_reply:
            raise ShardProtocolError(
                f"shard {self.shard_id!r} has an uncollected reply; call result() first"
            )
        try:
            self._connection.send((command, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardDownError(self.shard_id) from exc
        self._awaiting_reply = True

    def result(self):
        """Receive the worker's reply (raises what the worker's hub raised)."""
        if not self._awaiting_reply:
            raise ShardProtocolError(f"shard {self.shard_id!r} has no pending reply")
        try:
            status, value = self._connection.recv()
        except (EOFError, OSError) as exc:
            raise ShardDownError(self.shard_id) from exc
        finally:
            self._awaiting_reply = False
        if status == "error":
            raise value
        return value

    def request(self, command: str, payload=None):
        """submit + result in one step (for single-shard commands)."""
        self.submit(command, payload)
        return self.result()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker gracefully; escalate to kill if it does not exit."""
        try:
            self.request("shutdown")
        except (ShardDownError, ShardProtocolError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)
        self._connection.close()

    def kill(self) -> None:
        """Hard-kill the worker (failure injection; in-memory state is lost)."""
        self._process.terminate()
        self._process.join(5.0)
        self._connection.close()
