"""repro.net — the network serving tier.

``repro.connect("tcp://host:port")`` gives a remote dashboard the same
:class:`~repro.client.Client` surface as the in-process backends, with
**bit-identical frames**; :func:`serve` (or :class:`AsapServer` under an
existing event loop) puts any hub — :class:`~repro.service.StreamHub` or a
:class:`~repro.cluster.ShardedHub` — behind a socket::

    hub = repro.StreamHub()
    handle = repro.serve(hub)               # daemon thread, ephemeral port

    client = repro.connect(handle.url)      # anywhere on the network
    stream = client.stream(pane_size=4)
    sub = client.subscribe(stream.stream_id)        # server-push frames
    ...
    for event in client.pushes(timeout=1.0):
        event.frames  # delivered at each refresh boundary

The wire protocol is the checkpoint codec's raw-buffer envelope (JSON
manifest plus raw array bytes) behind an 8-byte length-prefixed header — pickle-free, schema-stamped (one
``SCHEMA_VERSION`` governs checkpoints *and* the protocol), bounded at
``MAX_MESSAGE_BYTES``.  See :mod:`repro.net.wire` for the message shapes,
:mod:`repro.net.server` for subscription/backpressure semantics, and the
README's "Remote serving" section for the protocol sketch.
"""

from .remote import PushEvent, RemoteBackend, parse_tcp_url
from .server import AsapServer, ServerHandle, serve

__all__ = [
    "AsapServer",
    "ServerHandle",
    "serve",
    "RemoteBackend",
    "PushEvent",
    "parse_tcp_url",
]
