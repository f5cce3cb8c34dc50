"""Wire protocol of the distributed executor: length-prefixed pickles,
optionally authenticated with HMAC-SHA256.

Every message is one *frame*.  Unsigned frames are an 8-byte header --
the 4-byte magic ``b"rpd1"`` followed by the payload length as a
big-endian ``u32`` -- then the pickled message object.  Signed frames
use the magic ``b"rps1"`` and extend the header with a ``u64`` frame
sequence number and a 32-byte HMAC-SHA256 tag over (magic, length,
sequence, payload); the tag is verified and the sequence checked for
strict per-connection monotonicity *before* the payload is unpickled,
so an unsigned, garbled, truncated or replayed frame is refused while
it is still inert bytes.  Framing is the only thing this module knows
about sockets; the message *types* are small frozen dataclasses
(:class:`Hello` .. :class:`Shutdown`) so the coordinator and worker can
dispatch on ``isinstance`` and a captured frame is self-describing.

The magic makes a stray connection (port scanner, wrong service) fail
loudly as :class:`ProtocolError` instead of unpickling garbage, and the
:data:`MAX_FRAME` cap bounds what a corrupt length field can make us
allocate.  A cleanly closed peer surfaces as :class:`ConnectionClosed`.

Trust model: the HMAC key (``REPRO_CLUSTER_KEY`` or ``--cluster-key``,
see :func:`resolve_cluster_key`) authenticates *peers* -- only a key
holder can produce frames the other side will unpickle.  It does not
make the payload safe against a hostile key holder: pickle over TCP
means a worker will execute what the coordinator sends (and vice
versa), so share the key only with machines you would also hand a
shell -- the same boundary as ``multiprocessing``'s own socket
transports, now enforced cryptographically instead of by network
topology alone.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "MAGIC",
    "SIGNED_MAGIC",
    "MAX_FRAME",
    "CLUSTER_KEY_ENV",
    "ProtocolError",
    "ConnectionClosed",
    "FrameSigner",
    "resolve_cluster_key",
    "send_msg",
    "recv_msg",
    "vet_message",
    "read_frame_bytes",
    "parse_address",
    "format_address",
    "Hello",
    "Welcome",
    "TaskMessage",
    "ResultMessage",
    "Heartbeat",
    "Shutdown",
]

#: bump on any incompatible change to framing or message layout; the
#: handshake rejects a peer speaking another version before any task
#: or result crosses the wire.  v2: the coordinator sends keepalive
#: :class:`Heartbeat` frames to idle workers (a v1 worker would treat
#: them as a protocol error) and quarantined tasks surface as
#: :class:`ResultMessage` frames with ``quarantined=True``.
PROTOCOL_VERSION = 2

MAGIC = b"rpd1"
SIGNED_MAGIC = b"rps1"
_HEADER = struct.Struct("!4sI")
#: signed-frame extension after the base header: frame seq + HMAC tag
_SIG_EXT = struct.Struct("!Q32s")

#: environment variable consulted for the cluster's shared HMAC key
CLUSTER_KEY_ENV = "REPRO_CLUSTER_KEY"

#: largest payload a peer may announce (64 MiB); a real frame is a few
#: KiB, so anything near this is corruption or a hostile length field.
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid (authenticated) frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


# ---------------------------------------------------------------------- #
# authentication


def resolve_cluster_key(explicit: Optional[str] = None) -> Optional[bytes]:
    """The cluster HMAC key: ``explicit`` (e.g. ``--cluster-key``) wins,
    else the :data:`CLUSTER_KEY_ENV` environment variable, else ``None``
    (unsigned frames -- the pre-PR-7 trusted-LAN mode)."""
    raw = explicit if explicit is not None else os.environ.get(CLUSTER_KEY_ENV)
    if raw is None or raw == "":
        return None
    return raw.encode("utf-8")


class FrameSigner:
    """Per-connection frame authenticator.

    Holds the shared key plus one counter per direction: every signed
    frame carries the sender's next sequence number, and the receiver
    accepts only the exact sequence it expects -- so a captured frame
    replayed into the stream (or one silently dropped by a middlebox)
    breaks the connection instead of smuggling a stale message in.

    One instance guards exactly one socket.  Sends from multiple
    threads must already be serialised by the caller (both daemons hold
    a send lock around :func:`send_msg`), which also serialises the
    counter.
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("cluster key must be non-empty")
        self._key = key
        self.send_seq = 0
        self.recv_seq = 0

    def _tag(self, seq: int, payload: bytes) -> bytes:
        msg = _HEADER.pack(SIGNED_MAGIC, len(payload))
        msg += seq.to_bytes(8, "big") + payload
        return hmac.new(self._key, msg, "sha256").digest()

    def frame(self, payload: bytes) -> bytes:
        """The full signed frame for ``payload``; advances ``send_seq``."""
        seq = self.send_seq
        self.send_seq += 1
        return (
            _HEADER.pack(SIGNED_MAGIC, len(payload))
            + _SIG_EXT.pack(seq, self._tag(seq, payload))
        ) + payload

    def verify(self, seq: int, tag: bytes, payload: bytes) -> None:
        """Raise :class:`ProtocolError` unless ``tag`` authenticates
        ``payload`` as the exact next frame of this connection."""
        if not hmac.compare_digest(self._tag(seq, payload), tag):
            raise ProtocolError(
                "frame signature mismatch (wrong cluster key, or the frame "
                "was corrupted in transit); payload refused unread"
            )
        if seq != self.recv_seq:
            raise ProtocolError(
                f"replayed or reordered frame: got sequence {seq}, expected "
                f"{self.recv_seq}; payload refused unread"
            )
        self.recv_seq += 1


# ---------------------------------------------------------------------- #
# framing


def send_msg(
    sock: socket.socket, obj: Any, signer: Optional[FrameSigner] = None
) -> None:
    """Pickle ``obj`` and write it as one frame (signed iff ``signer``)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    if signer is not None:
        sock.sendall(signer.frame(payload))
    else:
        sock.sendall(_HEADER.pack(MAGIC, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _check_length(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})")


def recv_msg(sock: socket.socket, signer: Optional[FrameSigner] = None) -> Any:
    """Read one frame and unpickle its payload.

    With a ``signer``, only signed frames bearing a valid HMAC and the
    expected sequence number are unpickled; an unsigned frame from the
    peer is refused outright (and vice versa: a signed frame arriving
    where no key is configured is refused, since it cannot be
    verified).  Raises :class:`ConnectionClosed` on EOF,
    :class:`ProtocolError` on a bad magic, an oversized length field, a
    failed signature/sequence check, or an unpicklable payload.
    """
    magic, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if signer is not None:
        if magic == MAGIC:
            raise ProtocolError(
                "unsigned frame refused: this endpoint requires HMAC-signed "
                "frames (is the peer missing the cluster key?)"
            )
        if magic != SIGNED_MAGIC:
            raise ProtocolError(
                f"bad frame magic {magic!r} (expected {SIGNED_MAGIC!r})"
            )
        _check_length(length)
        seq, tag = _SIG_EXT.unpack(_recv_exact(sock, _SIG_EXT.size))
        payload = _recv_exact(sock, length)
        signer.verify(seq, tag, payload)  # before any unpickling
    else:
        if magic == SIGNED_MAGIC:
            raise ProtocolError(
                "signed frame received but no cluster key is configured "
                f"here; set {CLUSTER_KEY_ENV} (or --cluster-key) to match "
                "the peer"
            )
        if magic != MAGIC:
            raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
        _check_length(length)
        payload = _recv_exact(sock, length)
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def read_frame_bytes(sock: socket.socket) -> bytes:
    """Read one raw frame (header + body) without interpreting it.

    The chaos proxy's frame pump: it must find frame boundaries in
    either protocol flavour to mangle whole frames, but has no key and
    never unpickles.  Raises like :func:`recv_msg` on framing damage.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic not in (MAGIC, SIGNED_MAGIC):
        raise ProtocolError(f"bad frame magic {magic!r}")
    _check_length(length)
    ext = _recv_exact(sock, _SIG_EXT.size) if magic == SIGNED_MAGIC else b""
    return header + ext + _recv_exact(sock, length)


# ---------------------------------------------------------------------- #
# addresses


def parse_address(address: str) -> tuple[str, int]:
    """``"tcp://host:port"`` (or bare ``"host:port"``) -> ``(host, port)``."""
    spec = address
    if "://" in spec:
        scheme, _, spec = spec.partition("://")
        if scheme != "tcp":
            raise ValueError(
                f"unsupported scheme {scheme!r} in {address!r}; only tcp:// is spoken"
            )
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} must look like tcp://host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port {port_text!r} in {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {address!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    return f"tcp://{host}:{port}"


# ---------------------------------------------------------------------- #
# messages


@dataclass(frozen=True)
class Hello:
    """Worker -> coordinator, first frame after connecting.

    The ``engine`` stamp vets kernel provenance, not wire
    compatibility: a worker running another
    :data:`~repro.sim.engine.ENGINE_VERSION` (e.g. a v4 checkout talking
    to a v5 coordinator) is refused at the handshake even when, as in
    the v4->v5 swap, the kernels are proven bit-identical -- mixed-kernel
    runs must be a deliberate choice, never an accident of deployment
    skew.
    """

    protocol: int
    engine: int  #: the worker's kernel ENGINE_VERSION (must match)
    pid: int
    host: str
    tag: Optional[str] = None  #: free-form operator label, logging only


@dataclass(frozen=True)
class Welcome:
    """Coordinator -> worker, accepting the registration."""

    worker_id: str
    protocol: int
    heartbeat_timeout: float  #: worker must beat well inside this; it is
    #: also the worker's recv deadline -- the coordinator keepalives an
    #: idle worker every third of it, so a silent partition surfaces as
    #: a recv timeout on the worker side instead of an eternal block


@dataclass(frozen=True)
class TaskMessage:
    """Coordinator -> worker: execute ``fn(item)`` for sequence ``seq``."""

    seq: int
    fn: Callable[[Any], Any]  #: top-level function, pickled by reference
    item: Any


@dataclass(frozen=True)
class ResultMessage:
    """Worker -> coordinator: the outcome of one :class:`TaskMessage`.

    Also synthesised *by* the coordinator when a task exhausts its retry
    budget: ``quarantined=True`` marks a poison task that was withdrawn
    from circulation instead of being re-queued forever.
    """

    seq: int
    ok: bool
    value: Any = None  #: ``fn(item)`` when ok
    error: Optional[str] = None  #: remote traceback text when not ok
    worker_id: str = ""
    quarantined: bool = False  #: retry budget exhausted; never re-queued


@dataclass(frozen=True)
class Heartbeat:
    """Worker -> coordinator while executing, proving liveness; and
    coordinator -> worker while idle, proving the queue side is alive
    through work droughts (so the worker's recv deadline only fires on
    a genuinely lost coordinator)."""

    worker_id: str = ""


@dataclass(frozen=True)
class Shutdown:
    """Either direction: close the session (with a human-readable reason)."""

    reason: str = ""


#: The message vocabulary: every class that may ride a frame, mapped to
#: the :data:`PROTOCOL_VERSION` that introduced it.  Dispatch is still
#: ``isinstance``, but the registry makes the vocabulary explicit --
#: :func:`vet_message` refuses any unpickled payload whose type is not
#: listed here, so a class added to this module without a registry
#: entry (or a hostile payload of some other type) fails loudly at the
#: receiver instead of falling through every dispatch arm silently.
#: The ``frame-registry`` lint rule (``python -m repro lint``) keeps
#: this dict complete and the versions inside 1..PROTOCOL_VERSION.
MESSAGE_TYPES: dict[type, int] = {
    Hello: 1,
    Welcome: 1,
    TaskMessage: 1,
    ResultMessage: 1,
    Heartbeat: 1,
    Shutdown: 1,
}


def vet_message(obj: Any) -> Any:
    """Return ``obj`` if its exact type is a registered message, else
    raise :class:`ProtocolError`.  Called on every received payload by
    the coordinator and worker daemons, right after unpickling."""
    if type(obj) not in MESSAGE_TYPES:
        raise ProtocolError(
            f"unregistered message type {type(obj).__name__!r}; known "
            f"messages: {sorted(cls.__name__ for cls in MESSAGE_TYPES)}"
        )
    return obj
