"""Malformed HTTP input gets a 4xx answer from both wire servers.

The sweep service (:mod:`repro.serve`) and the distributed coordinator
(:mod:`repro.dist`) parse request heads with the same
:mod:`repro.serve.protocol` helpers.  A request line that is not three
tokens, a ``Content-Length`` that is not a decimal digit string (or
exceeds the body limit), or a head line past the stream reader's limit
must be answered with a 4xx and a close — never a silently dropped
connection or an unhandled exception inside the asyncio connection
callback.  Raw sockets, because a well-behaved client cannot send these.
"""

import logging
import socket
from urllib.parse import urlsplit

import pytest

from repro.dist import CoordinatorThread
from repro.exec import ResultCache
from repro.serve import ServerThread

#: probe -> (raw request bytes, expected status).  The oversized probe
#: carries a well-formed request where its body would be: the server
#: must not read it, let alone answer it.
PROBES = {
    "length-abc": (b"POST /v1/submit HTTP/1.1\r\n"
                   b"Content-Length: abc\r\n\r\n{}", 400),
    "length-negative": (b"POST /v1/submit HTTP/1.1\r\n"
                        b"Content-Length: -5\r\n\r\n{}", 400),
    "length-too-large": (b"POST /v1/submit HTTP/1.1\r\n"
                         b"Content-Length: 99999999\r\n\r\n"
                         b"GET /v1/healthz HTTP/1.1\r\n\r\n", 413),
    "garbage-request-line": (b"GARBAGE\r\n\r\n", 400),
    "header-line-too-long": (b"GET /v1/healthz HTTP/1.1\r\nX-Pad: "
                             + b"a" * 70_000 + b"\r\n\r\n", 400),
}


def _exchange(url: str, payload: bytes) -> bytes:
    """Send ``payload`` raw and read until the server closes (a reset
    after the answer, from bytes the server never read, also ends it)."""
    parts = urlsplit(url)
    chunks = []
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("kind", ["serve", "dist"])
def test_malformed_request_head_gets_4xx_and_close(kind, probe, tmp_path,
                                                   caplog):
    payload, status = PROBES[probe]
    if kind == "serve":
        server = ServerThread(cache=ResultCache(root=tmp_path), jobs=1)
    else:
        server = CoordinatorThread(lease_seconds=5.0)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with server:
            reply = _exchange(server.url, payload)
            if kind == "serve":
                assert server.server.errors_4xx == 1
    assert reply.startswith(b"HTTP/1.1 %d " % status), reply[:200]
    assert reply.count(b"HTTP/1.1 ") == 1, reply[:400]
    assert b'"status": %d' % status in reply
    assert not [r for r in caplog.records if r.name == "asyncio"], (
        [r.getMessage() for r in caplog.records]
    )
