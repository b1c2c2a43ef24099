"""Thin WSGI adapter over :class:`~repro.serve.core.ServeCore`.

Pure WSGI (PEP 3333): :func:`create_app` returns a plain callable with no
framework and — critically for the tier-1 test suite — no sockets.  The
application is exercised hermetically by calling it with a synthetic
``environ``; an actual HTTP listener only exists inside
``python -m repro.serve serve``, which imports ``wsgiref.simple_server``
at the edge (function scope), keeping network machinery out of every
import path the tests and the analysis pipeline touch.

Routes (all responses are canonical JSON):

* ``GET /check?url=...``      -> :meth:`ServeCore.check`
* ``POST /classify``          -> :meth:`ServeCore.classify` (JSON body; 400
  on :class:`~repro.serve.core.InvalidQueryError`)
* ``GET /campaign/<id>``      -> :meth:`ServeCore.campaign` (404 unknown)
* ``GET /stats``              -> :meth:`ServeCore.stats`
* ``GET /healthz``            -> liveness + snapshot hash
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Tuple
from urllib.parse import parse_qs

from repro.serve.core import InvalidQueryError, ServeCore, UnknownCampaignError
from repro.serve.snapshot import canonical_json

StartResponse = Callable[[str, List[Tuple[str, str]]], Any]
WsgiApp = Callable[[Dict[str, Any], StartResponse], Iterable[bytes]]

_STATUS = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
}


def create_app(core: ServeCore) -> WsgiApp:
    """A WSGI callable serving one :class:`ServeCore`."""

    def app(
        environ: Dict[str, Any], start_response: StartResponse
    ) -> Iterable[bytes]:
        status, payload = _dispatch(core, environ)
        body = (canonical_json(payload) + "\n").encode("utf-8")
        start_response(
            _STATUS[status],
            [
                ("Content-Type", "application/json; charset=utf-8"),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    return app


def _dispatch(
    core: ServeCore, environ: Dict[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    """``(status, payload)`` for one request environ."""
    path = environ.get("PATH_INFO", "/")
    method = environ.get("REQUEST_METHOD", "GET")

    if path == "/healthz":
        if method != "GET":
            return 405, {"error": "use GET /healthz"}
        return 200, {"ok": True, "snapshot": core.snapshot.hash}

    if path == "/check":
        if method != "GET":
            return 405, {"error": "use GET /check?url=..."}
        params = parse_qs(environ.get("QUERY_STRING", ""))
        urls = params.get("url")
        if not urls:
            return 400, {"error": "missing required query parameter 'url'"}
        return 200, core.check(urls[0])

    if path == "/classify":
        if method != "POST":
            return 405, {"error": "use POST /classify with a JSON body"}
        try:
            raw = _read_body(environ)
            wpn = json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(wpn, dict):
            return 400, {
                "error": "body must be a JSON object with "
                "title/body/landing_url"
            }
        try:
            return 200, core.classify(wpn)
        except InvalidQueryError as exc:
            return 400, {"error": str(exc)}

    if path.startswith("/campaign/"):
        if method != "GET":
            return 405, {"error": "use GET /campaign/<id>"}
        tail = path[len("/campaign/"):]
        try:
            cluster_id = int(tail)
        except ValueError:
            return 400, {"error": f"campaign id must be an integer: {tail!r}"}
        try:
            return 200, core.campaign(cluster_id)
        except UnknownCampaignError:
            return 404, {"error": f"unknown campaign id {cluster_id}"}

    if path == "/stats":
        if method != "GET":
            return 405, {"error": "use GET /stats"}
        return 200, core.stats()

    return 404, {
        "error": f"no route for {path!r}",
        "routes": ["/check", "/classify", "/campaign/<id>", "/stats",
                   "/healthz"],
    }


def _read_body(environ: Dict[str, Any]) -> bytes:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    stream = environ.get("wsgi.input")
    if stream is None or length <= 0:
        return b""
    return stream.read(length)


def serve_forever(core: ServeCore, host: str, port: int) -> None:
    """Run a blocking HTTP listener (CLI edge only; imports sockets)."""
    from wsgiref.simple_server import make_server

    with make_server(host, port, create_app(core)) as server:
        print(f"repro.serve listening on http://{host}:{port} "
              f"(snapshot {core.snapshot.hash})")
        server.serve_forever()
