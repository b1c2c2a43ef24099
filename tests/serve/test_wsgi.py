"""WSGI adapter: routes, status codes, byte-parity with direct core calls."""

import io
import json

import pytest

from repro.serve import canonical_json, create_app
from repro.serve.wsgi import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def app(core):
    return create_app(core)


def call(app, method, path, query="", body=None):
    """Invoke the app with a synthetic environ; -> (status, headers, text)."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
    }
    if body is not None:
        raw = body if isinstance(body, bytes) else body.encode("utf-8")
        environ["CONTENT_LENGTH"] = str(len(raw))
        environ["wsgi.input"] = io.BytesIO(raw)
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    text = b"".join(chunks).decode("utf-8")
    return captured["status"], captured["headers"], text


class TestRoutes:
    def test_healthz(self, app, snapshot):
        status, headers, text = call(app, "GET", "/healthz")
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(text) == {"ok": True, "snapshot": snapshot.hash}

    def test_check_matches_core(self, app, core, known_url):
        from urllib.parse import urlencode

        status, _, text = call(app, "GET", "/check",
                               query=urlencode({"url": known_url}))
        assert status == "200 OK"
        assert text == canonical_json(core.check(known_url)) + "\n"

    def test_check_requires_url(self, app):
        status, _, text = call(app, "GET", "/check")
        assert status == "400 Bad Request"
        assert "url" in json.loads(text)["error"]

    def test_classify_matches_core(self, app, core):
        wpn = {"title": "hello prize", "body": "click now", "landing_url": None}
        status, _, text = call(app, "POST", "/classify", body=json.dumps(wpn))
        assert status == "200 OK"
        assert text == canonical_json(core.classify(wpn)) + "\n"

    def test_classify_rejects_bad_json(self, app):
        status, _, _ = call(app, "POST", "/classify", body="{nope")
        assert status == "400 Bad Request"

    def test_classify_rejects_non_object_body(self, app):
        status, _, _ = call(app, "POST", "/classify", body="[1,2]")
        assert status == "400 Bad Request"

    def test_campaign_matches_core(self, app, core, snapshot):
        cluster_id = int(sorted(
            snapshot.campaigns.values(), key=lambda c: c["cluster_id"]
        )[0]["cluster_id"])
        status, _, text = call(app, "GET", f"/campaign/{cluster_id}")
        assert status == "200 OK"
        assert text == canonical_json(core.campaign(cluster_id)) + "\n"

    def test_campaign_unknown_is_404(self, app):
        status, _, _ = call(app, "GET", "/campaign/999999999")
        assert status == "404 Not Found"

    def test_campaign_non_integer_is_400(self, app):
        status, _, _ = call(app, "GET", "/campaign/twelve")
        assert status == "400 Bad Request"

    def test_stats_matches_core(self, app, core):
        status, _, text = call(app, "GET", "/stats")
        assert status == "200 OK"
        assert text == canonical_json(core.stats()) + "\n"

    def test_unknown_route_is_404_with_route_list(self, app):
        status, _, text = call(app, "GET", "/nope")
        assert status == "404 Not Found"
        assert "/check" in json.loads(text)["routes"]

    @pytest.mark.parametrize("method,path", [
        ("POST", "/healthz"),
        ("POST", "/check"),
        ("GET", "/classify"),
        ("POST", "/stats"),
        ("DELETE", "/campaign/1"),
    ])
    def test_wrong_method_is_405(self, app, method, path):
        status, _, _ = call(app, method, path)
        assert status == "405 Method Not Allowed"

    def test_content_length_header_is_exact(self, app):
        _, headers, text = call(app, "GET", "/stats")
        assert int(headers["Content-Length"]) == len(text.encode("utf-8"))


class _UnreadableBody(io.RawIOBase):
    """A ``wsgi.input`` that fails the test if anything reads it."""

    def read(self, size=-1):
        raise AssertionError("an oversized body must not be read")


class TestBodyLimit:
    def _post(self, app, length):
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/classify",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(length),
            "wsgi.input": _UnreadableBody(),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        text = b"".join(app(environ, start_response)).decode("utf-8")
        return captured["status"], json.loads(text)

    def test_declared_body_over_the_limit_is_413_unread(self, app):
        status, payload = self._post(app, MAX_BODY_BYTES + 1)
        assert status == "413 Payload Too Large"
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_body_at_the_limit_is_read(self, app, core):
        body = json.dumps({"title": "t", "body": "b"}).encode("utf-8")
        padded = body + b" " * (MAX_BODY_BYTES - len(body))
        status, _, text = call(app, "POST", "/classify", body=padded)
        assert status == "200 OK"
        assert text == canonical_json(core.classify(json.loads(body))) + "\n"
