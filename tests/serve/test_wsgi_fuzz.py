"""Fuzzing the WSGI edge: no request can make the app raise.

Arbitrary JSON objects and raw bytes go to ``POST /classify``, arbitrary
query strings to ``GET /check`` and arbitrary tails to
``GET /campaign/<tail>``; every answer must be a JSON body with status
200, 400, 404 or 405.  The app gets its own :class:`ServeCore`, so fuzzed
queries never land in the session core's response cache.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve import InvalidQueryError, ServeCore, create_app
from tests.serve.test_wsgi import call

ANSWERED = {"200 OK", "400 Bad Request", "404 Not Found",
            "405 Method Not Allowed"}
FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=30),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
wpn_objects = st.dictionaries(
    st.sampled_from(["title", "body", "landing_url"]) | st.text(max_size=8),
    json_values,
    max_size=4,
)
methods = st.sampled_from(["GET", "POST", "PUT", "DELETE"])


@pytest.fixture(scope="module")
def own_core(snapshot):
    return ServeCore(snapshot)


@pytest.fixture(scope="module")
def app(own_core):
    return create_app(own_core)


def assert_answered(app, method, path, query="", body=None):
    status, _, text = call(app, method, path, query=query, body=body)
    assert status in ANSWERED, status
    json.loads(text)
    return status


@FUZZ
@given(wpn=wpn_objects)
@example(wpn={"title": "t", "landing_url": "not a url"})
@example(wpn={"title": "t", "landing_url": "http://"})
@example(wpn={"title": "t", "landing_url": "ftp://a b/c"})
@example(wpn={"title": "t", "landing_url": 5})
def test_classify_answers_any_json_object(app, wpn):
    assert_answered(app, "POST", "/classify", body=json.dumps(wpn))


@FUZZ
@given(body=st.binary(max_size=60))
@example(body=b"\xff\xfe{}")
def test_classify_answers_any_body_bytes(app, body):
    assert_answered(app, "POST", "/classify", body=body)


@FUZZ
@given(method=methods, query=st.text(max_size=40))
def test_check_answers_any_query_string(app, method, query):
    assert_answered(app, method, "/check", query=query)


@FUZZ
@given(method=methods, tail=st.text(max_size=20))
@example(method="GET", tail="9" * 5000)
def test_campaign_answers_any_tail(app, method, tail):
    assert_answered(app, method, "/campaign/" + tail)


@pytest.mark.parametrize(
    "landing_url", ["not a url", "http://", "ftp://a b/c", 5]
)
def test_malformed_landing_url_is_a_400(app, own_core, landing_url):
    wpn = {"title": "t", "body": "b", "landing_url": landing_url}
    status = assert_answered(app, "POST", "/classify", body=json.dumps(wpn))
    assert status == "400 Bad Request"
    with pytest.raises(InvalidQueryError):
        own_core.classify(wpn)
    assert issubclass(InvalidQueryError, ValueError)
