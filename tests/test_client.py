import json
import socket

import pytest

from swizzlesim.client import (
    ClientConfig,
    ClientError,
    CompletionClient,
    DigestMismatchError,
    Mode,
    ReplayExhaustedError,
    TransportError,
    load_fixture,
    prompt_digest,
)


def make_fixture(tmp_path, pairs, name="fixture.jsonl"):
    path = tmp_path / name
    with open(path, "w") as fh:
        for prompt, response in pairs:
            fh.write(json.dumps({"prompt_digest": prompt_digest(prompt),
                                 "response": response}) + "\n")
    return str(path)


def test_replay_returns_in_recorded_order(tmp_path):
    path = make_fixture(tmp_path, [("p1", "resp A"), ("p2", "resp B")])
    client = CompletionClient(ClientConfig.replay(path))
    assert client.complete("p1") == "resp A"
    assert client.complete("p2") == "resp B"


def test_replay_digest_mismatch(tmp_path):
    path = make_fixture(tmp_path, [("p1", "resp A")])
    client = CompletionClient(ClientConfig.replay(path))
    with pytest.raises(DigestMismatchError):
        client.complete("different prompt")


def test_replay_exhaustion(tmp_path):
    path = make_fixture(tmp_path, [("p1", "resp A")])
    client = CompletionClient(ClientConfig.replay(path))
    client.complete("p1")
    with pytest.raises(ReplayExhaustedError):
        client.complete("p1")


def test_replay_performs_no_network_io(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise AssertionError("network use in replay mode")

    monkeypatch.setattr(socket, "socket", explode)
    monkeypatch.setattr(socket, "create_connection", explode)
    path = make_fixture(tmp_path, [("p1", "resp A")])
    assert CompletionClient(ClientConfig.replay(path)).complete("p1") == "resp A"


def test_replay_requires_readable_fixture(tmp_path):
    with pytest.raises(ClientError):
        ClientConfig.replay(str(tmp_path / "missing.jsonl"))


def test_live_requires_endpoint_and_credential():
    with pytest.raises(ClientError):
        ClientConfig(mode=Mode.LIVE, endpoint=None, credential="x")
    with pytest.raises(ClientError):
        ClientConfig(mode=Mode.LIVE, endpoint="http://svc", credential=None)


def test_bad_fixture_lines_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"prompt_digest": "d"}\n')
    with pytest.raises(ClientError):
        load_fixture(str(path))
    path.write_text("not json\n")
    with pytest.raises(ClientError):
        load_fixture(str(path))


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


def _ok_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_live_posts_chat_completion(monkeypatch):
    import requests

    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append((url, json, headers, timeout))
        return FakeResponse(200, _ok_payload("hello"))

    monkeypatch.setattr(requests, "post", fake_post)
    config = ClientConfig(mode=Mode.LIVE, endpoint="http://svc/v1/chat",
                          credential="secret", model_name="m1", timeout=5.0)
    assert CompletionClient(config).complete("prompt here") == "hello"
    url, payload, headers, timeout = calls[0]
    assert url == "http://svc/v1/chat"
    assert payload["model"] == "m1"
    assert payload["messages"] == [{"role": "user", "content": "prompt here"}]
    assert headers["Authorization"] == "Bearer secret"
    assert timeout == 5.0


def test_live_retries_with_deterministic_backoff(monkeypatch):
    import requests

    attempts = []

    def fake_post(url, **kwargs):
        attempts.append(url)
        raise requests.ConnectionError("unreachable")

    monkeypatch.setattr(requests, "post", fake_post)
    sleeps = []
    config = ClientConfig(mode=Mode.LIVE, endpoint="http://down", credential="x",
                          max_retries=2)
    client = CompletionClient(config, sleep=sleeps.append)
    with pytest.raises(TransportError):
        client.complete("p")
    assert len(attempts) == 3  # initial + max_retries
    assert sleeps == [0.5, 1.0]  # exponential, deterministic


def test_live_does_not_retry_permanent_client_errors(monkeypatch):
    import requests

    attempts = []

    def fake_post(url, **kwargs):
        attempts.append(url)
        return FakeResponse(401)

    monkeypatch.setattr(requests, "post", fake_post)
    config = ClientConfig(mode=Mode.LIVE, endpoint="http://svc", credential="x",
                          max_retries=5)
    with pytest.raises(TransportError):
        CompletionClient(config, sleep=lambda s: None).complete("p")
    assert len(attempts) == 1


def test_record_appends_fixture(monkeypatch, tmp_path):
    import requests

    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, _ok_payload("recorded"))
    )
    path = tmp_path / "rec.jsonl"
    config = ClientConfig(mode=Mode.RECORD, endpoint="http://svc", credential="x",
                          fixture_path=str(path))
    client = CompletionClient(config)
    assert client.complete("p1") == "recorded"
    entries = load_fixture(str(path))
    assert entries == [{"prompt_digest": prompt_digest("p1"), "response": "recorded"}]
    # and the recorded fixture replays
    replayed = CompletionClient(ClientConfig.replay(str(path)))
    assert replayed.complete("p1") == "recorded"
