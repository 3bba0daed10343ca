"""Completion-service client with deterministic replay for offline runs.

Live mode speaks a chat-completions wire shape over HTTP. Replay mode
serves recorded responses from a JSON Lines fixture keyed by a stable
prompt digest and performs no network operations at all (the HTTP stack is
only imported on the live path). Record mode is live plus appending to a
fixture.

Credentials come from the environment only (COMPLETION_API_KEY), never
from configuration files.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

ENV_ENDPOINT = "COMPLETION_ENDPOINT"
ENV_API_KEY = "COMPLETION_API_KEY"
ENV_MODEL = "COMPLETION_MODEL"

BACKOFF_BASE_SECONDS = 0.5


class ClientError(RuntimeError):
    pass


class TransportError(ClientError):
    pass


class FixtureError(ClientError):
    pass


class ReplayExhaustedError(FixtureError):
    pass


class DigestMismatchError(FixtureError):
    pass


class Mode(Enum):
    LIVE = "live"
    REPLAY = "replay"
    RECORD = "record"


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ClientConfig:
    mode: Mode
    endpoint: str | None = None
    credential: str | None = None
    model_name: str | None = None
    timeout: float = 60.0
    max_retries: int = 2
    fixture_path: str | None = None

    def __post_init__(self):
        if self.mode in (Mode.LIVE, Mode.RECORD):
            if not self.endpoint:
                raise ClientError(f"{self.mode.value} mode requires an endpoint")
            if not self.credential:
                raise ClientError(
                    f"{self.mode.value} mode requires a credential "
                    f"(set {ENV_API_KEY} in the environment)"
                )
        if self.mode in (Mode.REPLAY, Mode.RECORD):
            if not self.fixture_path:
                raise ClientError(f"{self.mode.value} mode requires a fixture path")
        if self.mode is Mode.REPLAY and not Path(self.fixture_path).is_file():
            raise ClientError(f"replay fixture not readable: {self.fixture_path}")

    @classmethod
    def live_from_env(cls) -> "ClientConfig":
        return cls(
            mode=Mode.LIVE,
            endpoint=os.environ.get(ENV_ENDPOINT),
            credential=os.environ.get(ENV_API_KEY),
            model_name=os.environ.get(ENV_MODEL),
        )

    @classmethod
    def replay(cls, fixture_path: str) -> "ClientConfig":
        return cls(mode=Mode.REPLAY, fixture_path=fixture_path)


def load_fixture(path: str) -> list[dict]:
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FixtureError(f"{path}:{lineno}: bad fixture line: {exc}") from exc
            if "prompt_digest" not in entry or "response" not in entry:
                raise FixtureError(f"{path}:{lineno}: fixture entry missing keys")
            entries.append(entry)
    return entries


def write_fixture_entry(path: str, prompt: str, response: str) -> None:
    entry = {"prompt_digest": prompt_digest(prompt), "response": response}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.flush()


class CompletionClient:
    """One client instance serializes its requests (replay has a cursor)."""

    def __init__(self, config: ClientConfig, sleep=time.sleep):
        self.config = config
        self._sleep = sleep
        self._cursor = 0
        self._fixture: list[dict] | None = None
        if config.mode is Mode.REPLAY:
            self._fixture = load_fixture(config.fixture_path)

    def complete(self, prompt: str) -> str:
        if self.config.mode is Mode.REPLAY:
            return self._replay(prompt)
        response = self._live(prompt)
        if self.config.mode is Mode.RECORD:
            write_fixture_entry(self.config.fixture_path, prompt, response)
        return response

    def _replay(self, prompt: str) -> str:
        assert self._fixture is not None
        if self._cursor >= len(self._fixture):
            raise ReplayExhaustedError(
                f"replay fixture exhausted after {self._cursor} responses"
            )
        entry = self._fixture[self._cursor]
        digest = prompt_digest(prompt)
        if entry["prompt_digest"] != digest:
            raise DigestMismatchError(
                f"replay entry {self._cursor} was recorded for digest "
                f"{entry['prompt_digest'][:12]}..., got {digest[:12]}..."
            )
        self._cursor += 1
        return entry["response"]

    def _live(self, prompt: str) -> str:
        import requests  # imported here so replay mode never touches HTTP

        config = self.config
        payload = {
            "model": config.model_name or "default",
            "messages": [{"role": "user", "content": prompt}],
        }
        headers = {"Authorization": f"Bearer {config.credential}"}
        last_error: Exception | None = None
        for attempt in range(config.max_retries + 1):
            if attempt:
                self._sleep(BACKOFF_BASE_SECONDS * (2 ** (attempt - 1)))
            try:
                resp = requests.post(
                    config.endpoint, json=payload, headers=headers, timeout=config.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code // 100 == 2:
                try:
                    return resp.json()["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    raise TransportError(f"malformed completion response: {exc}") from exc
            last_error = TransportError(f"completion request failed: HTTP {resp.status_code}")
            if resp.status_code // 100 == 4 and resp.status_code != 429:
                break  # non-retryable client error
        raise TransportError(
            f"completion request failed after {config.max_retries + 1} attempts: {last_error}"
        )
