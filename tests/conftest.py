import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from flaremon.formats import feature_log_writer

# The nine published training rows: (ratio, E, angle) -> label.
TRAINING_ROWS = np.array([
    [0.22, 0.62, 52.0],
    [0.14, 0.56, 43.0],
    [0.32, 0.42, 23.0],
    [0.40, 0.36, 31.0],
    [0.24, 0.51, 72.0],
    [0.51, 0.31, 34.0],
    [0.62, 0.24, 25.0],
    [1.72, 0.21, 19.0],
    [2.42, 0.15, 12.0],
])
TRAINING_LABELS = ["high", "high", "high", "low", "high",
                   "low", "low", "low", "low"]


def feature_log_text(rows, path):
    """The feature log of `rows`, as `feature_log_writer` writes it to
    `path`."""
    with feature_log_writer(path) as write_row:
        for row in rows:
            write_row(row)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        server = self.server
        status, content = server.script[min(server.call_count,
                                            len(server.script) - 1)]
        server.call_count += 1
        time.sleep(server.delay)
        if content is None:
            self.send_response(status)
            self.end_headers()
            return
        body = content if isinstance(content, bytes) else json.dumps(
            {"choices": [{"message": {"content": content}}]}).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up

    def log_message(self, *args):
        pass


class StubLlmServer:
    """Local chat-completion stub; `script` is a list of (status, content)
    consumed per call, the last entry repeating.  Content None sends no
    body, bytes are sent as the body, and text is sent as the reply of a
    chat completion.  Each reply waits `delay` seconds first."""

    def __init__(self):
        self.server = HTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.script = [(200, "high")]
        self.server.call_count = 0
        self.server.delay = 0.0
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def set_script(self, script, delay=0.0):
        self.server.script = script
        self.server.call_count = 0
        self.server.delay = delay

    @property
    def call_count(self):
        return self.server.call_count

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_llm():
    server = StubLlmServer()
    yield server
    server.close()
