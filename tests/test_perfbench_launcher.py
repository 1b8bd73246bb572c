"""The benchmark tracer patches functions by module attribute name.

A refactor that renames or moves one of those names breaks
``perfbench/run.py --trace 1`` without failing any other test, so this runs
the tracing launcher in a subprocess (its patches must not leak into other
tests) over a short session.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import REPO_ROOT

SYNTH_CONF = str(REPO_ROOT / "configs" / "synthetic.conf")


def _traced_session(tmp_path, frames, extra_env=None):
    """Serve ``frames`` through the tracing launcher; return (stdout lines, span names)."""
    spans_path = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUANTMCP_CRED_")}
    env.update(extra_env or {}, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "launcher.py"), str(spans_path),
         "serve", "--config", SYNTH_CONF],
        input="".join(json.dumps(f) + "\n" for f in frames),
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), {span[1] for span in json.loads(spans_path.read_text())}


def test_benchmark_tracer_installs_and_records_spans(tmp_path):
    frames = [
        {"jsonrpc": "2.0", "id": 1, "method": "initialize"},
        {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
         "params": {"name": "tool_get_historical_data",
                    "arguments": {"codes": ["300750.SZ"], "fields": ["close"],
                                  "start_date": "2024-01-01", "end_date": "2024-01-31"}}},
    ]
    lines, names = _traced_session(tmp_path, frames)
    assert [json.loads(line)["id"] for line in lines] == [1, 2]
    for name in ("transport.parse_message", "transport.serialize_message", "tools.tool_get_historical_data",
                 "providers.fetch_historical", "normalize.normalize_payload", "normalize.apply_fill"):
        assert name in names


def test_a_frame_holding_a_secret_is_still_traced_through_redaction(tmp_path):
    secret = "trace-secret-0451"
    frames = [
        {"jsonrpc": "2.0", "id": 1, "method": "initialize"},
        {"jsonrpc": "2.0", "id": f"req-{secret}", "method": "tools/list"},
    ]
    lines, names = _traced_session(tmp_path, frames, {"QUANTMCP_CRED_VENDOR": secret})
    assert [json.loads(line)["id"] for line in lines] == [1, "req-***REDACTED***"]
    assert "transport.serialize_message" in names
    assert "security.redact_message" in names
