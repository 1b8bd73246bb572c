"""CLI harness: tools list, call, replay, serve, and pinned exit codes."""

from __future__ import annotations

import datetime as dt
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT, make_ctx, src_env

from quantmcp.cli import main, mask_volatile
from quantmcp.server import Dispatcher, StdioServer
from quantmcp.tools import build_registry

SYNTH_CONF = str(REPO_ROOT / "configs" / "synthetic.conf")
GOLDEN_TRANSCRIPT = str(GOLDEN_DIR / "transcript_q1_2024.jsonl")


def _compact(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


Q1_PARAMS = json.dumps(
    {
        "codes": ["300750.SZ"],
        "fields": ["close", "pb_lf", "turn"],
        "start_date": "2024-01-01",
        "end_date": "2024-03-31",
        "options": "PriceAdj=F;Fill=Previous",
    }
)


def test_tools_list_prints_the_manifest(capsys):
    assert main(["tools", "list", "--config", SYNTH_CONF]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert [t["name"] for t in manifest["tools"]] == [
        "tool_get_historical_data",
        "tool_get_quote",
        "tool_compute_summary",
    ]


def test_call_historical_prints_65_records(capsys):
    rc = main(["call", "tool_get_historical_data", Q1_PARAMS, "--config", SYNTH_CONF])
    assert rc == 0
    content = json.loads(capsys.readouterr().out)
    assert len(content["records"]) == 65
    assert content["records"][0]["timestamp"] == "2024-01-01 15:00:00"


def test_call_summary_prints_means(capsys):
    params = json.dumps({"query": json.loads(Q1_PARAMS), "summarize_fields": ["close", "turn"]})
    rc = main(["call", "tool_compute_summary", params, "--config", SYNTH_CONF])
    assert rc == 0
    content = json.loads(capsys.readouterr().out)
    by_field = {s["field"]: s for s in content["summaries"]}
    assert by_field["close"]["mean"] == pytest.approx(148.333538, abs=1e-6)
    assert by_field["turn"]["mean"] == pytest.approx(4.864606, abs=1e-6)


def test_tool_level_error_exits_1(capsys):
    params = json.dumps({"records": [], "summarize_fields": ["close"]})
    rc = main(["call", "tool_compute_summary", params, "--config", SYNTH_CONF])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error_kind"] == "empty_input"


def test_unknown_tool_exits_2_with_detail(capsys):
    rc = main(["call", "nosuch", "{}", "--config", SYNTH_CONF])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == -32602
    assert err["data"]["tool"] == "nosuch"


def test_malformed_params_json_exits_2(capsys):
    rc = main(["call", "tool_get_quote", "{not json", "--config", SYNTH_CONF])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_params_nested_past_the_recursion_limit_exit_2(capsys):
    rc = main(["call", "tool_get_quote", "[" * 5000 + "]" * 5000, "--config", SYNTH_CONF])
    assert rc == 2
    assert capsys.readouterr().err.startswith("params error: not valid JSON: maximum recursion depth exceeded")


def test_params_with_an_integer_past_the_digit_limit_exit_2(capsys):
    params = '{"records": [{"code": "A", "timestamp": "t", "close": %s}], "summarize_fields": ["close"]}' % ("9" * 5000)
    rc = main(["call", "tool_compute_summary", params, "--config", SYNTH_CONF])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_invalid_config_exits_2_naming_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[server]\ndefault_provider = s\n\n[provider.s]\nkind = quantum\n")
    rc = main(["call", "tool_get_quote", "{}", "--config", str(bad)])
    assert rc == 2
    assert "provider.s.kind" in capsys.readouterr().err


def test_call_matches_a_stdio_session_byte_for_byte(capsys):
    rc = main(["call", "tool_get_historical_data", Q1_PARAMS, "--config", SYNTH_CONF])
    assert rc == 0
    cli_content = json.loads(capsys.readouterr().out)

    dispatcher = Dispatcher(build_registry(), make_ctx())
    out = io.StringIO()
    lines = [
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        json.dumps(
            {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
             "params": {"name": "tool_get_historical_data", "arguments": json.loads(Q1_PARAMS)}}
        ),
    ]
    StdioServer(dispatcher, io.StringIO("".join(l + "\n" for l in lines)), out).run()
    stdio_content = json.loads(out.getvalue().splitlines()[1])["result"]["content"]
    # json.loads keeps key order and int against float, so the encoded texts differ wherever the frames do
    assert mask_volatile(_compact(cli_content)) == mask_volatile(_compact(stdio_content))


@pytest.mark.parametrize(
    "value, masked",
    [
        ({"version": "0.1.0"}, {"version": "<masked>"}),
        ({"a": [{"b": {"fetched_at": "2024-06-03T12:00:00+00:00", "row_count": 65}}]},
         {"a": [{"b": {"fetched_at": "<masked>", "row_count": 65}}]}),
        ({"fetched_at": 'a "quoted" \\ value', "version": ""}, {"fetched_at": "<masked>", "version": "<masked>"}),
        ({"fetched": "x", "my_version": "x", "protocolVersion": "x"}, None),
        ({"version": 1, "fetched_at": None, "b": {"version": ["1"]}}, None),
        ({"s": '{"version":"1"}', "t": ',"fetched_at":"x"'}, None),
    ],
    ids=["top-level", "nested", "escaped-quotes", "other-keys", "non-string-values", "inside-a-string"],
)
def test_the_volatile_mask_replaces_only_the_string_value_of_a_fetched_at_or_version_key(value, masked):
    assert mask_volatile(_compact(value)) == _compact(value if masked is None else masked)


# --- replay -----------------------------------------------------------------


@pytest.mark.parametrize(
    "transcript, config, frames",
    [
        (GOLDEN_TRANSCRIPT, SYNTH_CONF, 4),
        # an integral synthetic volume, then a csv answer whose range holds days with no row
        (str(GOLDEN_DIR / "transcript_csv_volume.jsonl"), str(DATA_DIR / "synthetic_and_csv.conf"), 3),
    ],
    ids=["q1-2024", "csv-volume"],
)
def test_replay_of_the_golden_transcript_passes(capsys, transcript, config, frames):
    rc = main(["replay", transcript, "--config", config])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"replayed {frames} frames: {frames} passed, 0 failed" in out


def test_replay_fails_on_a_tampered_frame(tmp_path, capsys):
    lines = open(GOLDEN_TRANSCRIPT, encoding="utf-8").read().splitlines()
    entry = json.loads(lines[-1])
    entry["message"]["result"]["content"]["summaries"][0]["mean"] = 999.0
    lines[-1] = json.dumps(entry)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    rc = main(["replay", str(tampered), "--config", SYNTH_CONF])
    out = capsys.readouterr().out
    assert rc == 1
    assert "frame 4: FAIL" in out
    assert "frame 3: PASS" in out


def test_replay_of_an_empty_transcript_trivially_passes(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["replay", str(empty), "--config", SYNTH_CONF])
    assert rc == 0
    assert "replayed 0 frames" in capsys.readouterr().out


def test_replay_of_a_malformed_transcript_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"direction": "sideways"}\n')
    rc = main(["replay", str(bad), "--config", SYNTH_CONF])
    assert rc == 2
    assert "replay error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, reason",
    [
        (b'{"direction": "out", "message": {"id": "\xff"}}', "not valid JSON: 'utf-8' codec can't decode"),
        (b'{"direction": "out", "message": {"id": "\\ud800"}}', "no frame can hold this message: 'utf-8' codec can't encode"),
        (b'{"direction": "out", "message": {"id": ' + b"[" * 5000 + b"]" * 5000 + b"}}", "not valid JSON: maximum recursion"),
        (b'{"direction": "out", "message": {"id": ' + b"9" * 5000 + b"}}", "not valid JSON: Exceeds the limit"),
    ],
    ids=["not-utf8", "lone-surrogate", "nested-too-deep", "integer-too-long"],
)
def test_replay_of_a_transcript_line_no_frame_can_match_exits_2_naming_the_line(tmp_path, capsys, line, reason):
    transcript = tmp_path / "bad.jsonl"
    first = Path(GOLDEN_TRANSCRIPT).read_bytes().splitlines(keepends=True)[0]
    transcript.write_bytes(first + line + b"\n")
    rc = main(["replay", str(transcript), "--config", SYNTH_CONF])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"replay error: {transcript}:2: {reason}")


def test_replay_answers_a_structurally_invalid_frame_as_serve_does(tmp_path, capsys):
    error = {"code": -32600, "message": "message carries no method, result, or error"}
    entries = [
        {"direction": "in", "message": {"jsonrpc": "2.0", "id": 7}},
        {"direction": "out", "message": {"jsonrpc": "2.0", "id": 7, "error": error}},
    ]
    transcript = tmp_path / "invalid.jsonl"
    transcript.write_text("".join(json.dumps(e) + "\n" for e in entries))
    rc = main(["replay", str(transcript), "--config", SYNTH_CONF])
    assert rc == 0
    assert "replayed 1 frames: 1 passed, 0 failed" in capsys.readouterr().out


def test_replay_is_deterministic_across_runs(capsys):
    first = main(["replay", GOLDEN_TRANSCRIPT, "--config", SYNTH_CONF])
    out_first = capsys.readouterr().out
    second = main(["replay", GOLDEN_TRANSCRIPT, "--config", SYNTH_CONF])
    out_second = capsys.readouterr().out
    assert first == second == 0
    assert out_first == out_second


@pytest.mark.parametrize(
    "argv",
    [
        ["tools", "list", "--config", SYNTH_CONF],
        ["call", "tool_get_historical_data", Q1_PARAMS, "--config", SYNTH_CONF],
        ["replay", GOLDEN_TRANSCRIPT, "--config", SYNTH_CONF],
    ],
    ids=["tools-list", "call", "replay"],
)
def test_only_serve_writes_event_lines(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


# --- serve (subprocess) ------------------------------------------------------


def _spawn_serve(*extra_args) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "quantmcp", "serve", "--config", SYNTH_CONF, *extra_args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )


def test_serve_answers_initialize_and_exits_cleanly_on_eof():
    proc = _spawn_serve()
    out, err = proc.communicate(
        '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"clientInfo":{"name":"t"}}}\n',
        timeout=30,
    )
    assert proc.returncode == 0
    frame = json.loads(out.splitlines()[0])
    assert frame["id"] == 1 and frame["result"]["serverInfo"]["name"] == "quantmcp"
    assert '"event": "initialize"' in err or '"event":"initialize"' in err


def test_serve_answers_invalid_unicode_with_32700_and_keeps_serving():
    frames = [
        r'{"jsonrpc":"2.0","id":"\ud800","method":"initialize"}',
        r'{"jsonrpc":"2.0","id":"\uDC00x","method":"initialize"}',
        '{"jsonrpc":"2.0","id":1,"method":"initialize"}',
        r'{"jsonrpc":"2.0","id":2,"method":"tools/call","params":{"name":"tool_get_quote",'
        r'"arguments":{"codes":["\udcff"],"fields":["close"],"as_of":"2024-01-05"}}}',
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "serve", "--config", SYNTH_CONF],
        input="".join(f + "\n" for f in frames),
        capture_output=True,
        text=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(a["id"], a.get("error", {}).get("code")) for a in answers] == [
        (None, -32700), (None, -32700), (1, None), (None, -32700)
    ]


@pytest.mark.parametrize(
    "io_encoding, data, expected",
    [
        (  # a raw 0xff byte reaches parse_message instead of killing the read loop
            "utf-8:strict",
            b'{"jsonrpc":"2.0","id":"a\xffb","method":"initialize"}\n'
            b'{"jsonrpc":"2.0","id":1,"method":"initialize"}\n',
            [(None, -32700), (1, None)],
        ),
        ("ascii", '{"jsonrpc":"2.0","id":"宁","method":"initialize"}\n'.encode("utf-8"), [("宁", None)]),
    ],
    ids=["non-utf8-byte-strict", "utf8-id-ascii"],
)
def test_serve_speaks_utf8_whatever_the_locale(io_encoding, data, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "serve", "--config", SYNTH_CONF],
        input=data,
        capture_output=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=dict(src_env(), PYTHONIOENCODING=io_encoding),
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    answers = [json.loads(line) for line in proc.stdout.decode("utf-8").splitlines()]
    assert [(a["id"], a.get("error", {}).get("code")) for a in answers] == expected
    assert answers[-1]["result"]["serverInfo"]["name"] == "quantmcp"


def test_call_prints_utf8_whatever_the_locale():
    params = json.dumps({"codes": ["宁"], "fields": ["close"], "as_of": "2024-01-05"}, ensure_ascii=False)
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "call", "tool_get_quote", params, "--config", SYNTH_CONF],
        capture_output=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=dict(src_env(), PYTHONIOENCODING="ascii"),
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert [r["code"] for r in json.loads(proc.stdout.decode("utf-8"))["records"]] == ["宁"]


def test_serve_with_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("[provider.s]\nkind = nope\n")
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "serve", "--config", str(bad)],
        input="",
        capture_output=True,
        text=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )
    assert proc.returncode == 2
    assert "provider.s.kind" in proc.stderr


def test_serve_with_a_negative_concurrent_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "serve", "--config", SYNTH_CONF, "--concurrent", "-1"],
        input="",
        capture_output=True,
        text=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage error: --concurrent must be >= 0, got -1\n"


def test_a_malformed_base_url_template_exits_2_naming_the_key(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[server]\ndefault_provider = h\n\n[provider.h]\nkind = http\nbase_url = http://h/x?c={code\n")
    assert main(["tools", "list", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error: provider.h.base_url: malformed template")


def _synth_conf_with_credentials(tmp_path) -> str:
    """The synthetic config, reading ``creds.conf`` beside it."""
    config = tmp_path / "server.conf"
    config.write_text(Path(SYNTH_CONF).read_text().replace("[server]\n", "[server]\ncredentials = creds.conf\n"))
    return str(config)


def test_a_credentials_path_naming_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "creds.conf").mkdir(mode=0o700)
    rc = main(["call", "tool_get_quote", "{}", "--config", _synth_conf_with_credentials(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"config error: cannot read credential file {tmp_path / 'creds.conf'}: "
    )


@pytest.mark.parametrize(
    ("argv", "prefix"),
    [(["call", "tool_get_quote", "{}"], "config error"), (["replay", GOLDEN_TRANSCRIPT], "replay error")],
    ids=["call", "replay"],
)
def test_a_credentials_file_that_is_not_utf8_exits_2_naming_its_line_and_no_byte_of_it(tmp_path, capsys, argv, prefix):
    creds = tmp_path / "creds.conf"
    creds.write_bytes(b"# keys\nsynth.key = s3cr\xe9t-value\n")
    creds.chmod(0o600)
    rc = main([*argv, "--config", _synth_conf_with_credentials(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"{prefix}: {creds}:2: not valid UTF-8\n"


def test_serve_finishes_in_flight_work_then_exits_on_interrupt():
    proc = _spawn_serve()
    try:
        proc.stdin.write('{"jsonrpc":"2.0","id":1,"method":"initialize"}\n')
        proc.stdin.flush()
        first = proc.stdout.readline()
        assert json.loads(first)["id"] == 1
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert out.strip() == ""  # no half-written frames after the interrupt


def test_serve_round_trips_a_tool_call_over_real_pipes():
    proc = _spawn_serve()
    try:
        proc.stdin.write('{"jsonrpc":"2.0","id":1,"method":"initialize"}\n')
        proc.stdin.write(
            json.dumps(
                {"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                 "params": {"name": "tool_get_quote",
                            "arguments": {"codes": ["300750.SZ"], "fields": ["close"],
                                           "as_of": "2024-01-06"}}}
            )
            + "\n"
        )
        proc.stdin.close()
        out = proc.stdout.read()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
    frames = [json.loads(line) for line in out.splitlines()]
    record = frames[1]["result"]["content"]["records"][0]
    assert record["timestamp"] == "2024-01-05 15:00:00"


def test_concurrent_serve_writes_each_event_as_one_whole_json_line(tmp_path):
    config = tmp_path / "wide.conf"
    config.write_text(Path(SYNTH_CONF).read_text().replace("rate_capacity = 5", "rate_capacity = 1000000"))
    frames = ['{"jsonrpc":"2.0","id":0,"method":"initialize"}']
    for i in range(200):
        day = dt.date(2024, 1, 1) + dt.timedelta(days=i)
        arguments = {"codes": [f"C{i:03d}.SZ"], "fields": ["close"], "start_date": day.isoformat(),
                     "end_date": (day + dt.timedelta(days=20)).isoformat()}
        frames.append(json.dumps({"jsonrpc": "2.0", "id": i + 1, "method": "tools/call",
                                  "params": {"name": "tool_get_historical_data", "arguments": arguments}}))
    proc = subprocess.run(
        [sys.executable, "-m", "quantmcp", "serve", "--config", str(config), "--concurrent", "4"],
        input="".join(f + "\n" for f in frames),
        capture_output=True,
        text=True,
        timeout=60,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sorted(a["id"] for a in answers) == list(range(201))
    assert all("result" in a and not a["result"].get("is_error") for a in answers)
    events = [json.loads(line) for line in proc.stderr.splitlines()]
    assert all(isinstance(e, dict) for e in events)
    assert sum(e["event"] == "tools_call" for e in events) == 200


# --- a closed or broken stderr ------------------------------------------------


def _run_without_stderr(how: str, argv: list[str], stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run quantmcp with fd 2 ``closed`` or ``broken`` (a pipe whose read end is closed).

    PYTHONUNBUFFERED is dropped so the child's stderr is the default buffered stream,
    whose unflushed bytes the interpreter tries once more at exit.
    """
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    if how == "closed":
        redirect = {"stderr": subprocess.DEVNULL, "preexec_fn": lambda: os.close(2)}
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        redirect = {"stderr": write_end}
    try:
        return subprocess.run(
            [sys.executable, "-m", "quantmcp", *argv],
            input=stdin,
            stdout=subprocess.PIPE,
            timeout=30,
            cwd=str(REPO_ROOT),
            env=env,
            **redirect,
        )
    finally:
        if how == "broken":
            os.close(write_end)


@pytest.fixture
def readable_creds_conf(tmp_path) -> str:
    """The synthetic config with a group-readable credentials file, which warns at startup."""
    (tmp_path / "creds.conf").write_text("synth.key = s3cret-value\n")
    (tmp_path / "creds.conf").chmod(0o640)
    return _synth_conf_with_credentials(tmp_path)


STDERR_GONE = pytest.mark.parametrize("how", ["closed", "broken"])


@STDERR_GONE
def test_call_with_malformed_params_exits_2_without_stderr(how):
    proc = _run_without_stderr(how, ["call", "tool_get_historical_data", "{bad", "--config", SYNTH_CONF])
    assert (proc.returncode, proc.stdout) == (2, b"")


@STDERR_GONE
def test_serve_with_invalid_config_exits_2_without_stderr(how, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("[provider.s]\nkind = nope\n")
    proc = _run_without_stderr(how, ["serve", "--config", str(bad)])
    assert (proc.returncode, proc.stdout) == (2, b"")


@STDERR_GONE
def test_call_with_a_readable_credentials_file_answers_without_stderr(how, readable_creds_conf):
    proc = _run_without_stderr(how, ["call", "tool_get_historical_data", Q1_PARAMS, "--config", readable_creds_conf])
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["records"]) == 65


@STDERR_GONE
def test_serve_writes_the_same_frames_without_stderr(how, readable_creds_conf):
    session = "".join(
        line + "\n"
        for line in [
            '{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"clientInfo":{"name":"t"}}}',
            "garbage {",
            '{"jsonrpc":"2.0","method":"notifications/initialized"}',
            '{"jsonrpc":"2.0","id":2,"method":"tools/list"}',
            json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                        "params": {"name": "tool_get_historical_data", "arguments": json.loads(Q1_PARAMS)}}),
            json.dumps({"jsonrpc": "2.0", "id": 4, "method": "tools/call",
                        "params": {"name": "tool_compute_summary",
                                   "arguments": {"records": [], "summarize_fields": ["close"]}}}),
            '{"jsonrpc":"2.0","id":5,"method":"tools/call","params":{"name":"nosuch","arguments":{}}}',
            '{"jsonrpc":"2.0","id":6,"method":"prompts/list"}',
        ]
    ).encode()
    argv = ["serve", "--config", readable_creds_conf]
    open_run = subprocess.run(
        [sys.executable, "-m", "quantmcp", *argv],
        input=session,
        capture_output=True,
        timeout=30,
        cwd=str(REPO_ROOT),
        env=src_env(),
    )
    assert open_run.returncode == 0
    warning, *events = open_run.stderr.decode().splitlines()
    assert warning.startswith("warning: ") and "readable" in warning
    assert [json.loads(e)["event"] for e in events] == ["initialize", "notification", "tools_call", "tools_call",
                                                       "tool_error", "shutdown"]
    gone_run = _run_without_stderr(how, argv, session)
    assert gone_run.returncode == 0

    assert len(open_run.stdout.splitlines()) == 7
    assert mask_volatile(gone_run.stdout.decode("utf-8")) == mask_volatile(open_run.stdout.decode("utf-8"))
