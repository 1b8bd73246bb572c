"""Operator and test entry point: serve, list tools, call them, replay.

Exit codes are pinned for CI scripting: 0 success, 1 tool-level error,
2 usage/config error, 3 runtime/transport error.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import threading
from typing import Any, Callable

from . import __version__
from .config import ServerConfig, build_context, load_config
from .errors import ConfigError
from .server import Dispatcher, StdioServer
from .tools import build_registry

EXIT_OK = 0
EXIT_TOOL_ERROR = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


_STDERR_LOCK = threading.Lock()


def _stderr(text: str) -> None:
    """Write ``text`` as one stderr line; drop it if stderr is missing, closed or broken."""
    with _STDERR_LOCK:
        try:
            sys.stderr.write(text + "\n")
            sys.stderr.flush()
        except (AttributeError, ValueError, OSError):
            sys.stderr = None  # else its buffered bytes fail the flush at exit, and the status becomes 120


def _build_dispatcher(
    config_path: str, log: Callable[[str], None] | None = None
) -> tuple[ServerConfig, Dispatcher]:
    config = load_config(config_path)
    ctx = build_context(config, warn=lambda msg: _stderr(f"warning: {msg}"))
    return config, Dispatcher(build_registry(), ctx, server_name=config.name, log=log)


def _serve_frames(dispatcher: Dispatcher, lines: list[str]) -> list[str]:
    """Run ``lines`` through an in-process serve loop and return the lines it writes, newlines dropped."""
    out = io.StringIO()
    StdioServer(dispatcher, io.StringIO("".join(line + "\n" for line in lines)), out).run()
    return out.getvalue().split("\n")[:-1]


def cmd_serve(args: argparse.Namespace) -> int:
    if args.concurrent is not None and args.concurrent < 0:
        _stderr(f"usage error: --concurrent must be >= 0, got {args.concurrent}")
        return EXIT_USAGE
    config, dispatcher = _build_dispatcher(args.config, log=_stderr)
    concurrency = args.concurrent if args.concurrent is not None else config.concurrency
    # The wire is UTF-8 whatever the locale (stdout: see main). A byte that is
    # not UTF-8 reads as a lone surrogate, which parse_message answers with -32700.
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    server = StdioServer(dispatcher, sys.stdin, sys.stdout, concurrency=concurrency)
    try:
        return server.run()
    except OSError as exc:
        _stderr(f"transport error: {exc}")
        return EXIT_RUNTIME


def cmd_tools_list(args: argparse.Namespace) -> int:
    _, dispatcher = _build_dispatcher(args.config)
    manifest = [d.manifest_entry() for d in dispatcher.registry.descriptors()]
    print(json.dumps({"tools": manifest}, indent=2, ensure_ascii=False))
    return EXIT_OK


def cmd_call(args: argparse.Namespace) -> int:
    try:
        arguments = json.loads(args.params)
        call = json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                           "params": {"name": args.tool, "arguments": arguments}})
    except (ValueError, RecursionError) as exc:  # also an integer with too many digits, or nesting too deep
        _stderr(f"params error: not valid JSON: {exc}")
        return EXIT_USAGE
    if not isinstance(arguments, dict):
        _stderr("params error: params must be a JSON object")
        return EXIT_USAGE
    _, dispatcher = _build_dispatcher(args.config)
    client = {"name": "quantmcp-cli", "version": __version__}
    initialize = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {"clientInfo": client}})
    frame = json.loads(_serve_frames(dispatcher, [initialize, call])[-1])
    if "error" in frame:
        _stderr(json.dumps(frame["error"], indent=2))
        return EXIT_USAGE
    result = frame["result"]
    print(json.dumps(result["content"], indent=2, ensure_ascii=False))
    return EXIT_TOOL_ERROR if result["is_error"] else EXIT_OK


# The string value of a fetched_at or version key in compact JSON text: the key opens right after
# "{" or ",", so it is never text inside a string, where every quote is escaped.
_VOLATILE_VALUE = re.compile(r'(?<=[{,])"(fetched_at|version)":"(?:[^"\\]|\\.)*"')
_LINE_BREAKS = str.maketrans({ch: f"\\u{ord(ch):04x}" for ch in "\x85\u2028\u2029"})


def mask_volatile(text: str) -> str:
    """``text`` with the string value of every ``fetched_at`` and ``version`` key, at any depth, made ``"<masked>"``.

    The fetch time and the server release differ from run to run; every other byte of a frame must not.
    """
    return _VOLATILE_VALUE.sub(r'"\1":"<masked>"', text)


def _wire_text(message: Any) -> str:
    """``message`` as ``serve`` writes it: compact JSON, raw UTF-8, and U+0085, U+2028, U+2029 escaped.

    Encoded here, not by ``transport``'s encoder, so that a change to that encoder shows up as a diff.
    """
    return json.dumps(message, ensure_ascii=False, separators=(",", ":")).translate(_LINE_BREAKS)


def _load_transcript(path: str) -> list[tuple[str, str]]:
    """Each entry's direction and text: an ``in`` message as the line to send, an ``out`` one as its wire text."""
    entries: list[tuple[str, str]] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            where = f"{path}:{lineno}"
            try:  # also a byte that is not UTF-8, an integer with too many digits, or nesting too deep
                obj = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{where}: not valid JSON: {exc}") from None
            direction = obj.get("direction") if isinstance(obj, dict) else None
            message = obj.get("message") if isinstance(obj, dict) else None
            if direction not in ("in", "out") or not isinstance(message, dict):
                raise ConfigError(f'{where}: expected {{"direction": "in"|"out", "message": {{...}}}}')
            try:  # an out message holding an escaped lone surrogate fails to encode: no UTF-8 frame holds one
                text = json.dumps(message) if direction == "in" else _wire_text(message)
                text.encode("utf-8")
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{where}: no frame can hold this message: {exc}") from None
            entries.append((direction, text))
    return entries


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        entries = _load_transcript(args.transcript)
        _, dispatcher = _build_dispatcher(args.config)
    except (ConfigError, OSError) as exc:
        _stderr(f"replay error: {exc}")
        return EXIT_USAGE

    produced = _serve_frames(dispatcher, [text for direction, text in entries if direction == "in"])
    expected = [text for direction, text in entries if direction == "out"]

    failures = 0
    total = max(len(produced), len(expected))
    for i in range(total):
        if i >= len(produced):
            print(f"frame {i + 1}: FAIL (expected a response, none produced)")
            failures += 1
            continue
        if i >= len(expected):
            print(f"frame {i + 1}: FAIL (unexpected extra response)")
            failures += 1
            continue
        got = mask_volatile(produced[i])
        want = mask_volatile(expected[i])
        if got == want:
            print(f"frame {i + 1}: PASS")
        else:
            print(f"frame {i + 1}: FAIL")
            print(f"  expected: {want}")
            print(f"  actual:   {got}")
            failures += 1
    print(f"replayed {total} frames: {total - failures} passed, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_TOOL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantmcp",
        description="Serve, inspect, call, and replay the financial tool server.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve the protocol on stdin/stdout until EOF")
    serve.add_argument("--config", required=True, help="path to the server config file")
    serve.add_argument(
        "--concurrent",
        type=int,
        default=None,
        metavar="N",
        help="process up to N tools/call requests in parallel (default: sequential)",
    )
    serve.set_defaults(func=cmd_serve)

    tools = sub.add_parser("tools", help="tool catalog commands")
    tools_sub = tools.add_subparsers(dest="tools_command", required=True)
    tools_list = tools_sub.add_parser("list", help="print the tool manifest")
    tools_list.add_argument("--config", required=True)
    tools_list.set_defaults(func=cmd_tools_list)

    call = sub.add_parser("call", help="invoke one tool in-process and print its result")
    call.add_argument("tool", help="tool name, e.g. tool_get_historical_data")
    call.add_argument("params", help="tool arguments as a JSON object")
    call.add_argument("--config", required=True)
    call.set_defaults(func=cmd_call)

    replay = sub.add_parser("replay", help="replay a recorded transcript and diff the output")
    replay.add_argument("transcript", help="path to a JSONL transcript")
    replay.add_argument("--config", required=True)
    replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # every command prints UTF-8 whatever the locale
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        return args.func(args)
    except ConfigError as exc:
        _stderr(f"config error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
