"""Wire protocol: framing, validation, and lossless page serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.web.page import PageSnapshot, Script, Subresource


class TestFraming:
    def test_encode_decode_round_trip(self):
        for message in (
            protocol.url_query("https://ads.example/x.js"),
            protocol.script_query("var a = 1;"),
            protocol.reload_request(["||a.example^"], []),
            {"op": "health"},
            {"op": "metrics"},
            {"op": "shutdown"},
        ):
            assert protocol.decode_line(protocol.encode(message)) == message

    def test_frames_are_single_lines(self):
        frame = protocol.encode(protocol.script_query("line1\nline2"))
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1  # newlines inside strings are escaped

    def test_empty_line_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line("   \n")

    def test_garbage_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b'["op", "url"]')

    def test_unknown_op_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b'{"op": "teleport"}')

    def test_deep_nesting_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[" * 100_000)

    def test_integer_past_the_digit_limit_rejected(self):
        line = b'{"op": "url", "n": ' + b"9" * 5000 + b"}"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(line)


def _decodes_or_rejects(line) -> None:
    """``decode_line`` returns a message or raises ``ProtocolError``; no
    other exception may escape to the connection handler."""
    try:
        message = protocol.decode_line(line)
    except protocol.ProtocolError:
        return
    assert isinstance(message, dict)


#: Text that looks like protocol frames often enough to pass the JSON
#: decoder and reach the op checks.
json_ish = st.text(alphabet='{}[]":,. -0123456789eE\\optursalbch', max_size=200)


class TestDecodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(line=st.binary(max_size=400))
    def test_arbitrary_bytes(self, line):
        _decodes_or_rejects(line)

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(max_size=400))
    def test_arbitrary_text(self, line):
        _decodes_or_rejects(line)

    @settings(max_examples=300, deadline=None)
    @given(body=json_ish)
    def test_json_shaped_text(self, body):
        _decodes_or_rejects('{"op": ' + body)
        _decodes_or_rejects(body)


class TestBatchFrames:
    def test_batch_round_trip(self):
        message = protocol.batch_query(
            [protocol.url_query("https://a.example/x"), protocol.script_query("1;")]
        )
        decoded = protocol.decode_line(protocol.encode(message))
        assert decoded["op"] == protocol.BATCH_OP
        assert len(decoded["queries"]) == 2

    def test_batch_requires_query_array(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b'{"op": "batch"}')
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b'{"op": "batch", "queries": "all"}')


class TestPageSerialisation:
    def _snapshot(self):
        return PageSnapshot(
            url="https://news.example/story",
            html="<html><body><div class='adsbox'>x</div></body></html>",
            subresources=[
                Subresource(url="https://cdn.example/ad.js", resource_type="script", size=512)
            ],
            scripts=[Script(source="var x = 1;", url="https://cdn.example/app.js")],
        )

    def test_round_trip_preserves_fields(self):
        wire = protocol.snapshot_to_wire(self._snapshot())
        back = protocol.snapshot_from_wire(wire)
        assert back.url == "https://news.example/story"
        assert back.subresources[0].resource_type == "script"
        assert back.subresources[0].size == 512
        assert back.scripts[0].source == "var x = 1;"
        assert protocol.snapshot_to_wire(back) == wire

    def test_wire_form_survives_framing(self):
        query = protocol.page_query(self._snapshot())
        decoded = protocol.decode_line(protocol.encode(query))
        assert decoded == query

    def test_missing_url_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.snapshot_from_wire({"html": "<html></html>"})


class TestResponses:
    def test_ok_response_carries_fields(self):
        response = protocol.ok_response("url", blocked=True)
        assert response == {"ok": True, "op": "url", "blocked": True}

    def test_error_response_keeps_connection_semantics(self):
        response = protocol.error_response("boom", "script")
        assert response["ok"] is False
        assert response["error"] == "boom"
        assert response["op"] == "script"
