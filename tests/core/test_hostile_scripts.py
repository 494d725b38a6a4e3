"""Hostile scripts: ``extract_events`` returns for each, within a time and
memory bound, instead of hanging or raising (DESIGN.md §3.3)."""

import multiprocessing
import resource

import pytest

from repro.core.featstore import ScriptEvents, extract_events
from repro.jsast.tokenizer import TokenizeError, tokenize
from repro.jsast.unpack import unpack_source

SECONDS = 30.0
#: Address space the child may add to what it starts with.
HEADROOM = 512 << 20


def _address_space() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    return 0


def _child(sender, source):
    try:
        limit = _address_space() + HEADROOM
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        events = extract_events(source)
        summary = None
        if not events.parse_error:
            result = unpack_source(source)
            summary = (result.rounds, result.failed_payloads, result.unpacked_sources)
        sender.send(("ok", (events, summary)))
    except BaseException as exc:
        sender.send(("raised", f"{type(exc).__name__}: {str(exc)[:200]}"))


def extract_bounded(source):
    """``extract_events(source)`` and, for a parseable source, an unpack
    summary, from a child process that fails the test if it raises, runs
    out of memory or takes longer than :data:`SECONDS` (a fresh
    interpreter's start-up included)."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, source))
    process.start()
    sender.close()
    try:
        if not receiver.poll(SECONDS):
            pytest.fail(f"did not finish within {SECONDS:.0f} s")
        try:
            status, value = receiver.recv()
        except EOFError:
            pytest.fail(f"the child died (exit code {process.exitcode})")
    finally:
        process.kill()
        process.join()
    if status != "ok":
        pytest.fail(f"raised {value}")
    return value


def dean_edwards(payload: str, radix: int, words) -> str:
    """A Dean Edwards ``p,a,c,k,e,d`` packer around ``payload``."""
    return (
        "eval(function(p,a,c,k,e,d){return p}"
        f"('{payload}',{radix},{len(words)},'{'|'.join(words)}'.split('|'),0,{{}}))"
    )


class TestPackerRadix:
    @pytest.mark.parametrize(
        "radix, words",
        [
            (1, ["var", "x"]),  # loops forever in the base-1 encoder
            (0, ["var", "x"]),  # divides by zero
            (63, [f"w{i}" for i in range(64)]),  # runs off the 62 digits
        ],
    )
    def test_out_of_range_radix_is_a_failed_payload(self, radix, words):
        events, summary = extract_bounded(dean_edwards("0 1=2;", radix, words))
        assert not events.parse_error and events.unpack_bailout
        # The packer stays in place, so its own tokens are the features.
        assert ("identifier", "p", ("Identifier", "FunctionExpression", "function")) in (
            events.events
        )
        assert summary == (0, 1, [])


class TestFolding:
    def test_invalid_code_point_does_not_fold(self):
        events, summary = extract_bounded("eval(String.fromCharCode(1e9));")
        assert not events.parse_error and not events.unpack_bailout
        assert summary == (0, 0, [])

    def test_long_plus_chain_folds(self):
        events, summary = extract_bounded("eval(" + "+".join(["'a'"] * 3000) + ");")
        assert ("identifier", "a" * 64, ("Identifier", "ExpressionStatement", "toplevel")) in (
            events.events
        )
        assert summary == (1, 0, ["a" * 3000])

    def test_join_past_the_bound_does_not_fold(self):
        # A 40 KB script whose join would build 400 million characters.
        source = f"eval('{'a' * 20000}'.split('').join('{'b' * 20000}'));"
        events, summary = extract_bounded(source)
        assert not events.parse_error and not events.unpack_bailout
        assert summary == (0, 0, [])

    def test_long_plus_chain_of_joins_past_the_bound_does_not_fold(self):
        # Each join folds to 4 million characters, under the bound; the
        # chain of 150 would build 600 million.
        join = f"'{'a' * 2000}'.split('').join('{'b' * 2000}')"
        events, summary = extract_bounded("eval(" + "+".join([join] * 150) + ");")
        assert not events.parse_error and not events.unpack_bailout
        assert summary == (0, 0, [])

    def test_packer_past_the_bound_is_a_failed_payload(self):
        # 20,000 copies of token 0, each standing for a 20,000-character word.
        events, summary = extract_bounded(
            dean_edwards(" ".join(["0"] * 20000), 10, ["a" * 20000])
        )
        assert not events.parse_error and events.unpack_bailout
        assert summary == (0, 1, [])


class TestNumbers:
    def test_non_decimal_digit_is_a_tokenize_error(self):
        with pytest.raises(TokenizeError):
            tokenize("var a = 1²;")
        events, summary = extract_bounded("var a = 1²;")
        assert events == ScriptEvents(events=(), parse_error=True) and summary is None
