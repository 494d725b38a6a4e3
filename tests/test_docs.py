"""Doc lint: the documentation must stay executable and in sync.

Three contracts, enforced so the docs cannot silently rot:

- every fenced ``python`` snippet in the user-facing docs runs as-is
  (snippets within a file are cumulative, as the docs state), and every
  fenced ``bash`` snippet at least parses;
- the ``REPRO_*`` knob surface documented in the docs and the one
  validated in ``repro.obs.config`` are the same set, in both
  directions. A ``REPRO_<STEM>_*`` token (the bare ``REPRO_*`` too)
  names a family of knobs by prefix: it is accepted when at least one
  config knob has that prefix, and it never counts as naming a knob;
- every internal markdown link (and its ``#anchor``, when present)
  resolves to a real file/heading.
"""

import re
import shutil
import subprocess

import pytest

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The linted documentation set. CHANGES.md (a log) is deliberately out.
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/OPERATIONS.md",
    "docs/SERVING.md",
    "docs/TUTORIAL.md",
]

#: Docs whose python snippets are executed end to end. The others have
#: no python fences (asserted below, so a new snippet can't dodge lint).
EXECUTABLE_DOCS = ["README.md", "docs/TUTORIAL.md"]

_FENCE = re.compile(r"```(\w*)[ \t]*\n(.*?)\n```", re.S)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KNOB = re.compile(r"REPRO_[A-Z_]+")
_FAMILY = re.compile(r"(REPRO_(?:[A-Z]+_)*)\*")


def _knob_refs(text: str):
    """``(knobs, families)`` named in ``text``. Family tokens are cut out
    before knob names are read, so ``REPRO_SERVE_*`` yields the family
    prefix ``REPRO_SERVE_`` and no knob name at all."""
    families = set(_FAMILY.findall(text))
    knobs = set(_KNOB.findall(_FAMILY.sub(" ", text)))
    return knobs, families


def _family_members(prefix: str, knobs):
    return {knob for knob in knobs if knob.startswith(prefix)}


def _fences(doc: str):
    return _FENCE.findall((ROOT / doc).read_text(encoding="utf-8"))


def _snippets(doc: str, lang: str):
    return [body for fence_lang, body in _fences(doc) if fence_lang == lang]


def _prose(doc: str) -> str:
    """Document text with fenced code blocks removed."""
    return _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))


class TestSnippetsExecute:
    @pytest.mark.parametrize("doc", EXECUTABLE_DOCS)
    def test_python_snippets_run_cumulatively(self, doc):
        snippets = _snippets(doc, "python")
        assert snippets, f"{doc} lost its python snippets"
        code = "\n".join(snippets)
        namespace = {"__name__": f"docs_{Path(doc).stem.lower()}"}
        exec(compile(code, str(ROOT / doc), "exec"), namespace)

    def test_only_the_executable_docs_have_python_fences(self):
        for doc in DOCS:
            if doc not in EXECUTABLE_DOCS:
                assert not _snippets(doc, "python"), (
                    f"{doc} grew a python fence: add it to EXECUTABLE_DOCS "
                    "(and make it runnable) or mark it as text"
                )

    @pytest.mark.parametrize("doc", DOCS)
    def test_bash_snippets_parse(self, doc):
        bash = shutil.which("bash")
        if bash is None:  # pragma: no cover
            pytest.skip("no bash on PATH")
        for snippet in _snippets(doc, "bash"):
            proc = subprocess.run(
                [bash, "-n"], input=snippet, capture_output=True, text=True
            )
            assert proc.returncode == 0, (
                f"bash snippet in {doc} does not parse:\n"
                f"{snippet}\n{proc.stderr}"
            )


class TestKnobSync:
    def _config_knobs(self):
        source = (ROOT / "src/repro/obs/config.py").read_text(encoding="utf-8")
        return _knob_refs(source)[0]

    def _doc_refs(self, doc: str):
        return _knob_refs((ROOT / doc).read_text(encoding="utf-8"))

    def _doc_knobs(self, doc: str):
        return self._doc_refs(doc)[0]

    def test_docs_and_config_agree_on_the_knob_surface(self):
        config = self._config_knobs()
        documented = set()
        for doc in DOCS:
            knobs, families = self._doc_refs(doc)
            unknown = knobs - config
            assert not unknown, f"{doc} documents unknown knobs: {unknown}"
            empty = {f + "*" for f in families if not _family_members(f, config)}
            assert not empty, f"{doc} documents knob families with no knob: {empty}"
            documented |= knobs
        assert documented == config, (
            f"knobs in config but documented nowhere: {config - documented}"
        )

    def test_the_extractor_tells_families_from_knob_names(self):
        config = self._config_knobs()
        assert _knob_refs("four `REPRO_SERVE_*` knobs") == (set(), {"REPRO_SERVE_"})
        assert _family_members("REPRO_SERVE_", config) == {
            "REPRO_SERVE_PORT",
            "REPRO_SERVE_BATCH",
            "REPRO_SERVE_WAIT_MS",
            "REPRO_SERVE_SHARDS",
        }
        assert _knob_refs("`REPRO_BOGUS_*`") == (set(), {"REPRO_BOGUS_"})
        assert not _family_members("REPRO_BOGUS_", config)
        for name in ("REPRO_SERVE_FOO", "REPRO_SERVE_"):
            knobs, families = _knob_refs(f"set `{name}` to 1")
            assert (knobs, families) == ({name}, set())
            assert knobs - config == {name}

    def test_architecture_table_lists_every_knob(self):
        # The consolidated table is the canonical reference; it must be
        # complete, not just the union of all docs. Only knob names count:
        # a family token (the `REPRO_*` heading) cannot stand in for a row.
        assert self._doc_knobs("docs/ARCHITECTURE.md") == self._config_knobs()


class TestLinks:
    @staticmethod
    def _heading_slugs(path: Path):
        slugs = set()
        for line in _FENCE.sub("", path.read_text(encoding="utf-8")).splitlines():
            match = re.match(r"#+\s+(.*)", line)
            if match:
                heading = re.sub(r"[^\w\s-]", "", match.group(1).strip().lower())
                slugs.add(re.sub(r"\s+", "-", heading))
        return slugs

    @pytest.mark.parametrize("doc", DOCS)
    def test_internal_links_resolve(self, doc):
        base = (ROOT / doc).parent
        for target in _LINK.findall(_prose(doc)):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            resolved = (base / path_part).resolve() if path_part else ROOT / doc
            assert resolved.exists(), f"{doc} links to missing {target}"
            if anchor:
                assert resolved.suffix == ".md", f"{doc}: anchor on non-md {target}"
                assert anchor in self._heading_slugs(resolved), (
                    f"{doc} links to missing anchor {target}"
                )
