"""The serve workloads' traffic, built from the workload seed alone.

Nothing here imports the program: queries are plain protocol dicts, so
a program change cannot change the traffic. The only program output the
traffic reads is the served subscription's rule lines, to aim a stated
share of url queries at what the lists block (and at their exceptions),
and to give pages the element ids the lists hide.

- urls: ``block_share`` aim at a blocking rule's host and path (page
  domain set when the rule is domain-restricted), ``exception_share`` at
  an exception rule's, the rest at benign CDN and analytics hosts;
- scripts: with probability ``repeat_share`` a draw repeats a source
  sent earlier in the run; otherwise it is a fresh source (a
  verdict-cache miss for the daemon), the next one of a seeded walk
  through the script pool (``script_pool.json.gz``: 512 distinct script
  sources sampled from the synthetic world's live pages). A walk that
  has used every pool source goes round again with a trailing
  ``// rev N`` comment on each, so the source is new to the daemon but
  parses to the same program;
- pages: about 10 subresources, 5 scripts (3 external, 2 inline) and
  1 KB of HTML, some on domains with element-hiding rules, carrying
  the ids those rules hide;
- reloads: a delta the size of an AAK revision (median 10 lines, at
  most 59) naming hosts no query ever requests, removed again by the
  next reload, so every answer is the same in every epoch.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: ``||host/path`` rules, optionally restricted with ``$domain=d``.
_HOST_RULE = re.compile(r"^(@@)?\|\|([a-z0-9.-]+)(/[^$^*|]*)?(?:\$domain=([a-z0-9.-]+))?$")
#: ``domain###id`` / ``domain##.class`` element-hiding rules.
_ELEMENT_RULE = re.compile(r"^([a-z0-9.-]+)##([#.])([A-Za-z0-9_-]+)$")

_BENIGN_HOSTS = (
    "cdn.jsdelivr-mirror.net", "static.newsfeed-cdn.com", "img.photohost.org",
    "fonts.typeservice.io", "api.weatherwidget.com", "media.videoplatform.tv",
    "assets.shopfront.co", "js.commentsystem.net", "stats.pagecounter.org",
)
_WORDS = (
    "assets", "static", "bundle", "vendor", "widget", "player", "render", "lib",
    "theme", "gallery", "comments", "fonts", "images", "v2", "min", "app",
)
_TYPES = ("script", "image", "xmlhttprequest", "stylesheet", "subdocument")
_PUBLISHERS = ("dailynews", "techblog", "sportsdesk", "recipehub", "travelguide",
               "moviebuzz", "financewire", "gamezone", "healthdigest", "autoreview")


def _words(rng: random.Random, low: int, high: int) -> str:
    return "/".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


#: The script pool: distinct script sources of the synthetic world's
#: live pages, written once by ``make_script_pool.py``.
POOL = Path(__file__).resolve().parent / "script_pool.json.gz"


def load_pool() -> List[Dict]:
    """The pool's scripts: ``source``, ``anti_adblock`` and ``packed`` each."""
    with gzip.open(POOL, "rb") as handle:
        return json.loads(handle.read().decode("utf-8"))["scripts"]


class Traffic:
    """A seeded stream of protocol queries over one subscription."""

    def __init__(
        self,
        seed: int,
        network_lines: Sequence[str],
        element_lines: Sequence[str],
        mix: Tuple[float, float, float],
        block_share: float,
        exception_share: float,
        repeat_share: float,
    ) -> None:
        self.rng = random.Random(f"perfbench-traffic:{seed}")
        self.mix = mix
        self.block_share = block_share
        self.exception_share = exception_share
        self.repeat_share = repeat_share
        self.blocking: List[Tuple[str, str, Optional[str]]] = []
        self.excepted: List[Tuple[str, str, Optional[str]]] = []
        for line in network_lines:
            match = _HOST_RULE.match(line)
            if match:
                target = (match.group(2), match.group(3) or "/", match.group(4))
                (self.excepted if match.group(1) else self.blocking).append(target)
        self.hiding: List[Tuple[str, str, str]] = []
        for line in element_lines:
            match = _ELEMENT_RULE.match(line)
            if match:
                self.hiding.append(match.groups())
        self.pool = load_pool()
        self._walk = list(range(len(self.pool)))
        self.rng.shuffle(self._walk)
        self._sources: List[str] = []
        self._fresh = 0
        #: Workload properties, measured as the traffic is drawn.
        self.drawn = {"url": 0, "script": 0, "page": 0, "url_block_aimed": 0,
                      "url_exception_aimed": 0, "script_sources": 0, "script_repeats": 0,
                      "script_bytes": 0, "script_packed": 0, "page_subresources": 0,
                      "page_scripts": 0, "page_html_bytes": 0}

    # -- pieces ------------------------------------------------------------------

    def _url(self) -> Tuple[str, str, str]:
        """(url, page_url, what it aims at) for one request."""
        rng = self.rng
        roll = rng.random()
        aim = "benign"
        if roll < self.block_share and self.blocking:
            host, path, domain = rng.choice(self.blocking)
            aim = "block"
        elif roll < self.block_share + self.exception_share and self.excepted:
            host, path, domain = rng.choice(self.excepted)
            aim = "exception"
        else:
            host = rng.choice(_BENIGN_HOSTS)
            path = f"/{_words(rng, 1, 3)}/{rng.choice(_WORDS)}{rng.randint(1, 9999)}.js"
            domain = None
        page_domain = domain or f"www.{rng.choice(_PUBLISHERS)}{rng.randint(1, 400)}.com"
        if path.endswith("/"):
            path += f"index{rng.randint(1, 99)}.js"
        return f"https://{host}{path}", f"https://{page_domain}/", aim

    def _source(self) -> str:
        """One script source: a repeat with probability ``repeat_share``."""
        rng = self.rng
        drawn = self.drawn
        drawn["script_sources"] += 1
        if self._sources and rng.random() < self.repeat_share:
            drawn["script_repeats"] += 1
            source, packed = rng.choice(self._sources)
        else:
            laps, at = divmod(self._fresh, len(self._walk))
            self._fresh += 1
            script = self.pool[self._walk[at]]
            source, packed = script["source"], script["packed"]
            if laps:
                source = f"{source}\n// rev {laps}"
            self._sources.append((source, packed))
        drawn["script_bytes"] += len(source)
        drawn["script_packed"] += packed
        return source

    def _html(self, hidden: List[str]) -> str:
        rng = self.rng
        parts = ["<html><head><title>Article</title></head><body>",
                 "<div id='header'><a href='/'>Home</a><a href='/news'>News</a></div>",
                 "<div class='content'>"]
        for index in range(rng.randint(4, 6)):
            words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(12, 18)))
            parts.append(f"<p class='para-{index}'>{words}</p>")
        parts.append("</div>")
        for selector in hidden:
            kind, name = selector[0], selector[1:]
            attr = "id" if kind == "#" else "class"
            parts.append(f"<div {attr}='{name}'>Please disable your ad blocker</div>")
        parts.append("<div class='adsbox'>sponsored</div><div id='footer'>footer</div>")
        parts.append("</body></html>")
        return "".join(parts)

    # -- queries -------------------------------------------------------------------

    def url_query(self) -> Dict:
        url, page_url, aim = self._url()
        self.drawn["url"] += 1
        if aim != "benign":
            self.drawn[f"url_{aim}_aimed"] += 1
        return {"op": "url", "url": url, "page_url": page_url,
                "resource_type": self.rng.choice(_TYPES)}

    def script_query(self) -> Dict:
        self.drawn["script"] += 1
        return {"op": "script", "source": self._source()}

    def page_query(self) -> Dict:
        rng = self.rng
        self.drawn["page"] += 1
        hidden: List[str] = []
        if self.hiding and rng.random() < 0.5:
            domain, kind, name = rng.choice(self.hiding)
            hidden.append(kind + name)
            page_domain = domain
        else:
            page_domain = f"www.{rng.choice(_PUBLISHERS)}{rng.randint(1, 400)}.com"
        subresources = []
        for _ in range(rng.randint(8, 12)):
            url, _, _ = self._url()
            subresources.append({"url": url, "resource_type": rng.choice(_TYPES), "size": 2048})
        scripts = []
        for index in range(rng.randint(4, 6)):
            external = index < 3
            url = f"https://{rng.choice(_BENIGN_HOSTS)}/{_words(rng, 1, 2)}/s{rng.randint(1, 9999)}.js"
            scripts.append({"source": self._source(), "url": url if external else ""})
        html = self._html(hidden)
        self.drawn["page_subresources"] += len(subresources)
        self.drawn["page_scripts"] += len(scripts)
        self.drawn["page_html_bytes"] += len(html)
        return {"op": "page", "page": {"url": f"https://{page_domain}/article/{rng.randint(1, 99999)}",
                                       "html": html, "subresources": subresources,
                                       "scripts": scripts}}

    def query(self, op: Optional[str] = None) -> Dict:
        """One query of ``op``, or of an op drawn from the (url, script, page) mix."""
        if op is None:
            url_w, script_w, _ = self.mix
            roll = self.rng.random()
            op = "url" if roll < url_w else "script" if roll < url_w + script_w else "page"
        return {"url": self.url_query, "script": self.script_query, "page": self.page_query}[op]()

    def exact_ops(self, count: int) -> List[str]:
        """``count`` ops in the mix's exact shares, in a seeded order."""
        ops = [op for op, share in zip(("url", "script", "page"), self.mix)
               for _ in range(round(share * count))]
        self.rng.shuffle(ops)
        return ops

    def properties(self) -> Dict[str, float]:
        """The drawn traffic's shape (ratios with their bases)."""
        drawn = self.drawn
        pages = max(drawn["page"], 1)
        return {
            "queries": {op: drawn[op] for op in ("url", "script", "page")},
            "url_block_aimed_share": drawn["url_block_aimed"] / max(drawn["url"], 1),
            "url_exception_aimed_share": drawn["url_exception_aimed"] / max(drawn["url"], 1),
            "script_sources": drawn["script_sources"],
            "script_repeat_share": drawn["script_repeats"] / max(drawn["script_sources"], 1),
            "script_mean_bytes": drawn["script_bytes"] / max(drawn["script_sources"], 1),
            "script_packed_share": drawn["script_packed"] / max(drawn["script_sources"], 1),
            "page_mean_subresources": drawn["page_subresources"] / pages,
            "page_mean_scripts": drawn["page_scripts"] / pages,
            "page_mean_html_bytes": drawn["page_html_bytes"] / pages,
        }


class Reloads:
    """Alternating add/remove deltas the size of AAK revisions."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench-reloads:{seed}")
        self.sent = 0
        self._pending: List[str] = []

    def next_request(self) -> Dict:
        """Odd reloads add a fresh delta, even ones remove the previous."""
        self.sent += 1
        if self._pending:
            removed, self._pending = self._pending, []
            return {"op": "reload", "added": [], "removed": removed}
        size = min(59, max(1, round(self.rng.lognormvariate(math.log(10), 0.6))))
        lines = []
        for index in range(size):
            host = f"reload{self.sent}-{index}.perfbench-unrequested.net"
            if index % 5 == 4:
                lines.append(f"{host}###adb-reload-{index}")
            else:
                lines.append(f"||{host}/adblock/detector{index}.js")
        self._pending = lines
        return {"op": "reload", "added": lines, "removed": []}


def encode(message: Dict) -> bytes:
    """One wire line (compact JSON, the protocol's framing)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
