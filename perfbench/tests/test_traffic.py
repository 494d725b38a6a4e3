"""The serve traffic: seeded, drawn from the world's script pool, in the stated shares."""

import ast
from pathlib import Path

from perfbench import traffic

NETWORK = ["||ads.example.com/banner/", "||track.example.net^$domain=news.example.org",
           "@@||ads.example.com/banner/ok.js"]
ELEMENT = ["news.example.org###adblock-wall", "blog.example.com##.ad-notice"]


def _traffic(seed=1, mix=(0.7, 0.2, 0.1)):
    return traffic.Traffic(seed, NETWORK, ELEMENT, mix, 0.3, 0.1, 0.5)


def test_the_same_seed_draws_the_same_queries():
    first, second, other = _traffic(7), _traffic(7), _traffic(8)
    drawn = [first.query() for _ in range(300)]
    assert drawn == [second.query() for _ in range(300)]
    assert drawn != [other.query() for _ in range(300)]


def test_scripts_come_from_the_pool_and_repeat_at_the_stated_share():
    tr = _traffic(mix=(0.0, 1.0, 0.0))
    pool = {script["source"] for script in tr.pool}
    sources = [tr.query()["source"] for _ in range(2000)]
    fresh = list(dict.fromkeys(sources))
    # The first walk through the pool sends pool sources verbatim; the
    # next lap marks each with a trailing comment, so it is new again.
    assert all(source in pool for source in fresh[: len(pool)])
    assert all(source.rsplit("\n// rev ", 1)[0] in pool for source in fresh)
    assert len(fresh) > len(pool)
    shape = tr.properties()
    assert 0.45 < shape["script_repeat_share"] < 0.55
    assert shape["script_mean_bytes"] > 500
    assert shape["script_packed_share"] == 0.0


def test_exact_ops_keep_the_mix_shares():
    tr = _traffic()
    ops = tr.exact_ops(600)
    assert (ops.count("url"), ops.count("script"), ops.count("page")) == (420, 120, 60)
    assert ops != sorted(ops)


def test_traffic_imports_nothing_from_the_program():
    tree = ast.parse(Path(traffic.__file__).read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "repro" not in imported
