"""Write the serve traffic's script pool from the program's synthetic world.

    PYTHONPATH=src python3 perfbench/make_script_pool.py

The pool is a seeded sample of the distinct script sources on the pages
the synthetic world serves on its live-crawl date (the crawled top
sites at ``REPRO_SCALE=1.0``, the scale the serve workloads boot at):
the scripts the §5 online scenario scans. Each entry keeps whether the
world labels the script anti-adblock and whether the program's
unpacker finds packed code in it. The file is committed, so the
benchmark's traffic stays the same when the program changes; rerun this
only to move the traffic to a new world on purpose.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from pathlib import Path

#: Where the traffic reads the pool.
POOL = Path(__file__).resolve().parent / "script_pool.json.gz"
#: How many distinct sources the pool keeps.
SIZE = 512
SCALE = 1.0


def build() -> dict:
    from repro.experiments.context import ExperimentContext
    from repro.jsast import parse, unpack_program

    world = ExperimentContext.create(scale=SCALE).world
    seen = {}
    for rank in range(1, world.config.n_sites + 1):
        page = world.live_snapshot(rank)
        for script in page.scripts if page is not None else ():
            if script.source:
                seen.setdefault(script.source, script.is_anti_adblock)
    sources = list(seen)
    picked = sorted(random.Random("perfbench-script-pool").sample(range(len(sources)), SIZE))
    scripts = []
    for index in picked:
        source = sources[index]
        scripts.append({
            "source": source,
            "anti_adblock": bool(seen[source]),
            "packed": unpack_program(parse(source)).was_packed,
        })
    return {
        "about": "distinct live-page script sources of the synthetic world, "
                 f"scale {SCALE}, world seed {world.seed}",
        "world_distinct_sources": len(sources),
        "scripts": scripts,
    }


def main() -> int:
    pool = build()
    with gzip.GzipFile(POOL, "wb", mtime=0) as handle:
        handle.write(json.dumps(pool, indent=0, sort_keys=True).encode("utf-8"))
    scripts = pool["scripts"]
    print(f"{POOL.name}: {len(scripts)} of {pool['world_distinct_sources']} distinct sources, "
          f"mean {sum(len(s['source']) for s in scripts) / len(scripts):.0f} bytes, "
          f"{sum(s['anti_adblock'] for s in scripts)} anti-adblock, "
          f"{sum(s['packed'] for s in scripts)} packed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
