"""Synthetic Alexa-style domain population.

Stands in for the Alexa top lists: a ranked population of plausible
domain names. Sites in the simulated top segment get full page models;
tail domains (ranks beyond the crawled segment) exist as names only, so
filter lists can target them the way real lists target obscure sites
(Table 1's ``>1M`` bucket).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .seeds import rng_for

_SYLLABLES = (
    "news media stream cast play game tube flix zone hub spot net web "
    "tech data cloud info daily post press wire feed buzz viral trend "
    "sport score match bet win shop store deal mart porta gate link "
    "file share drive box vault soft ware apps code dev forge pix photo "
    "video movi show serie tooni blog forum talk chat social friend "
    "mail search find seek index rank top best free easy fast quick "
    "smart super mega ultra prime gold star world globa euro asia"
).split()

_TLDS_WEIGHTED: Sequence[Tuple[str, float]] = (
    ("com", 0.55),
    ("net", 0.10),
    ("org", 0.08),
    ("tv", 0.05),
    ("io", 0.04),
    ("co", 0.03),
    ("info", 0.03),
    ("co.uk", 0.03),
    ("de", 0.03),
    ("fr", 0.02),
    ("ru", 0.02),
    ("com.br", 0.02),
)

#: Table 1's rank buckets.
RANK_BUCKETS: Sequence[Tuple[str, int, int]] = (
    ("1-5K", 1, 5_000),
    ("5K-10K", 5_001, 10_000),
    ("10K-100K", 10_001, 100_000),
    ("100K-1M", 100_001, 1_000_000),
    (">1M", 1_000_001, 50_000_000),
)


@dataclass(frozen=True)
class RankedDomain:
    """One domain with its Alexa-style rank."""

    domain: str
    rank: int

    @property
    def rank_bucket(self) -> str:
        """This domain's Table 1 rank bucket."""
        return bucket_for_rank(self.rank)


def bucket_for_rank(rank: int) -> str:
    """Table 1 bucket name for an Alexa-style rank."""
    for name, low, high in RANK_BUCKETS:
        if low <= rank <= high:
            return name
    return RANK_BUCKETS[-1][0]


class DomainPopulation:
    """Deterministic ranked population of synthetic domains."""

    def __init__(self, seed: int, top_size: int = 5_000) -> None:
        self.seed = seed
        self.top_size = top_size
        self._cache: Dict[int, str] = {}
        self._by_name: Dict[str, int] = {}

    def domain_at(self, rank: int) -> str:
        """The domain name holding ``rank`` (1-based)."""
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank not in self._cache:
            name = self._mint_name(rank)
            self._cache[rank] = name
            self._by_name[name] = rank
        return self._cache[rank]

    def _mint_name(self, rank: int) -> str:
        rng = rng_for(self.seed, "alexa", rank)
        while True:
            n_parts = 2 if rng.random() < 0.8 else 3
            parts = [
                _SYLLABLES[int(rng.integers(0, len(_SYLLABLES)))]
                for _ in range(n_parts)
            ]
            tlds, weights = zip(*_TLDS_WEIGHTED)
            tld = str(rng.choice(tlds, p=weights))
            name = "".join(parts) + "." + tld
            # Collisions are possible across ranks; re-draw until unique.
            if name not in self._by_name or self._by_name[name] == rank:
                return name
            parts.append(str(int(rng.integers(2, 99))))
            name = "".join(parts) + "." + tld
            if name not in self._by_name or self._by_name[name] == rank:
                return name

    def rank_of(self, domain: str) -> Optional[int]:
        """The rank of a previously minted domain, if known."""
        return self._by_name.get(domain)

    def minted(self) -> List[Tuple[int, str]]:
        """Every ``(rank, name)`` minted so far, in mint order.

        Collisions are settled by mint order, so this table (not the
        seed alone) fixes which ranks carry suffixed names.
        """
        return list(self._cache.items())

    def restore(self, minted: Sequence[Tuple[int, str]]) -> None:
        """Adopt a :meth:`minted` table, so later mints see its names.

        Raises ``ValueError`` if a rank (or a name) is already minted
        here under another name (or rank): this population minted in a
        different order than the table's, and its names have diverged.
        """
        for rank, name in minted:
            known = self._cache.get(rank)
            if known is None:
                owner = self._by_name.get(name)
                if owner is not None:
                    raise ValueError(
                        f"cannot restore rank {rank} as {name!r}: minted for rank {owner}"
                    )
                self._cache[rank] = name
                self._by_name[name] = rank
            elif known != name:
                raise ValueError(
                    f"cannot restore rank {rank} as {name!r}: minted as {known!r}"
                )

    def top(self, n: int) -> List[RankedDomain]:
        """The top ``n`` ranked domains."""
        return [RankedDomain(self.domain_at(rank), rank) for rank in range(1, n + 1)]

    def sample_in_bucket(self, bucket: str, count: int, label: str = "") -> List[RankedDomain]:
        """``count`` distinct domains with ranks in the named Table 1 bucket."""
        for name, low, high in RANK_BUCKETS:
            if name == bucket:
                break
        else:
            raise ValueError(f"unknown rank bucket {bucket!r}")
        rng = rng_for(self.seed, "alexa-bucket", bucket, label)
        span = high - low + 1
        if count > span:
            raise ValueError(f"bucket {bucket} has only {span} ranks")
        ranks = rng.choice(span, size=count, replace=False) + low
        return [RankedDomain(self.domain_at(int(rank)), int(rank)) for rank in sorted(ranks)]
