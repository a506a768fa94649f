"""Snowball-crawl a synthetic wiki served over real local HTTP.

The fixture server is an HTTP proxy for virtual domains (wiki.test plus
external sites) with a robots.txt and a seeded random-article endpoint.
The crawler is the production HttpFetcher with the server as its proxy,
so the whole crawl stack runs exactly as it would against the live web
without leaving the machine: breadth-first
expansion up to two hops through the 'See also', 'References' and
'External links' sections, label propagation from the controversial
seeds, random-negative sampling, and leakage-free seed-based splits.
"""

from dataclasses import asdict

from controkit.corpus import CrawlPolicy, split_dataset
from controkit.crawl import build_dataset
from controkit.fixture_wiki import FixtureServer, random_wiki
from controkit.reports import render_split_stats_table

policy = CrawlPolicy(per_host_delay=0.0, wikipedia_hosts=("wiki.test",))
wiki, seeds = random_wiki(rng_seed=42, n_seed_pages=4, n_random_pool=4)

with FixtureServer(wiki) as server:
    print(f"fixture wiki: {len(wiki.pages)} pages served at {server.base_url}")
    fetcher = server.fetcher(policy)
    result, all_seeds = build_dataset(
        seeds, policy, fetcher, snapshot_year=2018, n_random_negatives=2)
documents, edges = result.documents, result.edges

print(f"\ncrawled {len(documents)} documents, {len(edges)} qualifying link edges, "
      f"{len(result.failures)} failed fetches")
for doc in sorted(documents, key=lambda d: (d.hop, d.url))[:8]:
    print(f"  hop {doc.hop}  {doc.label:17s}  {doc.source:11s}  {doc.url}"
          + (f"  [{doc.topic}]" if doc.topic else ""))

splits = split_dataset(documents, {"train": 4, "validation": 1, "test": 1},
                       rng_seed=0, edges=edges, seeds=all_seeds)
print()
print(render_split_stats_table({name: asdict(split.stats) for name, split in splits.items()}))
print("splits are disjoint by seed neighborhood, so no page can leak across.")
