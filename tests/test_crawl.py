import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from controkit.corpus import (
    CONTROVERSIAL,
    CrawlPolicy,
    Seed,
    normalize_url,
    split_dataset,
)
from controkit.crawl import (
    FetchFailure,
    HttpFetcher,
    build_dataset,
    crawl_snowball,
    merge_crawls,
    parse_page,
    parse_seed_listing,
    sample_negatives,
)
from controkit.errors import UsageError
from controkit.fixture_wiki import (
    FixturePage,
    FixtureServer,
    FixtureWiki,
    random_wiki,
    render_page,
)

from oracles import bfs_hops

POLICY = CrawlPolicy(per_host_delay=0.0, wikipedia_hosts=("wiki.test",))
CLOCK = lambda: "2020-01-01T00:00:00+00:00"  # noqa: E731


def chain_wiki(length: int = 4) -> tuple[FixtureWiki, list[Seed]]:
    """A single see-also chain S -> A -> B -> ... for hop-limit tests."""
    wiki = FixtureWiki()
    names = ["chain0"] + [f"chain{i}" for i in range(1, length)]
    for i, name in enumerate(names):
        nxt = [f"http://wiki.test/{names[i + 1]}"] if i + 1 < len(names) else []
        wiki.add(FixturePage(
            url=f"http://wiki.test/{name}",
            title=name,
            paragraphs=[f"{name} is a page about {name}."],
            see_also=nxt,
        ))
    seeds = [Seed(url="http://wiki.test/chain0", topic="chains", polarity="controversial")]
    return wiki, seeds


@pytest.fixture(scope="module")
def chain_server():
    wiki, seeds = chain_wiki(5)
    with FixtureServer(wiki) as server:
        yield server, wiki, seeds


class TestPageParsing:
    def test_sections_classify_links(self):
        page = FixturePage(
            url="http://wiki.test/a", title="A",
            paragraphs=["Visible paragraph."],
            see_also=["http://wiki.test/b"],
            references=["http://ext.example/c"],
            external_links=["http://ext.example/d"],
            body_links=["http://wiki.test/ignored"],
        )
        content = parse_page(render_page(page), page.url)
        classified = {url: cls for url, cls in content.links}
        assert classified[normalize_url("http://wiki.test/b")] == "see-also"
        assert classified[normalize_url("http://ext.example/c")] == "references"
        assert classified[normalize_url("http://ext.example/d")] == "external-links"
        assert classified[normalize_url("http://wiki.test/ignored")] is None
        assert "Visible paragraph." in content.text
        assert content.title == "A"

    def test_script_style_nav_stripped(self):
        html = ("<html><head><title>T</title><script>var x = 'secret';</script></head>"
                "<body><nav><p>menu text</p></nav><p>real text</p>"
                "<style>p{}</style></body></html>")
        content = parse_page(html, "http://wiki.test/x")
        assert "secret" not in content.text
        assert "menu" not in content.text
        assert "real text" in content.text

    def test_malformed_html_best_effort(self):
        html = "<html><p>broken <b>markup<p>more</html"
        content = parse_page(html, "http://wiki.test/x")
        assert "broken" in content.text

    def test_seed_listing_parser(self):
        html = ("<html><body><h2>Politics</h2><ul>"
                '<li><a href="/wiki/Alpha">Alpha</a></li>'
                '<li><a href="/wiki/Beta">Beta</a></li></ul>'
                "<h2>Religion</h2><ul>"
                '<li><a href="/wiki/Gamma">Gamma</a></li></ul></body></html>')
        seeds = parse_seed_listing(html, "http://en.wikipedia.org/")
        assert [s.topic for s in seeds] == ["Politics", "Politics", "Religion"]
        assert all(s.polarity == CONTROVERSIAL for s in seeds)
        assert seeds[0].url.endswith("/wiki/Alpha")


class TestChainCrawl:
    def test_hop_limit_two(self, chain_server):
        server, wiki, seeds = chain_server
        fetcher = server.fetcher(POLICY)
        result = crawl_snowball(seeds, POLICY, fetcher, 2018, clock=CLOCK)
        urls = {d.url: d.hop for d in result.documents}
        assert urls == {
            "http://wiki.test/chain0": 0,
            "http://wiki.test/chain1": 1,
            "http://wiki.test/chain2": 2,
        }

    def test_seed_with_no_links(self):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/lonely", title="Lonely",
                             paragraphs=["Nothing links out."]))
        seeds = [Seed("http://wiki.test/lonely", "t", CONTROVERSIAL)]
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result = crawl_snowball(seeds, POLICY, fetcher, 2018, clock=CLOCK)
        assert [d.url for d in result.documents] == ["http://wiki.test/lonely"]
        assert result.documents[0].hop == 0

    def test_shared_target_fetched_once_min_hop(self):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/s1", title="s1",
                             see_also=["http://wiki.test/mid"]))
        wiki.add(FixturePage(url="http://wiki.test/s2", title="s2",
                             see_also=["http://wiki.test/far"]))
        wiki.add(FixturePage(url="http://wiki.test/far", title="far",
                             see_also=["http://wiki.test/mid"]))
        wiki.add(FixturePage(url="http://wiki.test/mid", title="mid"))
        seeds = [Seed("http://wiki.test/s1", "a", CONTROVERSIAL),
                 Seed("http://wiki.test/s2", "b", CONTROVERSIAL)]
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result = crawl_snowball(seeds, POLICY, fetcher, 2018, clock=CLOCK)
        hops = {d.url: d.hop for d in result.documents}
        assert hops["http://wiki.test/mid"] == 1
        assert sum(1 for d in result.documents if d.url.endswith("/mid")) == 1

    def test_failures_skipped_and_logged(self):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/s", title="s",
                             see_also=["http://wiki.test/gone"]))
        seeds = [Seed("http://wiki.test/s", "t", CONTROVERSIAL)]
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result = crawl_snowball(seeds, POLICY, fetcher, 2018, clock=CLOCK)
        assert len(result.documents) == 1
        assert result.failures and "gone" in result.failures[0][0]

    def test_https_link_is_a_recorded_failure(self):
        # the fixture serves http only: it refuses the https tunnel
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/s", title="s",
                             see_also=["https://wiki.test/secure"]))
        wiki.add(FixturePage(url="https://wiki.test/secure", title="secure"))
        seeds = [Seed("http://wiki.test/s", "t", CONTROVERSIAL)]
        with FixtureServer(wiki) as server:
            result = crawl_snowball(seeds, POLICY, server.fetcher(POLICY), 2018, clock=CLOCK)
        assert [d.url for d in result.documents] == ["http://wiki.test/s"]
        assert result.failures == [("https://wiki.test/secure", "ProxyError")]

    def test_robots_disallow_honored(self):
        wiki = FixtureWiki()
        wiki.add(FixturePage(url="http://wiki.test/s", title="s",
                             see_also=["http://wiki.test/private"]))
        wiki.add(FixturePage(url="http://wiki.test/private", title="private"))
        wiki.robots["wiki.test"] = "User-agent: *\nDisallow: /private\n"
        seeds = [Seed("http://wiki.test/s", "t", CONTROVERSIAL)]
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result = crawl_snowball(seeds, POLICY, fetcher, 2018, clock=CLOCK)
        assert all("private" not in d.url for d in result.documents)
        assert any("robots" in reason for _, reason in result.failures)

    def test_max_pages_budget(self, chain_server):
        server, wiki, seeds = chain_server
        policy = CrawlPolicy(per_host_delay=0.0, wikipedia_hosts=("wiki.test",), max_pages=2)
        fetcher = server.fetcher(policy)
        result = crawl_snowball(seeds, policy, fetcher, 2018, clock=CLOCK)
        assert len(result.documents) == 2

    def test_politeness_delay_enforced(self):
        wiki, seeds = chain_wiki(3)
        sleeps = []
        policy = CrawlPolicy(per_host_delay=0.5, wikipedia_hosts=("wiki.test",))
        times = iter(np.arange(0, 100, 0.01))
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(policy, sleep=sleeps.append,
                                     clock=lambda: float(next(times)))
            crawl_snowball(seeds, policy, fetcher, 2018, clock=CLOCK)
        assert sleeps and all(s > 0.4 for s in sleeps)


class TestFetchRetries:
    def test_client_error_fails_at_once_server_error_is_retried(self):
        # a local server answering GET /<status> with that status; it counts
        # every page request it serves. 408 and 429 are the client errors a
        # retry can clear
        served = []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                status = 404 if self.path == "/robots.txt" else int(self.path.strip("/"))
                if self.path != "/robots.txt":
                    served.append(self.path)
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            fetcher = HttpFetcher(POLICY)
            fetcher.session.trust_env = False  # no proxy the environment names
            retried = POLICY.retry_count + 1
            for status, gets in ((404, 1), (403, 1), (408, retried), (429, retried),
                                 (500, retried)):
                served.clear()
                url = f"http://{host}:{port}/{status}"
                with pytest.raises(FetchFailure) as info:
                    fetcher.fetch(url)
                assert str(info.value) == f"failed to fetch {url}: HTTP {status}"
                assert len(served) == gets
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestNegativeSampling:
    def _server(self):
        wiki, seeds = random_wiki(5, n_random_pool=4)
        return wiki, seeds

    def test_single_negative_with_neighborhood(self):
        wiki, _ = self._server()
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result, chosen = sample_negatives(fetcher, 1, POLICY, 2018, clock=CLOCK)
        assert len(chosen) == 1
        assert all(d.hop <= 2 for d in result.documents)

    def test_collision_forces_resample(self):
        wiki, _ = self._server()
        first_random = wiki.random_pool[0]
        from controkit.corpus import document_id

        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            result, chosen = sample_negatives(
                fetcher, 2, POLICY, 2018,
                exclude_ids={document_id(first_random)}, clock=CLOCK)
        urls = {s.url for s in chosen}
        assert normalize_url(first_random) not in urls
        assert len(urls) == 2

    def test_exhaustion_is_usage_error(self):
        wiki, _ = self._server()
        with FixtureServer(wiki) as server:
            fetcher = server.fetcher(POLICY)
            with pytest.raises(UsageError, match="random negatives"):
                sample_negatives(fetcher, len(wiki.random_pool) + 1, POLICY, 2018, clock=CLOCK)


def crawl_oracle_check(rng_seed):
    """Crawl a randomized fixture and verify against independent oracles."""
    wiki, seeds = random_wiki(rng_seed)
    policy = POLICY
    with FixtureServer(wiki) as server:
        fetcher = server.fetcher(policy)
        result, all_seeds = build_dataset(seeds, policy, fetcher, 2018,
                                          n_random_negatives=2, clock=CLOCK)
    docs, edges = result.documents, result.edges

    truth_edges = [(src, dst) for src, dst, cls in wiki.qualifying_edges()
                   if cls in policy.link_classes]
    seed_urls = [normalize_url(s.url) for s in all_seeds]
    oracle_dist = bfs_hops(truth_edges, seed_urls)

    doc_urls = {normalize_url(d.url) for d in docs}
    for doc in docs:
        url = normalize_url(doc.url)
        # hop equals the oracle BFS distance and never exceeds 2
        assert doc.hop <= policy.max_hops
        assert oracle_dist[url] == doc.hop
    # dedup: ids unique
    assert len({d.id for d in docs}) == len(docs)
    # every fetchable page within 2 hops is present (fixture pages only;
    # external hosts exist as pages here so everything resolvable)
    for url, dist in oracle_dist.items():
        if dist <= policy.max_hops and url in {normalize_url(p) for p in wiki.pages}:
            assert url in doc_urls

    # label propagation matches oracle reachability from controversial seeds
    pos_dist = bfs_hops(
        [(s, d) for s, d in truth_edges if s in doc_urls and d in doc_urls],
        [normalize_url(s.url) for s in all_seeds if s.controversial])
    for doc in docs:
        url = normalize_url(doc.url)
        expected = CONTROVERSIAL if url in pos_dist else "non-controversial"
        assert doc.label == expected

    # splits: no leakage
    n = len(seed_urls)
    counts = {"train": max(1, n - 2), "validation": 1, "test": 1}
    splits = split_dataset(docs, counts, rng_seed, edges, all_seeds)
    id_sets = [set(s.doc_ids) for s in splits.values()]
    for i in range(len(id_sets)):
        for j in range(i + 1, len(id_sets)):
            assert not id_sets[i] & id_sets[j]

    # general-web docs entered via references/external-links from wikipedia
    general = {normalize_url(d.url) for d in docs if d.source == "general-web"}
    incoming_ok = set()
    for src, dst, cls in wiki.qualifying_edges():
        if cls in ("references", "external-links") and src in doc_urls:
            incoming_ok.add(dst)
    assert general <= incoming_ok


@pytest.mark.parametrize("rng_seed", range(5))
def test_randomized_fixture_crawls_match_oracles(rng_seed):
    crawl_oracle_check(rng_seed)


def test_merge_crawls_keeps_min_hop():
    a = chain_wiki(3)[0]
    d1 = [make_doc_for("http://wiki.test/x", 2), make_doc_for("http://wiki.test/y", 1)]
    d2 = [make_doc_for("http://wiki.test/x", 1)]
    from controkit.crawl import CrawlResult

    merged = merge_crawls(CrawlResult(d1, []), CrawlResult(d2, []))
    hops = {d.url: d.hop for d in merged.documents}
    assert hops["http://wiki.test/x"] == 1


def make_doc_for(url, hop):
    from controkit.corpus import Document, document_id

    return Document(id=document_id(url), url=url, title="", text="", label=None,
                    source="wikipedia", hop=hop, topic=None, snapshot_year=2018,
                    fetched_at="2020-01-01T00:00:00+00:00")
