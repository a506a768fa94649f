import requests

from controkit.corpus import CrawlPolicy
from controkit.fixture_wiki import (
    FixturePage,
    FixtureServer,
    FixtureWiki,
    random_wiki,
    wiki_from_json,
)

POLICY = CrawlPolicy(per_host_delay=0.0, wikipedia_hosts=("wiki.test",))


def test_serves_pages_and_404s():
    wiki = FixtureWiki()
    wiki.add(FixturePage(url="http://wiki.test/a", title="A", paragraphs=["Hello."]))
    with FixtureServer(wiki) as server:
        proxies = {"http": server.base_url}
        ok = requests.get("http://wiki.test/a", proxies=proxies)
        assert ok.status_code == 200
        assert "Hello." in ok.text
        missing = requests.get("http://wiki.test/zzz", proxies=proxies)
        assert missing.status_code == 404
        # the server is a proxy: only an absolute URL names a page
        with requests.Session() as direct:
            direct.trust_env = False  # no proxy the environment names
            assert direct.get(f"{server.base_url}/wiki.test/a").status_code == 404


def test_random_endpoint_cycles_deterministically():
    wiki = FixtureWiki()
    for i in range(3):
        wiki.add(FixturePage(url=f"http://wiki.test/r{i}", title=f"r{i}"))
        wiki.random_pool.append(f"http://wiki.test/r{i}")
    with FixtureServer(wiki) as server:
        fetcher = server.fetcher(POLICY)
        urls = [fetcher.fetch_random().url for _ in range(4)]
    assert urls == [
        "http://wiki.test/r0", "http://wiki.test/r1",
        "http://wiki.test/r2", "http://wiki.test/r0",
    ]


def test_fetch_follows_the_random_redirect_through_the_server():
    wiki = FixtureWiki()
    wiki.add(FixturePage(url="http://wiki.test/r0", title="r0", paragraphs=["Pool page."]))
    wiki.random_pool.append("http://wiki.test/r0")
    with FixtureServer(wiki) as server:
        page = server.fetcher(POLICY).fetch(wiki.random_endpoint)
    assert page.status == 200
    assert "<title>r0</title>" in page.html and "Pool page." in page.html


def test_robots_served_per_host():
    wiki = FixtureWiki()
    wiki.robots["wiki.test"] = "User-agent: *\nDisallow: /x\n"
    with FixtureServer(wiki) as server:
        proxies = {"http": server.base_url}
        resp = requests.get("http://wiki.test/robots.txt", proxies=proxies)
        assert resp.status_code == 200
        assert "Disallow: /x" in resp.text
        assert requests.get("http://other.test/robots.txt",
                            proxies=proxies).status_code == 404


def test_wiki_json_round_trip():
    wiki, _ = random_wiki(3)
    data = {
        "pages": [
            {"url": p.url, "title": p.title, "paragraphs": p.paragraphs,
             "see_also": p.see_also, "references": p.references,
             "external_links": p.external_links, "body_links": p.body_links}
            for p in wiki.pages.values()
        ],
        "random_pool": wiki.random_pool,
        "robots": wiki.robots,
    }
    rebuilt = wiki_from_json(data)
    assert set(rebuilt.pages) == set(wiki.pages)
    assert rebuilt.random_pool == wiki.random_pool


def test_generated_wiki_respects_source_conventions():
    for seed in range(3):
        wiki, seeds = random_wiki(seed)
        for page in wiki.pages.values():
            for target in page.see_also:
                assert "wiki.test" in target  # see-also stays internal
        assert all(s.url.startswith("http://wiki.test/") for s in seeds)
