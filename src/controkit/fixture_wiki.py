"""Deterministic local HTTP fixture serving a small synthetic wiki.

The server is an HTTP forward proxy for any number of virtual hosts: a
client sends it the absolute URL (``GET http://wiki.test/A HTTP/1.1``,
RFC 9112 section 3.2.2) and it answers with that page.
:meth:`FixtureServer.fetcher` returns the production
:class:`controkit.crawl.HttpFetcher` with this server as its proxy, so
crawl logic, politeness, robots and redirects all run over real HTTP
without touching the network. Fixture URLs are ``http``: the server
answers ``CONNECT`` with 501, so an ``https`` fetch fails. A
``Special:Random`` endpoint 302-redirects through a seeded, cycling pool
so negative sampling is reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

import numpy as np

from .corpus import EXTERNAL_LINKS, REFERENCES, SEE_ALSO, CrawlPolicy, Seed, normalize_url
from .crawl import HttpFetcher
from .errors import DataFormatError

RANDOM_ENDPOINT = "http://wiki.test/special:random"

# A page's link sections: its FixturePage field, heading and link class
_SECTIONS = (("see_also", "See also", SEE_ALSO), ("references", "References", REFERENCES),
             ("external_links", "External links", EXTERNAL_LINKS))

_FILLER = (
    "debate dispute argument policy history culture science evidence "
    "society report study group public record question position"
).split()


@dataclass
class FixturePage:
    url: str
    title: str
    paragraphs: list[str] = field(default_factory=list)
    see_also: list[str] = field(default_factory=list)
    references: list[str] = field(default_factory=list)
    external_links: list[str] = field(default_factory=list)
    body_links: list[str] = field(default_factory=list)


@dataclass
class FixtureWiki:
    pages: dict[str, FixturePage] = field(default_factory=dict)
    random_pool: list[str] = field(default_factory=list)
    robots: dict[str, str] = field(default_factory=dict)
    random_endpoint: str = RANDOM_ENDPOINT

    def add(self, page: FixturePage) -> FixturePage:
        self.pages[normalize_url(page.url)] = page
        return page

    def qualifying_edges(self) -> list[tuple[str, str, str]]:
        """(src, dst, link_class) triples, the ground truth for oracles."""
        out = []
        for page in self.pages.values():
            for name, _, link_class in _SECTIONS:
                for t in getattr(page, name):
                    out.append((normalize_url(page.url), normalize_url(t), link_class))
        return out


def render_page(page: FixturePage) -> str:
    def link_list(urls):
        items = "".join(f'<li><a href="{u}">{u}</a></li>' for u in urls)
        return f"<ul>{items}</ul>"

    body_links = " ".join(f'<a href="{u}">{u}</a>' for u in page.body_links)
    paragraphs = "".join(f"<p>{p}</p>" for p in page.paragraphs)
    sections = [f"<h2>{heading}</h2>{link_list(getattr(page, name))}"
                for name, heading, _ in _SECTIONS if getattr(page, name)]
    return (
        "<html><head><title>{title}</title>"
        "<script>var tracker = 'ignored';</script>"
        "<style>p {{ margin: 0 }}</style></head>"
        "<body><nav><a href=\"http://wiki.test/main\">Main page</a> site chrome</nav>"
        "<h1>{title}</h1>{paragraphs}"
        "<p>Inline mentions: {body_links}</p>"
        "{sections}"
        "<footer>footer boilerplate</footer></body></html>"
    ).format(title=page.title, paragraphs=paragraphs, body_links=body_links,
             sections="".join(sections))


class FixtureServer:
    """Context manager running the fixture wiki on an ephemeral local port."""

    def __init__(self, wiki: FixtureWiki):
        self.wiki = wiki
        self._random_cursor = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                # CONNECT, the only way to ask for https, is answered 501
                # by the base class
                url = unquote(self.path)
                parts = urlsplit(url)
                if parts.scheme != "http" or not parts.netloc:
                    self._respond(404, "not an absolute http URL")
                    return
                if parts.path == "/robots.txt":
                    body = outer.wiki.robots.get(parts.netloc)
                    if body is None:
                        self._respond(404, "no robots.txt")
                    else:
                        self._respond(200, body, content_type="text/plain")
                    return
                virtual = normalize_url(url)
                if virtual == normalize_url(outer.wiki.random_endpoint):
                    target = outer._next_random()
                    if target is None:
                        self._respond(404, "random pool empty")
                    else:
                        self.send_response(302)
                        self.send_header("Location", target)
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                    return
                page = outer.wiki.pages.get(virtual)
                if page is None:
                    self._respond(404, f"no such page {virtual}")
                else:
                    self._respond(200, render_page(page), content_type="text/html")

            def _respond(self, status, body, content_type="text/plain"):
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", f"{content_type}; charset=utf-8")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def _next_random(self):
        with self._lock:
            if not self.wiki.random_pool:
                return None
            target = self.wiki.random_pool[self._random_cursor % len(self.wiki.random_pool)]
            self._random_cursor += 1
            return target

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def fetcher(self, policy: CrawlPolicy, **kwargs) -> HttpFetcher:
        """A plain :class:`HttpFetcher` that sends every request, ``http``
        or ``https``, to this server as its proxy and ignores the
        environment's proxy settings; ``random_url`` defaults to the
        wiki's random endpoint."""
        kwargs.setdefault("random_url", self.wiki.random_endpoint)
        fetcher = HttpFetcher(policy, **kwargs)
        fetcher.session.proxies = {"http": self.base_url, "https": self.base_url}
        fetcher.session.trust_env = False
        return fetcher

    def start(self) -> "FixtureServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def _paragraph(rng, topic_word: str) -> str:
    words = [topic_word] + [(_FILLER[int(rng.integers(len(_FILLER)))]) for _ in range(12)]
    return " ".join(words).capitalize() + "."


def random_wiki(rng_seed: int, n_seed_pages: int = 3, n_random_pool: int = 3,
                depth: int = 4, fanout: int = 3) -> tuple[FixtureWiki, list[Seed]]:
    """A randomized layered wiki for crawler property tests.

    Layer 0 holds controversial seed pages; each page links into the next
    layer through randomly chosen qualifying sections, sometimes to
    external hosts (general-web leaves), plus unclassified body links and
    occasional dead links. Depth exceeds the crawl's hop limit so the
    limit is actually exercised. The random pool backs the
    ``Special:Random`` endpoint.
    """
    rng = np.random.default_rng(rng_seed)
    wiki = FixtureWiki()
    topics = ["politics", "religion", "science", "history", "media"]

    layers: list[list[str]] = []
    counter = 0
    for level in range(depth + 1):
        width = n_seed_pages if level == 0 else int(rng.integers(2, 2 + fanout * 2))
        layer = []
        for _ in range(width):
            if level > 0 and rng.random() < 0.3:
                url = f"http://ext{counter}.example/page"
            else:
                url = f"http://wiki.test/p{counter}"
            layer.append(url)
            counter += 1
        layers.append(layer)

    for level, layer in enumerate(layers):
        for url in layer:
            name = urlsplit(url).path.strip("/") or urlsplit(url).netloc
            page = FixturePage(url=url, title=name,
                               paragraphs=[_paragraph(rng, name) for _ in range(2)])
            is_wiki = urlsplit(url).netloc == "wiki.test"
            if is_wiki and level < depth:
                targets = layers[level + 1]
                n_links = int(rng.integers(1, min(fanout, len(targets)) + 1))
                picks = rng.choice(len(targets), size=n_links, replace=False)
                for t in (targets[int(i)] for i in picks):
                    external = urlsplit(t).netloc != "wiki.test"
                    if external:
                        section = ["references", "external_links"][int(rng.integers(2))]
                    else:
                        section = ["see_also", "references", "external_links"][int(rng.integers(3))]
                    getattr(page, section).append(t)
                if rng.random() < 0.5 and level + 1 < len(layers):
                    other = layers[level + 1]
                    page.body_links.append(other[int(rng.integers(len(other)))])
                if rng.random() < 0.3:
                    page.references.append(f"http://wiki.test/missing{counter}")
            wiki.add(page)

    seeds = [
        Seed(url=url, topic=topics[i % len(topics)], polarity="controversial")
        for i, url in enumerate(layers[0])
    ]

    for i in range(n_random_pool):
        url = f"http://wiki.test/random{i}"
        page = FixturePage(url=url, title=f"random{i}",
                           paragraphs=[_paragraph(rng, f"random{i}")])
        if layers[1] and rng.random() < 0.5:
            target = layers[1][int(rng.integers(len(layers[1])))]
            if urlsplit(target).netloc == "wiki.test":
                page.see_also.append(target)
            else:
                page.references.append(target)
        wiki.add(page)
        wiki.random_pool.append(url)
    return wiki, seeds


def wiki_from_json(data: dict) -> FixtureWiki:
    """Build a fixture wiki from the JSON spec used by ``--fixture-server``.

    Shape: ``{"pages": [{"url", "title", "paragraphs", "see_also",
    "references", "external_links", "body_links"}], "random_pool": [...],
    "robots": {host: text}}``. A page entry that is not an object with a
    string ``url``, or whose list field is not a list of strings, is a
    ``DataFormatError`` naming the entry and the field.
    """
    wiki = FixtureWiki()
    for i, entry in enumerate(data.get("pages", [])):
        if not isinstance(entry, dict) or not isinstance(entry.get("url"), str):
            raise DataFormatError(f"fixture wiki pages[{i}]: missing or bad field 'url'")
        page = wiki.add(FixturePage(url=entry["url"], title=entry.get("title", entry["url"])))
        for name in ("paragraphs", "see_also", "references", "external_links", "body_links"):
            value = entry.get(name, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise DataFormatError(f"fixture wiki pages[{i}]: bad {name} {value!r}, "
                                      "expected a list of strings")
            getattr(page, name).extend(value)
    wiki.random_pool = list(data.get("random_pool", []))
    wiki.robots = dict(data.get("robots", {}))
    if "random_endpoint" in data:
        wiki.random_endpoint = data["random_endpoint"]
    return wiki
