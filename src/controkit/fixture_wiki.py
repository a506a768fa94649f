"""Deterministic local HTTP fixture serving a small synthetic wiki.

One local server hosts any number of virtual hosts: the path
``/<host>/<page-path>`` serves the page at ``http://<host>/<page-path>``.
Together with :class:`controkit.crawl.RewriteFetcher` this exercises the
real fetching stack (HTTP, robots, redirects) without touching the
network. A ``Special:Random`` endpoint 302-redirects through a seeded,
cycling pool so negative sampling is reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

import numpy as np

from .corpus import Seed, normalize_url

RANDOM_ENDPOINT = "http://wiki.test/special:random"

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
            src = normalize_url(page.url)
            for cls, targets in (
                ("see-also", page.see_also),
                ("references", page.references),
                ("external-links", page.external_links),
            ):
                for t in targets:
                    out.append((src, normalize_url(t), cls))
        return out


def render_page(page: FixturePage) -> str:
    def link_list(urls):
        items = "".join(f'<li><a href="{u}">{u}</a></li>' for u in urls)
        return f"<ul>{items}</ul>"

    body_links = " ".join(f'<a href="{u}">{u}</a>' for u in page.body_links)
    paragraphs = "".join(f"<p>{p}</p>" for p in page.paragraphs)
    sections = []
    if page.see_also:
        sections.append(f"<h2>See also</h2>{link_list(page.see_also)}")
    if page.references:
        sections.append(f"<h2>References</h2>{link_list(page.references)}")
    if page.external_links:
        sections.append(f"<h2>External links</h2>{link_list(page.external_links)}")
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
                host, _, rest = unquote(self.path).lstrip("/").partition("/")
                if not host:
                    self._respond(404, "no virtual host in path")
                    return
                virtual = normalize_url(f"http://{host}/{rest}")
                if rest == "robots.txt":
                    body = outer.wiki.robots.get(host)
                    if body is None:
                        self._respond(404, "no robots.txt")
                    else:
                        self._respond(200, body, content_type="text/plain")
                    return
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
    "robots": {host: text}}``.
    """
    wiki = FixtureWiki()
    for entry in data.get("pages", []):
        wiki.add(FixturePage(
            url=entry["url"],
            title=entry.get("title", entry["url"]),
            paragraphs=list(entry.get("paragraphs", [])),
            see_also=list(entry.get("see_also", [])),
            references=list(entry.get("references", [])),
            external_links=list(entry.get("external_links", [])),
            body_links=list(entry.get("body_links", [])),
        ))
    wiki.random_pool = list(data.get("random_pool", []))
    wiki.robots = dict(data.get("robots", {}))
    if "random_endpoint" in data:
        wiki.random_endpoint = data["random_endpoint"]
    return wiki
