"""The three workloads: documents, views, queries and the op sequence.

Everything here is generated from the seed before any clock starts.  A
workload is a plain dict (it crosses process boundaries by pickling):

``docs``      ``[(uri, xml_text, shard)]`` — the program receives the text;
``durable``   the uri opened through ``open_durable`` (write-mix only);
``views``     ``[(uri, spec)]`` warmed during set-up;
``queries``   distinct queries, each ``{"text", "cls", "fmt", "view"}``:
              ``cls`` is ``doc`` or ``view``, ``fmt`` is how the caller reads
              the result (``xml`` = ``Result.to_xml()``, ``values`` =
              ``"\\n".join(Result.values())``), ``view`` the ``(uri, spec)``
              a view query reads;
``updates``   write-mix update ops as JSON payloads (a delete names the
              insert whose minted subtree it removes by ``"ref"``);
``round``     the op sequence one round runs: ``("q", i)`` query ``i``,
              ``("u", i)`` update ``i``, ``("p", i)`` a malformed-framing
              probe carrying query ``i``'s body (serve-http only).

A run repeats whole rounds, so every run executes the same mix.
"""

from __future__ import annotations

import random

from perfbench import docs

#: Views of ``repro.workloads.queries`` (all three Algorithm 1 cases).
BOOKS_INVERT = "title { author { name } }"
BOOKS_CASE2 = "title { name { author } }"
AUCTION_FLAT = "site { item { ** } person { ** } auction { ** } }"
AUCTION_PAIR = "item.name { category price }"
DBLP_BY_AUTHOR = (
    "dblp.article.author { article { title year } } "
    "dblp.inproceedings.author { inproceedings { title year } }"
)
#: Views whose transformation places one node at several positions; they
#: are compared on distinct values (DESIGN.md, duplication caveat).
DUPLICATING = {DBLP_BY_AUTHOR}
#: A write-mix view that references no type the updates touch: updates
#: re-bind it and it stays warm, while BOOKS_INVERT is evicted.
BOOKS_LOCATION = "title { location }"

#: Document sizes.  ``smoke`` runs every code path and every check in
#: seconds; ``full`` is what the benchmark measures.
SIZES = {
    "full": {"books": 64, "auction": 50, "dblp": 64, "wbooks": 96,
             "sbooks": 24, "round": 1000, "cycle": 200, "http_round": 2000},
    "smoke": {"books": 12, "auction": 10, "dblp": 12, "wbooks": 8,
              "sbooks": 6, "round": 120, "cycle": 40, "http_round": 120},
}

def _vsrc(uri: str, spec: str) -> str:
    return f'virtualDoc("{uri}", "{spec}")'


def _query(text: str, fmt: str = "xml", view=None) -> dict:
    return {"text": text, "cls": "view" if view else "doc", "fmt": fmt, "view": view}


def _shuffled_round(rng: random.Random, weights: list[int], length: int) -> list:
    """Exactly ``length`` query ops in proportion to ``weights`` (largest
    remainders round up), shuffled."""
    total = sum(weights)
    counts = [length * weight // total for weight in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: -(length * weights[i] % total))
    for index in by_remainder[:length - sum(counts)]:
        counts[index] += 1
    ops = [("q", index) for index, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(ops)
    return ops


def query_mix(seed: int, size: str = "full") -> dict:
    """Closed-loop in-process queries over a 2-shard collection.

    Stored queries exercise every kernel (columnar descendant/child
    steps, cas value predicates, prefix-sum count()/sum(), scalar
    positional predicates), the ordering axes, per-item FLWR steps and
    cross-shard unions; view queries are the ``repro.workloads.queries``
    suites over all five views.
    """
    n = SIZES[size]
    rng = random.Random(seed)
    doc_list = [
        ("book0.xml", docs.books_xml(rng, n["books"]), 0),
        ("book1.xml", docs.books_xml(rng, n["books"]), 1),
        ("auction.xml", docs.auction_xml(rng, n["auction"]), 0),
        ("dblp.xml", docs.dblp_xml(rng, n["dblp"]), 1),
    ]
    views = [
        ("book0.xml", BOOKS_INVERT), ("book1.xml", BOOKS_CASE2),
        ("auction.xml", AUCTION_FLAT), ("auction.xml", AUCTION_PAIR),
        ("dblp.xml", DBLP_BY_AUTHOR),
    ]
    b0, b1 = 'doc("book0.xml")', 'doc("book1.xml")'
    au, db = 'doc("auction.xml")', 'doc("dblp.xml")'
    vi = _vsrc("book0.xml", BOOKS_INVERT)
    v2 = _vsrc("book1.xml", BOOKS_CASE2)
    vf = _vsrc("auction.xml", AUCTION_FLAT)
    vp = _vsrc("auction.xml", AUCTION_PAIR)
    vd = _vsrc("dblp.xml", DBLP_BY_AUTHOR)
    # (query, weight): each class's median falls inside the block of one
    # heavily weighted query (the scatter count; the item.name view), and
    # the slowest query is over 3% of the round, so p99 falls inside it:
    # no percentile sits on the boundary between two queries' latencies.
    table = [
        (_query(f"{b0}//book/title"), 60),                                  # columnar
        (_query(f"{b1}//author/name", "values"), 60),                       # columnar
        (_query(f"{au}//item[price > 2500]/name"), 50),                     # cas
        (_query(f"{db}//article[year = 2005]/title", "values"), 50),        # cas
        (_query(f"count({b0}//author)", "values"), 70),                     # prefix-sum
        (_query(f"sum({au}//price)", "values"), 70),                        # prefix-sum
        (_query(f"{b1}/data/book[3]/title"), 40),                           # scalar
        (_query(f"{db}/dblp/inproceedings[5]/author", "values"), 40),       # scalar
        (_query(f"({b1}//book)[40]/following::title", "values"), 30),
        (_query(f"{db}//inproceedings[year = 2005]/preceding-sibling::article[1]/title"), 30),
        (_query(f"for $b in {b0}/data/book return <b>{{ count($b/author) }}</b>"), 30),
        (_query(f"{b0}//title | {b1}//title", "values"), 30),               # scatter
        (_query(f"count({b0}//author | {b1}//author)", "values"), 100),     # scatter
        (_query(f"{au}//item[price > 2500]/name | {db}//inproceedings[year > 2004]/title"), 30),
        (_query(f"{vi}//title", view=("book0.xml", BOOKS_INVERT)), 20),
        (_query(
            f"for $t in {vi}//title return <entry>{{ $t/text() }}<n>{{ count($t/author) }}</n></entry>",
            view=("book0.xml", BOOKS_INVERT)), 20),
        (_query(f"{vi}//title/author/name/text()", "values", ("book0.xml", BOOKS_INVERT)), 30),
        (_query(f"count({vi}//author)", "values", ("book0.xml", BOOKS_INVERT)), 50),
        (_query(f"{vi}//title[2]", view=("book0.xml", BOOKS_INVERT)), 40),
        (_query(f"{v2}//name", view=("book1.xml", BOOKS_CASE2)), 20),
        (_query(f"{v2}//name/author", view=("book1.xml", BOOKS_CASE2)), 20),
        (_query(f"{vf}//item", view=("auction.xml", AUCTION_FLAT)), 10),
        (_query(f"{vf}/site/item[price > 4500]/name/text()", "values", ("auction.xml", AUCTION_FLAT)), 40),
        (_query(f"for $a in {vf}/site/auction return <a>{{ count($a/bid) }}</a>",
                view=("auction.xml", AUCTION_FLAT)), 20),
        (_query(f"{vp}//name", view=("auction.xml", AUCTION_PAIR)), 80),
        (_query(f"{vp}//name[price > 4500]/category/text()", "values", ("auction.xml", AUCTION_PAIR)), 40),
        (_query(f"{vd}//author", "values", ("dblp.xml", DBLP_BY_AUTHOR)), 40),
        (_query(f"{vd}//author/article/title", "values", ("dblp.xml", DBLP_BY_AUTHOR)), 15),
        (_query(f"{vd}//author/inproceedings[year = 2013]/title/text()", "values",
                ("dblp.xml", DBLP_BY_AUTHOR)), 15),
    ]
    queries = [query for query, _ in table]
    return {
        "name": "query-mix", "docs": doc_list, "durable": None, "views": views,
        "queries": queries, "updates": [],
        "round": _shuffled_round(rng, [w for _, w in table], n["round"]),
    }


def serve_http(seed: int, size: str = "full") -> dict:
    """Cheap single-document queries served over HTTP, plus a fixed
    1-in-50 share of requests framed with ``Content-Length: abc``."""
    n = SIZES[size]
    rng = random.Random(seed)
    doc_list = [
        ("s0.xml", docs.books_xml(rng, n["sbooks"]), 0),
        ("s1.xml", docs.books_xml(rng, n["sbooks"]), 1),
    ]
    views = [("s0.xml", BOOKS_INVERT), ("s1.xml", BOOKS_INVERT), ("s1.xml", BOOKS_CASE2)]
    s0, s1 = 'doc("s0.xml")', 'doc("s1.xml")'
    # Each class's median falls inside the block of one heavily weighted
    # query (the count(); the view's positional step), not on the edge
    # between two queries' latencies.
    table = [
        (_query(f"count({s0}//title)", "values"), 6),
        (_query(f"{s1}//book[2]/title"), 2),
        (_query(f"{s0}//author/name/text()", "values"), 2),
        (_query(f'{s1}//book[title = "x"]/author'), 1),
        (_query(f"{_vsrc('s0.xml', BOOKS_INVERT)}//title[3]", view=("s0.xml", BOOKS_INVERT)), 3),
        (_query(f"count({_vsrc('s1.xml', BOOKS_INVERT)}//author)", "values",
                ("s1.xml", BOOKS_INVERT)), 2),
        (_query(f"{_vsrc('s1.xml', BOOKS_CASE2)}//name[1]/author", view=("s1.xml", BOOKS_CASE2)), 1),
    ]
    queries = [query for query, _ in table]
    # A longer round than the in-process workloads: the round-trip tail is
    # the noisiest figure, and 2000 requests put 20 samples beyond p99.
    length = n["http_round"]
    ops = _shuffled_round(rng, [w for _, w in table], length - length // 50)
    for slot in range(length // 50):
        ops.insert(slot * 50 + 25, ("p", slot % len(queries)))
    return {
        "name": "serve-http", "docs": doc_list, "durable": None, "views": views,
        "queries": queries, "updates": [], "round": ops,
    }


def write_mix(seed: int, size: str = "full") -> dict:
    """Durable updates interleaved with reads that observe them.

    Each cycle inserts an author into one book, renames an author of
    another, deletes the inserted author and renames back, so the
    document ends every round as it began.  ``BOOKS_INVERT`` references
    the touched types and is evicted by every update; ``BOOKS_LOCATION``
    is not and stays warm.  ``rbook.xml`` is never written.
    """
    n = SIZES[size]
    rng = random.Random(seed)
    wmodel = docs.books_model(rng, n["wbooks"])
    rmodel = docs.books_model(rng, n["wbooks"])
    doc_list = [
        ("wbook.xml", docs.books_text(wmodel), 0),
        ("rbook.xml", docs.books_text(rmodel), 1),
    ]
    views = [(uri, spec) for uri in ("wbook.xml", "rbook.xml")
             for spec in (BOOKS_INVERT, BOOKS_LOCATION)]
    queries: list[dict] = []
    index_of: dict[str, int] = {}

    def read(kind: str, uri: str, book: int, model) -> tuple:
        title = model[book]["title"]
        texts = {
            "count": (f'count(doc("{uri}")//author)', None),
            "names": (f'doc("{uri}")/data/book[{book + 1}]/author/name/text()', None),
            "vnames": (f'{_vsrc(uri, BOOKS_INVERT)}//title[text() = "{title}"]/author/name/text()',
                       (uri, BOOKS_INVERT)),
            "vloc": (f'{_vsrc(uri, BOOKS_LOCATION)}//title[text() = "{title}"]/location/text()',
                     (uri, BOOKS_LOCATION)),
            "loc": (f'doc("{uri}")//book[title = "{title}"]/publisher/location/text()', None),
        }
        text, view = texts[kind]
        if text not in index_of:
            index_of[text] = len(queries)
            queries.append(_query(text, "values", view))
        return ("q", index_of[text], {"kind": kind, "uri": uri, "book": book})

    updates: list[dict] = []
    ops: list = []
    # Four updates per cycle of ``cycle`` ops: at 2% of the ops, p99 falls
    # in the middle of the update latencies and both p50s on reads.
    cycles = n["round"] // n["cycle"]
    fillers_per_cycle = n["cycle"] - 4 - 8
    for _ in range(cycles):
        target = rng.randrange(len(wmodel))
        renamed = rng.randrange(len(wmodel))
        author = rng.randrange(len(wmodel[renamed]["authors"]))
        old_name = wmodel[renamed]["authors"][author]
        new_name = rng.choice([name for name in docs.NAMES if name != old_name])
        text_pbn = f"1.{renamed + 1}.{author + 2}.1.1"
        steps = [
            ({"op": "insert", "parent": f"1.{target + 1}",
              "fragment": docs.author_xml(rng.choice(docs.NAMES))},
             [("vnames", target), ("names", target), ("count", target)]),
            ({"op": "replace", "target": text_pbn, "text": new_name},
             [("vnames", renamed), ("names", renamed)]),
            ({"op": "delete", "ref": None},
             [("count", target), ("vnames", target)]),
            ({"op": "replace", "target": text_pbn, "text": old_name},
             [("names", renamed)]),
        ]
        fillers = []
        for _ in range(fillers_per_cycle):
            uri, model = rng.choice((("wbook.xml", wmodel), ("rbook.xml", rmodel)))
            kind = rng.choice(("count", "names", "vnames", "vloc", "loc"))
            fillers.append(read(kind, uri, rng.randrange(len(model)), model))
        rng.shuffle(fillers)
        per_gap = len(fillers) // len(steps)
        for step, (payload, observers) in enumerate(steps):
            if payload["op"] == "delete":
                payload["ref"] = len(updates) - 2
            ops.append(("u", len(updates), None))
            updates.append(payload)
            ops.extend(read(kind, "wbook.xml", book, wmodel) for kind, book in observers)
            ops.extend(fillers[step * per_gap:(step + 1) * per_gap])
        ops.extend(fillers[len(steps) * per_gap:])
    return {
        "name": "write-mix", "docs": doc_list, "durable": "wbook.xml", "views": views,
        "queries": queries, "updates": updates,
        "round": [(kind, index) for kind, index, _ in ops],
        "reads": [meta for _, _, meta in ops],
        "models": {"wbook.xml": wmodel, "rbook.xml": rmodel},
    }


def build(name: str, seed: int, size: str = "full") -> dict:
    """The named workload's inputs for ``seed``."""
    return {"query-mix": query_mix, "serve-http": serve_http,
            "write-mix": write_mix}[name](seed, size)
