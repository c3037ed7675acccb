"""Seeded XML text generators for the benchmark's documents.

The shapes follow the paper's running example (books), an XMark-like
auction site and a DBLP-like bibliography, so the views of
``repro.workloads.queries`` apply to them.  They are written here rather
than imported from the program so that a change to the program cannot
change the benchmark's inputs: the program only ever receives the text.
"""

from __future__ import annotations

import random
from xml.sax.saxutils import escape, quoteattr

TITLES = ["Databases", "Querying XML", "Hierarchies", "Numbering", "Views",
          "Transforms", "Indexing", "Algorithms", "Semistructured Data", "Schemas"]
NAMES = ["Codd", "Curie", "Darwin", "Euler", "Franklin", "Gauss", "Hopper",
         "Knuth", "Lovelace", "Noether", "Turing", "Wing"]
CITIES = ["Boston", "Delhi", "Lagos", "Lima", "Oslo", "Paris", "Seoul",
          "Singapore", "Snowbird", "Tokyo"]

REGIONS = ["africa", "asia", "australia", "europe", "namerica", "samerica"]
CATEGORIES = ["art", "books", "coins", "computers", "music", "stamps", "tools"]
WORDS = ["rare", "vintage", "pristine", "boxed", "signed", "limited",
         "restored", "original", "classic", "annotated"]
PEOPLE = ["Ada", "Bela", "Chen", "Dana", "Emil", "Fay", "Gus", "Hana",
          "Ines", "Jun", "Kira", "Liam"]

SURNAMES = ["Abiteboul", "Bernstein", "Chen", "Dyreson", "Eswaran", "Fagin",
            "Gray", "Halevy", "Ioannidis", "Jagadish", "Kossmann", "Ley"]
TOPICS = ["XML", "XQuery", "views", "numbering", "indexes", "hierarchies",
          "query processing", "transformations", "schemas", "semistructured data"]
JOURNALS = ["TODS", "VLDBJ", "SIGMOD Record", "TKDE"]
VENUES = ["SIGMOD", "VLDB", "ICDE", "EDBT"]


def _el(name: str, text: str) -> str:
    return f"<{name}>{escape(text)}</{name}>"


def books_model(rng: random.Random, books: int) -> list[dict]:
    """``books`` books of 1-3 authors each, as plain records.

    The write-mix workload keeps this model beside the program and
    applies every update to it, so it can predict each read's answer.
    Titles carry the book's index and are therefore unique.
    """
    return [
        {
            "title": f"{rng.choice(TITLES)} vol. {index + 1}",
            "authors": [rng.choice(NAMES) for _ in range(rng.randint(1, 3))],
            "location": rng.choice(CITIES),
        }
        for index in range(books)
    ]


def author_xml(name: str) -> str:
    """One ``<author>`` element (the fragment the write-mix inserts)."""
    return f"<author>{_el('name', name)}</author>"


def books_text(model: list[dict]) -> str:
    """The ``<data>`` document for a :func:`books_model`."""
    return "<data>" + "".join(
        "<book>"
        + _el("title", book["title"])
        + "".join(author_xml(name) for name in book["authors"])
        + f"<publisher>{_el('location', book['location'])}</publisher>"
        + "</book>"
        for book in model
    ) + "</data>"


def books_xml(rng: random.Random, books: int) -> str:
    """``<data>`` with ``books`` books of 1-3 authors each."""
    return books_text(books_model(rng, books))


def auction_xml(rng: random.Random, items: int) -> str:
    """An XMark-like site: items in six regions, people, auctions with bids."""
    people = max(items // 2, 1)
    regions: dict[str, list[str]] = {name: [] for name in REGIONS}
    for index in range(items):
        pars = "".join(
            _el("par", " ".join(rng.choice(WORDS) for _ in range(6)))
            for _ in range(rng.randint(1, 3))
        )
        regions[rng.choice(REGIONS)].append(
            f"<item id=\"item{index}\">"
            + _el("name", f"{rng.choice(WORDS)} {rng.choice(CATEGORIES)} #{index}")
            + _el("category", rng.choice(CATEGORIES))
            + f"<description>{pars}</description>"
            + _el("price", str(rng.randint(5, 5000)))
            + "</item>"
        )
    region_text = "".join(
        f"<region name={quoteattr(name)}>{''.join(body)}</region>"
        for name, body in regions.items()
    )
    person_text = "".join(
        f"<person id=\"person{index}\">"
        + _el("name", rng.choice(PEOPLE))
        + _el("city", rng.choice(CITIES))
        + "</person>"
        for index in range(people)
    )
    auction_text = "".join(
        f"<auction item=\"item{index}\">"
        + "".join(
            f"<bid person=\"person{rng.randrange(people)}\">"
            + _el("amount", str(rng.randint(1, 9000)))
            + "</bid>"
            for _ in range(rng.randint(1, 3))
        )
        + "</auction>"
        for index in range(items)
    )
    return (
        f"<site><regions>{region_text}</regions><people>{person_text}</people>"
        f"<auctions>{auction_text}</auctions></site>"
    )


def dblp_xml(rng: random.Random, publications: int) -> str:
    """A wide bibliography alternating articles and inproceedings."""
    records = []
    for index in range(publications):
        authors = "".join(
            _el("author", rng.choice(SURNAMES)) for _ in range(rng.randint(1, 4))
        )
        title = _el("title", f"On {rng.choice(TOPICS)} and {rng.choice(TOPICS)} {index}")
        year = _el("year", str(rng.randint(1995, 2014)))
        if index % 2 == 0:
            records.append(
                f"<article key=\"journals/x/{index}\">{authors}{title}{year}"
                f"{_el('journal', rng.choice(JOURNALS))}</article>"
            )
        else:
            records.append(
                f"<inproceedings key=\"conf/x/{index}\">{authors}{title}{year}"
                f"{_el('booktitle', rng.choice(VENUES))}</inproceedings>"
            )
    return "<dblp>" + "".join(records) + "</dblp>"
