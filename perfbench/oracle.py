"""Expected answers, computed apart from the measured process.

* Stored queries run on an unsharded ``Engine(mode="tree")``: the
  pointer-navigation baseline, with none of the columnar, cas,
  prefix-sum or shard-merge machinery under test.
* View queries run, with the same navigator, on the materialized view
  (``VirtualDocument.materialize``): Theorem 1 says the virtual answer
  equals the answer over the physically transformed document.  Views
  that duplicate nodes are compared on distinct values (DESIGN.md).
* write-mix reads are predicted by a model of the books that replays the
  update ops on plain Python records.
"""

from __future__ import annotations

import copy
import re
from xml.sax.saxutils import unescape

from perfbench.measured import as_text, read_result
from perfbench.workloads import DUPLICATING


def static_expected(workload: dict) -> dict:
    """``{query index: (mode, fmt, text)}``, mode ``exact`` or ``distinct``."""
    from repro.query.engine import Engine

    texts = {uri: text for uri, text, _ in workload["docs"]}
    oracle = Engine(mode="tree")
    for uri, text in texts.items():
        oracle.load(uri, text)
    materialized: dict = {}
    for query in workload["queries"]:
        view = query["view"]
        if view is not None and view not in materialized:
            uri, spec = view
            viewer = Engine()
            viewer.load(uri, texts[uri])
            name = f"view{len(materialized)}.xml"
            oracle.load(name, viewer.virtual(uri, spec).materialize(name))
            materialized[view] = name
    expected = {}
    for index, query in enumerate(workload["queries"]):
        text, mode = query["text"], "exact"
        if query["view"] is not None:
            uri, spec = query["view"]
            text = text.replace(
                f'virtualDoc("{uri}", "{spec}")', f'doc("{materialized[(uri, spec)]}")'
            )
            if spec in DUPLICATING:
                mode = "distinct"
        answer = read_result(oracle.execute(text), query["fmt"])
        expected[index] = (mode, query["fmt"], as_text(answer))
    return expected


def _effects(payload: dict, updates: list) -> tuple:
    if payload["op"] == "insert":
        book = int(payload["parent"].split(".")[1]) - 1
        name = unescape(re.search(r"<name>(.*)</name>", payload["fragment"]).group(1))
        return ("insert", book, name)
    if payload["op"] == "delete":
        return ("delete", _effects(updates[payload["ref"]], updates)[1])
    parts = payload["target"].split(".")
    return ("replace", int(parts[1]) - 1, int(parts[2]) - 2, payload["text"])


def _answer(models: dict, read: dict) -> str:
    book = models[read["uri"]][read["book"]]
    if read["kind"] == "count":
        return str(sum(len(b["authors"]) for b in models[read["uri"]]))
    if read["kind"] in ("names", "vnames"):
        return "\n".join(book["authors"])
    return book["location"]


def write_expected(workload: dict) -> dict:
    """``{round position: ("exact", "values", text)}`` for every write-mix read,
    from the model with each update applied in round order."""
    models = copy.deepcopy(workload["models"])
    updates = workload["updates"]
    expected = {}
    for position, ((kind, index), read) in enumerate(zip(workload["round"], workload["reads"])):
        if kind == "q":
            expected[position] = ("exact", "values", _answer(models, read))
            continue
        effect = _effects(updates[index], updates)
        authors = models[workload["durable"]][effect[1]]["authors"]
        if effect[0] == "insert":
            authors.append(effect[2])
        elif effect[0] == "delete":
            authors.pop()
        else:
            authors[effect[2]] = effect[3]
    if models != workload["models"]:
        raise RuntimeError("a write-mix round must leave the document as it found it")
    return expected


def expected_numbering(model: list) -> list:
    """(name, PBN) of every element of a books document, from the model:
    the numbers the document got at load, which no update may change."""
    found = [("data", "1")]
    for b, book in enumerate(model, start=1):
        found += [("book", f"1.{b}"), ("title", f"1.{b}.1")]
        for a in range(len(book["authors"])):
            found += [("author", f"1.{b}.{a + 2}"), ("name", f"1.{b}.{a + 2}.1")]
        publisher = f"1.{b}.{len(book['authors']) + 2}"
        found += [("publisher", publisher), ("location", f"{publisher}.1")]
    return found


def replayed_image(directory: str) -> bytes:
    """Reopen the durable directory (WAL replay) and dump its store."""
    import io

    from repro.storage.persist import dump_store
    from repro.updates.durable import DurableStore

    durable = DurableStore.open(directory)
    try:
        buffer = io.BytesIO()
        dump_store(durable.store, buffer, applied_seq=durable.seq)
        return buffer.getvalue()
    finally:
        durable.close()
