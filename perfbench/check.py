"""Answer comparison, the checkers' self-test, and summary statistics."""

from __future__ import annotations


def matches(mode: str, expected: str, actual: str) -> bool:
    """``exact``: identical text.  ``distinct``: the same set of lines."""
    if mode == "distinct":
        return set(expected.split("\n")) == set(actual.split("\n"))
    return expected == actual


def split_items(fmt: str, text: str) -> list[str]:
    """Top-level items of a serialized result: one per line for values,
    one per top-level element or text run for XML."""
    if fmt != "xml":
        return text.split("\n")
    items: list[str] = []
    depth = start = i = 0
    while i < len(text):
        if text[i] != "<":
            following = text.find("<", i)
            i = len(text) if following < 0 else following
            continue
        if depth == 0 and i > start:  # a top-level text run ends here
            items.append(text[start:i])
            start = i
        close = text.index(">", i)
        if text.startswith("</", i):
            depth -= 1
        elif text[close - 1] != "/":
            depth += 1
        i = close + 1
        if depth == 0:
            items.append(text[start:i])
            start = i
    if start < len(text):
        items.append(text[start:])
    return [item for item in items if item]


def _join(fmt: str, items: list[str]) -> str:
    return ("" if fmt == "xml" else "\n").join(items)


def perturbations(mode: str, fmt: str, text: str) -> list[str]:
    """A dropped item and two swapped items, where they change the answer
    under ``mode`` (swaps and dropped copies cannot change a set)."""
    items = split_items(fmt, text)
    found = []
    if mode == "distinct":
        distinct = sorted(set(items))
        if len(distinct) >= 2:
            found.append(_join(fmt, [i for i in items if i != distinct[0]]))
        return found
    if len(items) >= 2:
        found.append(_join(fmt, items[1:]))
        for j in range(1, len(items)):
            if items[j] != items[0]:
                swapped = list(items)
                swapped[0], swapped[j] = swapped[j], swapped[0]
                found.append(_join(fmt, swapped))
                break
    return found


def self_test(expected: dict) -> int:
    """Feed every perturbable expected answer, perturbed, to the checker;
    returns the number checked, raises if any perturbation is accepted."""
    checked = 0
    for key, (mode, fmt, text) in expected.items():
        if _join(fmt, split_items(fmt, text)) != text:
            raise AssertionError(f"item split of answer {key!r} is not faithful")
        for wrong in perturbations(mode, fmt, text):
            if matches(mode, text, wrong):
                raise AssertionError(f"checker accepted a perturbed answer for {key!r}")
            checked += 1
    return checked


def rejects_swap(check, good: list) -> bool:
    """``check`` rejects ``good`` with its first two differing entries swapped."""
    for j in range(1, len(good)):
        if good[j] != good[0]:
            wrong = list(good)
            wrong[0], wrong[j] = wrong[j], wrong[0]
            return not check(wrong)
    return True


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), nearest-rank on sorted values."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]
