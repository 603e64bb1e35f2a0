"""Metamorphic tests: a consistent renaming of a model's places,
transitions and data items, or a new order of its table rows, must leave
the graph's state, arc and pseudo-state counts and the PM1-PM5 verdicts
and satCounts as they were. No oracle is needed: the model is its own."""

import random
import re

import pytest

from conftest import fixture_text, table_model
from wftc import CONSTRAINED, UNCONSTRAINED, build_srg, parse_model
from wftc.dctl import builtin_metrics


def renamed(text: str, mapping: dict[str, str]) -> str:
    """``text`` with each whole-word name in ``mapping`` replaced at once,
    so that a swap of two names is a swap; ``id1`` is no occurrence of
    ``id``."""
    names = sorted(mapping, key=len, reverse=True)
    pattern = re.compile(r"(?<![\w'])(" + "|".join(map(re.escape, names)) + r")(?![\w'])")
    return pattern.sub(lambda m: mapping[m.group()], text)


def rows_permuted(text: str, rng: random.Random) -> str:
    """``text`` with the rows of its ``[TABLE]`` section in a new order."""
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("[TABLE]"))
    end = next(i for i in range(header + 1, len(lines)) if not lines[i].startswith("  "))
    rows = lines[header + 1 : end]
    order = list(rows)
    while len(rows) > 1 and order == rows:
        rng.shuffle(order)
    return "\n".join(lines[: header + 1] + order + lines[end:])


def names(text: str, section: str) -> list[str]:
    """The names a one-line section such as ``[PLACES]`` declares."""
    (line,) = [line for line in text.split("\n") if line.startswith(f"[{section}]")]
    return line.split()[1:]


def fingerprint(text: str, mode: str):
    srg = build_srg(parse_model(text), mode)
    metrics = {
        name: verdict if isinstance(verdict, str) else (verdict.holds, verdict.sat_bits.bit_count())
        for name, verdict in builtin_metrics(srg).items()
    }
    return len(srg.states), len(srg.edges), sum(srg.pseudo), metrics


def fresh(text: str, rng: random.Random) -> dict[str, str]:
    """New names for every place, transition and data item."""
    mapping = {}
    for section, stem in (("PLACES", "loc"), ("TRANSITIONS", "step"), ("DATA", "item")):
        declared = names(text, section)
        for number, name in zip(rng.sample(range(100, 1000), len(declared)), declared):
            mapping[name] = f"{stem}{number}"
    return mapping


def shuffled(text: str, rng: random.Random) -> dict[str, str]:
    """The places, the transitions and the data items each swapped among
    themselves: every name stays in use, for another thing."""
    mapping = {}
    for section in ("PLACES", "TRANSITIONS", "DATA"):
        declared = names(text, section)
        others = list(declared)
        while others == declared:
            rng.shuffle(others)
        mapping.update(zip(declared, others))
    return mapping


def keywords(text: str, rng: random.Random) -> dict[str, str]:
    """Places named like the formula language's keywords and operators."""
    spelled = ["AG", "EX", "E", "A", "U", "AF", "EG", "forall", "exists", "in", "empty", "true", "false", "deadlock"]
    rng.shuffle(spelled)
    return dict(zip(names(text, "PLACES"), spelled))


MODELS = {
    "motivating": (fixture_text("motivating.wftc"), CONSTRAINED, (54, 73, 0)),
    "table-8": (table_model(8), CONSTRAINED, (324, 439, 0)),
    "motivating-wfd": (fixture_text("motivating-wfd.wftc"), UNCONSTRAINED, (147, 216, 113)),
}


@pytest.fixture(scope="module")
def originals():
    return {name: fingerprint(text, mode) for name, (text, mode, _) in MODELS.items()}


@pytest.mark.parametrize("renaming", [fresh, shuffled, keywords])
@pytest.mark.parametrize("model", list(MODELS))
def test_renaming_preserves_counts_and_metrics(originals, model, renaming):
    text, mode, counts = MODELS[model]
    assert originals[model][:3] == counts
    for seed in range(3):
        mapping = renaming(text, random.Random(seed))
        changed = renamed(text, mapping)
        assert changed != text
        assert fingerprint(changed, mode) == originals[model], (seed, mapping)


@pytest.mark.parametrize("model", ["motivating", "table-8"])
def test_row_order_preserves_counts_and_metrics(originals, model):
    text, mode, _ = MODELS[model]
    for seed in range(3):
        rng = random.Random(seed)
        permuted = rows_permuted(text, rng)
        assert permuted != text
        assert fingerprint(permuted, mode) == originals[model]
        both = renamed(permuted, shuffled(permuted, rng))
        assert fingerprint(both, mode) == originals[model]


def test_renaming_is_by_whole_words():
    text = "[DATA] id password\n  id1, id, id', xid\npi4 = eq(id, id2)\n"
    assert renamed(text, {"id": "who", "password": "id"}) == (
        "[DATA] who id\n  id1, who, id', xid\npi4 = eq(who, id2)\n"
    )
