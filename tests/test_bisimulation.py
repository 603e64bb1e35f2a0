"""The partition quantifier-free formulas are evaluated on, against an
independent check.

``wftc.dctl`` finds the coarsest bisimulation by signature refinement.
The check below shares no helper with it: it computes bisimilarity as the
greatest fixed point of a relation on pairs of states, which is slow but
follows the definition, and checks a partition class by class.
"""

import random

import pytest

from conftest import arc_lists, fixture_text, make_copied_srg, make_random_srg, table_model
from wftc import CONSTRAINED, UNCONSTRAINED, build_srg, parse_model
from wftc.dctl import _bisimulation


def bisimilar_pairs(succ: list[set[int]], labels: list) -> set[tuple[int, int]]:
    """Pairs of equally labelled nodes that match each other's steps into
    related nodes, as the greatest such relation."""
    n = len(succ)
    related = {(s, t) for s in range(n) for t in range(n) if labels[s] == labels[t]}

    def simulates(s, t):
        return all(any((a, b) in related for b in succ[t]) for a in succ[s])

    changed = True
    while changed:
        changed = False
        for s, t in list(related):
            if (s, t) in related and not (simulates(s, t) and simulates(t, s)):
                related -= {(s, t), (t, s)}
                changed = True
    return related


def successors(srg) -> list[set[int]]:
    succ = [set() for _ in srg.states]
    for src, dst in zip(srg.edges.src, srg.edges.dst):
        succ[src].add(dst)
    return succ


def markings(srg) -> list[tuple]:
    return [state.marking for state in srg.states]


def classes(srg) -> set[frozenset[int]]:
    """The classes of bisimilarity with markings as labels."""
    related = bisimilar_pairs(successors(srg), markings(srg))
    return {frozenset(t for t in range(len(srg.states)) if (s, t) in related) for s in range(len(srg.states))}


def check_partition(srg, block: list[int], count: int):
    """Blocks numbered 0..count-1 by first state, one marking per block,
    every block stable, and no two blocks bisimilar."""
    members = [[] for _ in range(count)]
    for state, b in enumerate(block):
        members[b].append(state)
    assert [group[0] for group in members] == sorted(group[0] for group in members)
    succ, labels = successors(srg), markings(srg)
    block_succ = []
    for group in members:
        assert len({labels[s] for s in group}) == 1
        targets = {frozenset(block[t] for t in succ[s]) for s in group}
        assert len(targets) == 1, "a block whose states step into different blocks"
        block_succ.append(set(targets.pop()))
    related = bisimilar_pairs(block_succ, [labels[group[0]] for group in members])
    assert related == {(b, b) for b in range(count)}, "two blocks are bisimilar"


def test_partition_on_random_graphs():
    rng = random.Random(11)
    for trial in range(200):
        if trial % 2:
            srg = make_copied_srg(rng, max_states=16, markings=rng.randint(1, 3))
        else:
            srg = make_random_srg(rng, max_states=14)
        block, count = _bisimulation(markings(srg), *arc_lists(srg))
        check_partition(srg, block, count)
        found = {frozenset(s for s, b in enumerate(block) if b == k) for k in range(count)}
        assert found == classes(srg)


@pytest.mark.parametrize(
    "text, mode, count",
    [
        (fixture_text("motivating.wftc"), CONSTRAINED, 25),
        (table_model(8), CONSTRAINED, 25),
        (fixture_text("motivating-wfd.wftc"), UNCONSTRAINED, 21),
    ],
    ids=["motivating", "table-8", "motivating-wfd-unconstrained"],
)
def test_partition_on_fixtures(text, mode, count):
    srg = build_srg(parse_model(text), mode)
    block, blocks = _bisimulation(markings(srg), *arc_lists(srg))
    assert blocks == count
    check_partition(srg, block, blocks)
