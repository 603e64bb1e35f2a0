"""Net structure, preset/postset, validation, constraint evaluation."""

import itertools
import random

import pytest

from wftc import constraint_consistent, parse_model, validate_workflow_structure
from wftc.model import BOT, FALSE, TRUE, ModelError, Place, WftcNet


def test_motivating_net_is_valid(motivating_net):
    report = validate_workflow_structure(motivating_net)
    assert report.valid, report.violations


def test_start_equals_end_is_invalid():
    net = WftcNet(places=[Place("p0", 0)], transitions=[], start="p0", end="p0")
    report = validate_workflow_structure(net)
    assert not report.valid
    assert any("distinct" in v for v in report.violations)


ISOLATED = """
[PLACES] p0 p1 p99
[TRANSITIONS] t0
[ARCS] p0->t0 t0->p1
[INITIAL] p0
[FINAL] p1
"""


def test_isolated_place_is_flagged():
    report = validate_workflow_structure(parse_model(ISOLATED))
    assert any("p99" in v for v in report.violations)
    assert report.errors == [] and not report.valid


def brute_force_on_path(net, node):
    # oracle: reachability closure over arcs and reversed arcs
    def reach(seeds, arcs):
        seen = set(seeds)
        changed = True
        while changed:
            changed = False
            for a, b in arcs:
                if a in seen and b not in seen:
                    seen.add(b)
                    changed = True
        return seen

    fwd = reach({net.start}, net.arcs)
    bwd = reach({net.end}, {(b, a) for a, b in net.arcs})
    return node in fwd and node in bwd


def test_validation_agrees_with_closure_oracle(motivating_net):
    report = validate_workflow_structure(motivating_net)
    for place in motivating_net.places:
        on_path = brute_force_on_path(motivating_net, place.name)
        flagged = any(place.name in v and "not on a path" in v for v in report.violations)
        assert on_path != flagged


def test_presets_of_motivating_net(motivating_net):
    assert motivating_net.preset("t0") == {"p0"}
    assert motivating_net.postset("p13") == set()
    assert motivating_net.preset("p13") == {"t18"}


def test_preset_matches_arc_scan(motivating_net):
    net = motivating_net
    for node in [p.name for p in net.places] + [t.name for t in net.transitions]:
        assert net.preset(node) == {a for a, b in net.arcs if b == node}
        assert net.postset(node) == {b for a, b in net.arcs if a == node}


def test_preset_unknown_node(motivating_net):
    with pytest.raises(ModelError):
        motivating_net.preset("nope")


def test_labels_reference_declared_items(motivating_net):
    items = set(motivating_net.data_items)
    for mapping in (motivating_net.rd, motivating_net.wt, motivating_net.dt):
        for names in mapping.values():
            assert set(names) <= items


# ---------------------------------------------------------------------------
# constraint evaluation


def xor(a, b):
    return (((a, True), (b, False)), ((a, False), (b, True)))


RES = (xor("g1", "g2"), xor("g3", "g4"), xor("g5", "g6"))
GUARDS = ["g1", "g2", "g3", "g4", "g5", "g6"]


def valuation(**kw):
    v = {g: BOT for g in GUARDS}
    v.update(kw)
    return v


def test_determined_consistent_pair():
    assert constraint_consistent(valuation(g1=TRUE, g2=FALSE), RES)


def test_equal_pair_is_inconsistent():
    assert not constraint_consistent(valuation(g1=TRUE, g2=TRUE), RES)
    assert not constraint_consistent(valuation(g1=FALSE, g2=FALSE), RES)


def test_all_undetermined_is_consistent():
    assert constraint_consistent(valuation(), RES)


def test_unknown_guard_in_constraint():
    with pytest.raises(ModelError):
        constraint_consistent({"g1": TRUE}, (((("g9", True),),),))


def test_refinement_never_rescues_a_violation():
    # once a valuation is violated, deciding further guards keeps it violated
    rng = random.Random(7)
    guards = ["a", "b", "c", "d"]
    for _ in range(60):
        constraints = []
        for _ in range(rng.randint(1, 3)):
            disjuncts = tuple(
                tuple(
                    (rng.choice(guards), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.randint(1, 2))
            )
            constraints.append(disjuncts)
        for values in itertools.product((TRUE, FALSE, BOT), repeat=len(guards)):
            v = dict(zip(guards, values))
            if constraint_consistent(v, constraints):
                continue
            for g in guards:
                if v[g] == BOT:
                    for refined in (TRUE, FALSE):
                        v2 = dict(v)
                        v2[g] = refined
                        assert not constraint_consistent(v2, constraints)
