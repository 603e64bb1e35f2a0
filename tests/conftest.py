import random
from importlib import resources

import pytest

from wftc import CONSTRAINED, UNCONSTRAINED, build_srg, parse_model
from wftc.model import Place, Transition, WftcNet
from wftc.srg import Srg, StateC


def fixture_path(name: str):
    return resources.files("wftc") / "fixtures" / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def table_model(n: int) -> str:
    """``motivating.wftc`` with the ``User`` rows ``idK, licenseK, copyK``
    for K = 1..n."""
    rows = "".join(f"  id{k}, license{k}, copy{k}\n" for k in range(1, n + 1))
    return fixture_text("motivating.wftc").replace("  id1, license1, copy1\n  id2, license2, copy2\n", rows)


@pytest.fixture(scope="session")
def motivating_net():
    return parse_model(fixture_text("motivating.wftc"))


@pytest.fixture(scope="session")
def motivating_srg(motivating_net):
    return build_srg(motivating_net, CONSTRAINED)


@pytest.fixture(scope="session")
def wfd_net():
    return parse_model(fixture_text("motivating-wfd.wftc"))


@pytest.fixture(scope="session")
def wfd_srg(wfd_net):
    return build_srg(wfd_net, UNCONSTRAINED)


TINY_CHAIN = """
[PLACES] p0 p1
[TRANSITIONS] t0
[ARCS] p0->t0 t0->p1
[INITIAL] p0
[FINAL] p1
"""


@pytest.fixture
def tiny_net():
    return parse_model(TINY_CHAIN)


def make_random_srg(rng: random.Random, max_states: int = 20) -> Srg:
    """A synthetic graph over a one-hot net: state i marks place q{i}, so
    place atoms select single states. The initial state is random."""
    n = rng.randint(2, max_states)
    places = [Place(f"q{i}", i) for i in range(n)]
    net = WftcNet(places=places, transitions=[Transition("t", 0)], start="q0", end=f"q{n - 1}")
    srg = Srg(net=net, mode=CONSTRAINED)
    for i in range(n):
        marking = tuple(1 if j == i else 0 for j in range(n))
        srg.states.append(StateC(marking, (), (), ()))
        srg.pseudo.append(False)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 2.5 / n:
                srg.edges.append((i, "t", j))
    srg.initial = rng.randrange(n)
    return srg.finish()


def make_copied_srg(rng: random.Random, max_states: int = 16, markings: int = 2) -> Srg:
    """A synthetic graph whose states are copies of the nodes of a small
    random base graph, each base node marking one of ``markings`` places.
    A copy of a base node steps to at least one copy of each of its base
    successors and to nothing else, so copies of one base node are
    bisimilar, and base nodes sharing a marking may or may not be. The
    initial state is random."""
    nodes = rng.randint(2, 6)
    places = [Place(f"q{i}", i) for i in range(markings)]
    net = WftcNet(places=places, transitions=[Transition("t", 0)], start="q0", end=f"q{markings - 1}")
    label = [rng.randrange(markings) for _ in range(nodes)]
    base = [[v for v in range(nodes) if rng.random() < 1.5 / nodes] for _ in range(nodes)]
    # the first copies are the base nodes themselves, in order
    origin = list(range(nodes)) + [rng.randrange(nodes) for _ in range(rng.randint(0, max_states - nodes))]
    copies = [[s for s, u in enumerate(origin) if u == v] for v in range(nodes)]
    srg = Srg(net=net, mode=CONSTRAINED)
    for u in origin:
        srg.states.append(StateC(tuple(int(p == label[u]) for p in range(markings)), (), (), ()))
        srg.pseudo.append(False)
    for s, u in enumerate(origin):
        for v in base[u]:
            for dst in rng.sample(copies[v], rng.randint(1, len(copies[v]))):
                srg.edges.append((s, "t", dst))
    srg.initial = rng.randrange(len(origin))
    return srg.finish()
