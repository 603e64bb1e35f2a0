import random
from concurrent.futures import ThreadPoolExecutor
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


def requirement_texts() -> list[str]:
    """The formulas of ``requirements.dctl``, one per non-comment line."""
    lines = (line.strip() for line in fixture_text("requirements.dctl").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


# every quantifier prefix form, ``{}`` standing for the matrix or operand
# that the next level nests into
PREFIX_SHAPES = [
    "(forall v in R, [{}])",
    "((forall v in R), [{}])",
    "((exists v in R,), {})",
    "forall v in R, [{}]",
    "(exists v in R, {})",
    "E((forall v in R), [{} U p2])",
    "E(exists v in R, [{} U p2])",
    "A((forall v in R), [p2 U {}])",
    "(forall v in R, [{}] & p1)",
    "E(forall v in R, [{}] U p2)",
]
# the most levels of one prefix form that a formula may nest
PREFIX_LEVELS = 159


def deepest_prefix(shape: str, matrix: str = "v.Id != empty") -> str:
    text = matrix
    for _ in range(PREFIX_LEVELS):
        text = shape.format(text)
    return text


def on_fresh_stack(fn, *args):
    """``fn(*args)`` on a new thread, whose stack starts about as empty as
    a command's does. A formula nested as deep as the parser accepts fits
    in Python's recursion limit from there, but not from inside a test's
    call stack. Exceptions propagate."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


# a formula whose record variable reads two schema attributes
RECORD_READS = "AG((forall r in R), [r.Id = empty | r.License != empty])"


def formula_seeds(net) -> list[str]:
    """Accepted formula texts over ``motivating.wftc``: the requirements,
    the five metrics, ``RECORD_READS`` and every prefix form nested as deep
    as it may."""
    from wftc.dctl import metric_formulas

    texts = requirement_texts() + list(metric_formulas(net).values()) + [RECORD_READS]
    return texts + [deepest_prefix(shape) for shape in PREFIX_SHAPES]


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
