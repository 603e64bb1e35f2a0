import gc
import random
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import pytest

from wftc import CONSTRAINED, UNCONSTRAINED, build_srg, parse_model
from wftc import dctl as ast
from wftc.model import WftcNet
from wftc.srg import Arcs, Srg, StateC


def fixture_path(name: str):
    return resources.files("wftc") / "fixtures" / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def table_model(n: int) -> str:
    """``motivating.wftc`` with the ``User`` rows ``idK, licenseK, copyK``
    for K = 1..n."""
    rows = "".join(f"  id{k}, license{k}, copy{k}\n" for k in range(1, n + 1))
    return fixture_text("motivating.wftc").replace("  id1, license1, copy1\n  id2, license2, copy2\n", rows)


# the names each copy of ``motivating.wftc`` renames in ``parallel_model``:
# places, transitions, predicates, guards and data items; table constants
# such as ``id2`` and ``license1`` keep theirs
_COPIED_NAMES = re.compile(r"\b(p\d+|t\d+|pi\d+|g\d+|id|password|license|copy)\b")


def parallel_model(k: int) -> str:
    """Net-k: ``k`` copies of ``motivating.wftc`` between a fork ``ps -> tf``
    and a join ``tj -> pe``. Copy i names its nodes, items, predicates and
    guards with the suffix ``_i``, and all copies share one ``User`` table."""
    sections, body = {}, []
    for line in fixture_text("motivating.wftc").splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("["):
            header, _, line = line.partition("]")
            body = sections[header + "]"] = []
        body.append(line)
    forks = " ".join(f"tf->p0_{i} p13_{i}->tj" for i in range(1, k + 1))
    shared = {"[PLACES]": "ps pe", "[TRANSITIONS]": "tf tj", "[ARCS]": f"ps->tf tj->pe {forks}"}
    shared |= {"[INITIAL]": "ps", "[FINAL]": "pe"}
    parts = []
    for header, lines in sections.items():
        if header == "[TABLE]":
            copies = lines
        elif header in ("[INITIAL]", "[FINAL]"):
            copies = []
        else:
            copies = [_COPIED_NAMES.sub(rf"\1_{i}", line) for i in range(1, k + 1) for line in lines]
        parts.append("\n".join([f"{header} {shared.get(header, '')}", *copies]))
    return "\n".join(parts) + "\n"


def retained_bytes(text: str, mode: str):
    """``(bytes, graph)``: the bytes tracemalloc sees still held once the
    graph of model ``text`` is built in ``mode``, which are the graph and
    what the build left on its net; the net is parsed before tracing."""
    net = parse_model(text)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        srg = build_srg(net, mode)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, srg
    finally:
        tracemalloc.stop()


def bitset(states) -> int:
    """The bitset of some state ids, in the form ``sat`` takes and returns:
    bit i stands for state i."""
    return sum(1 << i for i in set(states))


def marked_places(state: StateC, net: WftcNet) -> list[str]:
    """The places that hold a token in ``state``, in declaration order."""
    return [p for p, tokens in zip(net.places, state.marking) if tokens > 0]


def sigma_map(state: StateC, net: WftcNet) -> dict:
    """The guard values of ``state`` by guard name."""
    return dict(zip(net.guards, state.sigma))


def formula_text(node) -> str:
    """A formula tree written back as text that ``parse_dctl`` reads."""
    if isinstance(node, ast.TrueF):
        return "true"
    if isinstance(node, ast.PlaceAtom):
        return node.place
    if isinstance(node, ast.DataAtom):
        return f"{term_text(node.lhs)} {node.op} {term_text(node.rhs)}"
    if isinstance(node, ast.Quantifier):
        return f"{node.kind} {node.var} in R, [{formula_text(node.body)}]"
    if isinstance(node, ast.Not):
        return f"!({formula_text(node.inner)})"
    if isinstance(node, ast.And):
        return f"({formula_text(node.lhs)} & {formula_text(node.rhs)})"
    if isinstance(node, ast.Or):
        return f"({formula_text(node.lhs)} | {formula_text(node.rhs)})"
    if isinstance(node, ast.EX):
        return f"EX ({formula_text(node.inner)})"
    if isinstance(node, ast.EG):
        return f"EG ({formula_text(node.inner)})"
    if isinstance(node, ast.EU):
        return f"E(({formula_text(node.lhs)}) U ({formula_text(node.rhs)}))"
    return f"A(({formula_text(node.lhs)}) U ({formula_text(node.rhs)}))"


def term_text(term) -> str:
    if term[0] == "empty":
        return "empty"
    if term[0] == "attr":
        return f"{term[1]}.{term[2]}"
    return term[1]


def arcs_of(net: WftcNet, arcs) -> Arcs:
    """A graph's arc store over ``net`` holding the ``(src, name, dst)``
    triples of ``arcs``, in order."""
    store = Arcs(net.transitions)
    for arc in arcs:
        store.append(arc)
    return store


def arc_lists(srg: Srg) -> tuple[list[list[int]], list[list[int]]]:
    """Per state, the targets of its arcs and the sources of the arcs into
    it, one entry per arc of ``srg.edges``, in edge order."""
    post: list[list[int]] = [[] for _ in srg.states]
    pre: list[list[int]] = [[] for _ in srg.states]
    for src, _, dst in srg.edges:
        post[src].append(dst)
        pre[dst].append(src)
    return post, pre


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


# the five metric formulas of ``motivating.wftc`` written out as text
METRIC_TEXTS = {
    "PM1": "EX((forall id1 in R, forall id2 in R), [id1 != id2 -> id1.license1 < id2.license2])",
    "PM2": "AG((forall r1 in R, forall r2 in R), [r1 != r2 -> r1.Id != r2.Id])",
    "PM3": "EF p13",
    "PM4": "AX((exists id1 in R), [id1.copy1 != empty])",
    "PM5": "E((forall id3 in R), [id3 != empty U id3.license3 = empty])",
}


def formula_seeds() -> list[str]:
    """Accepted formula texts over ``motivating.wftc``: the requirements,
    the five metrics, ``RECORD_READS`` and every prefix form nested as deep
    as it may."""
    texts = requirement_texts() + list(METRIC_TEXTS.values()) + [RECORD_READS]
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
    place atoms select single states. The initial state is random. Every
    arc is labelled ``t``; the net also declares ``u`` for arcs added later."""
    n = rng.randint(2, max_states)
    places = [f"q{i}" for i in range(n)]
    net = WftcNet(places=places, transitions=["t", "u"], start="q0", end=f"q{n - 1}")
    states = [StateC(tuple(1 if j == i else 0 for j in range(n)), (), (), ()) for i in range(n)]
    arcs = [(i, "t", j) for i in range(n) for j in range(n) if i != j and rng.random() < 2.5 / n]
    return Srg(net, CONSTRAINED, states, arcs_of(net, arcs), rng.randrange(n), [False] * n)


def make_copied_srg(rng: random.Random, max_states: int = 16, markings: int = 2) -> Srg:
    """A synthetic graph whose states are copies of the nodes of a small
    random base graph, each base node marking one of ``markings`` places.
    A copy of a base node steps to at least one copy of each of its base
    successors and to nothing else, so copies of one base node are
    bisimilar, and base nodes sharing a marking may or may not be. The
    initial state is random."""
    nodes = rng.randint(2, 6)
    places = [f"q{i}" for i in range(markings)]
    net = WftcNet(places=places, transitions=["t"], start="q0", end=f"q{markings - 1}")
    label = [rng.randrange(markings) for _ in range(nodes)]
    base = [[v for v in range(nodes) if rng.random() < 1.5 / nodes] for _ in range(nodes)]
    # the first copies are the base nodes themselves, in order
    origin = list(range(nodes)) + [rng.randrange(nodes) for _ in range(rng.randint(0, max_states - nodes))]
    copies = [[s for s, u in enumerate(origin) if u == v] for v in range(nodes)]
    states = [StateC(tuple(int(p == label[u]) for p in range(markings)), (), (), ()) for u in origin]
    arcs = []
    for s, u in enumerate(origin):
        for v in base[u]:
            for dst in rng.sample(copies[v], rng.randint(1, len(copies[v]))):
                arcs.append((s, "t", dst))
    return Srg(net, CONSTRAINED, states, arcs_of(net, arcs), rng.randrange(len(origin)), [False] * len(origin))
