"""Hypothesis strategies for small random graphs, fixed graph families and prime edges."""

from hypothesis import strategies as st

from leavitt import Graph
from leavitt.gfp import is_prime


@st.composite
def graphs(draw, max_vertices=5, max_edges=8, acyclic=False, min_vertices=0):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    vertices = tuple(f"v{i}" for i in range(n))
    if n == 0:
        return Graph((), ())
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for k in range(m):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if acyclic:
            if a == b:
                continue
            # index order is a topological order, so the result is a DAG
            a, b = min(a, b), max(a, b)
        edges.append((f"e{k}", f"v{a}", f"v{b}"))
    return Graph(vertices, tuple(edges))


# Names with a quote, a backslash, control characters and non-ASCII letters
# (escaped as \uXXXX, a surrogate pair beyond the BMP), and the empty name.
vertex_names = st.text(alphabet='ab"\\\t\x01é日\U0001d11e\u2028', max_size=3)
# The names a graph document accepts: none is empty or starts or ends with
# white space (a tab or U+2028 may sit inside), and none above holds a comma.
document_vertex_names = vertex_names.filter(lambda name: name and name == name.strip())


@st.composite
def graphs_with_named_vertices(draw, names=vertex_names):
    """A graph of :func:`graphs` whose vertices are renamed from ``names``."""
    g = draw(graphs(max_vertices=6, max_edges=8))
    labels = draw(st.lists(names, min_size=len(g.vertices), max_size=len(g.vertices), unique=True))
    rename = dict(zip(g.vertices, labels))
    return Graph(tuple(labels), tuple((e.name, rename[e.src], rename[e.dst]) for e in g.edges))


@st.composite
def graphs_with_subset(draw, max_vertices=5, max_edges=8, acyclic=False):
    g = draw(graphs(max_vertices=max_vertices, max_edges=max_edges, acyclic=acyclic))
    if not g.vertices:
        return g, frozenset()
    picks = draw(st.lists(st.sampled_from(sorted(g.vertices)), max_size=len(g.vertices)))
    return g, frozenset(picks)


def ring(n):
    """One cycle through ``n`` vertices; it has no exit."""
    return Graph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)),
    )


def diamond_chain(k):
    """``k`` diamonds in a row, a0 -> l0, r0 -> a1 -> ... -> ak: 2^k paths from
    a0 alone into the one sink ak, and 2^(k + 2) - 3 paths into it in all."""
    vertices = [f"a{i}" for i in range(k + 1)] + [f"{s}{i}" for i in range(k) for s in "lr"]
    edges = []
    for i in range(k):
        for s in "lr":
            edges += [(f"to-{s}{i}", f"a{i}", f"{s}{i}"), (f"from-{s}{i}", f"{s}{i}", f"a{i + 1}")]
    return Graph(tuple(vertices), tuple(edges))


def primes_around(bound):
    """The largest prime at most ``bound`` and the least prime above it."""
    below, above = bound, bound + 1
    while not is_prime(below):
        below -= 1
    while not is_prime(above):
        above += 1
    return below, above
