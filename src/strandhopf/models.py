"""Theories and power counting for stranded graphs.

A theory fixes an enumeration class (map, coloured or generic), a set of
dressed vertex types with weights, an edge weight per strand degree, and
the face weight ``dimension``.  The superficial degree of divergence is

    sum of vertex weights - sum of edge weights + dimension * faces

which is the authoritative definition; the matrix closed form below
reproduces it on connected single-trace map inputs, the tensorial closed
form on all connected coloured inputs (multi-trace vertex graphs enter
through an exact correction term), and both are checked against it in
the tests.

The jacket (Gurau) degrees of a graph, of its pinched closure and of
its boundary all come from one routine, ``_coloured_graph_degree``, on
a coloured graph: n colours, each matching the N nodes, colour 0 fixing
L of them.  A jacket is a cyclic order of the colours up to rotation
and reflection, (n-1)!/2 of them.  Per component and jacket four times
the genus is 4 - 2 (nodes + faces + boundary circles) + N n - L.  Each
colour pair is adjacent in (n-2)! jackets, colour 0 sits between a
given pair of other colours in (n-3)!, and the rest adds up over the K
components, so four times the degree is

    (n-1)!/2 (4K - 2N + N n - L) - 2 (n-2)! F - 2 (n-3)! C,

F the faces summed over the colour pairs and C the boundary circles
over the pairs of non-zero colours: one union-find and one cycle walk
per colour pair.  The closure adds one node per fixed node, so no capped
graph is built.  ``classify`` reads every report field from one residue
view and one strand colouring per component.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import floor

from .graphs import (GraphError, OneGraph, _connected_groups,
                     connected_components, euler_characteristic,
                     internal_face_count, is_bridgeless, is_connected,
                     _residue_view, _walk_faces, _Frozen, _Value)
from . import iso, series
from .series import DressedType, _memo_on_type


# ---------------------------------------------------------------------------
# vertex type builders


def polygon_type(n, weight=0, name=""):
    """Oriented n-gon vertex type (matrix theories): n slots of strand
    degree two, through-strands joining consecutive slots."""
    if n < 1:
        raise GraphError("polygon needs at least one slot")
    slots = [f"p{k}" for k in range(n)]
    hs = [f"p{k}.i" for k in range(n)] + [f"p{k}.o" for k in range(n)]
    attach = {f"p{k}.i": f"p{k}" for k in range(n)}
    attach.update({f"p{k}.o": f"p{k}" for k in range(n)})
    pairing = {}
    for k in range(n):
        a, b = f"p{k}.o", f"p{(k + 1) % n}.i"
        pairing[a] = b
        pairing[b] = a
    g = OneGraph(slots, hs, attach, pairing)
    orient = tuple(sorted([(f"p{k}.i", 0) for k in range(n)]
                          + [(f"p{k}.o", 1) for k in range(n)]))
    return DressedType(g, Fraction(weight), 0, None, None, orient,
                       name or f"P{n}")


def dipole_type(r, weight=0, name=""):
    """Rank-r dipole: two slots of opposite parity joined by all colours."""
    slots = ["b", "w"]
    hs = [f"{x}.{c}" for x in slots for c in range(1, r + 1)]
    attach = {f"{x}.{c}": x for x in slots for c in range(1, r + 1)}
    pairing = {}
    for c in range(1, r + 1):
        a, b = f"w.{c}", f"b.{c}"
        pairing[a] = b
        pairing[b] = a
    g = OneGraph(slots, hs, attach, pairing)
    colour = tuple(sorted((h, int(h.split(".")[1])) for h in hs))
    parity = (("b", 1), ("w", 0))
    return DressedType(g, Fraction(weight), 0, colour, parity, None,
                       name or f"D{r}")


def melonic_quartic_type(r, transmit=1, weight=0, name=""):
    """Rank-r melonic quartic: four slots, the ``transmit`` colour crosses
    between the two dipole halves, all other colours stay within them."""
    slots = ["b1", "b2", "w1", "w2"]
    hs = [f"{x}.{c}" for x in slots for c in range(1, r + 1)]
    attach = {f"{x}.{c}": x for x in slots for c in range(1, r + 1)}
    pairing = {}

    def pair(a, b):
        pairing[a] = b
        pairing[b] = a

    for c in range(1, r + 1):
        if c == transmit:
            pair(f"w1.{c}", f"b2.{c}")
            pair(f"w2.{c}", f"b1.{c}")
        else:
            pair(f"w1.{c}", f"b1.{c}")
            pair(f"w2.{c}", f"b2.{c}")
    g = OneGraph(slots, hs, attach, pairing)
    colour = tuple(sorted((h, int(h.split(".")[1])) for h in hs))
    parity = (("b1", 1), ("b2", 1), ("w1", 0), ("w2", 0))
    return DressedType(g, Fraction(weight), 0, colour, parity, None,
                       name or f"Q{r}c{transmit}")


def double_dipole_type(r, weight=0, name=""):
    """Rank-r multi-trace quartic: two disjoint dipoles forming a single
    vertex type (its through-strand graph is disconnected)."""
    slots = ["b1", "b2", "w1", "w2"]
    hs = [f"{x}.{c}" for x in slots for c in range(1, r + 1)]
    attach = {f"{x}.{c}": x for x in slots for c in range(1, r + 1)}
    pairing = {}
    for c in range(1, r + 1):
        for i in ("1", "2"):
            a, b = f"w{i}.{c}", f"b{i}.{c}"
            pairing[a] = b
            pairing[b] = a
    g = OneGraph(slots, hs, attach, pairing)
    colour = tuple(sorted((h, int(h.split(".")[1])) for h in hs))
    parity = (("b1", 1), ("b2", 1), ("w1", 0), ("w2", 0))
    return DressedType(g, Fraction(weight), 0, colour, parity, None,
                       name or f"DD{r}")


def vertex_weight_tensorial(d, r, zeta, n_slots):
    """Tuned tensorial vertex weight: d_r - (n/2)(d_r - zeta) for a vertex
    with n slots, where d_r = d(r-1)."""
    d_r = Fraction(d) * (r - 1)
    return d_r - Fraction(n_slots, 2) * (d_r - Fraction(zeta))


# ---------------------------------------------------------------------------
# theories


class Theory(_Frozen):
    """Enumeration class, vertex types, and power counting weights;
    ``edge_weights`` is ((strand degree, weight), ...)."""

    _fields = ("name", "klass", "dimension", "types", "edge_weights", "rank",
               "zeta")

    def __init__(self, name, klass, dimension, types, edge_weights,
                 rank=None, zeta=None):
        self._set_fields(name, klass, dimension, types, edge_weights, rank,
                         zeta)

    def dressed_types(self):
        return list(self.types)

    def edge_weight(self, strand_degree):
        for k, w in self.edge_weights:
            if k == strand_degree:
                return w
        raise GraphError(f"no edge weight for strand degree {strand_degree}")

    def vertex_weight(self, code):
        """The weight of the vertex type whose vertex graph has 1-graph
        code ``code``."""
        try:
            return self._weights_by_code()[code]
        except KeyError:
            raise GraphError("vertex type not in the theory") from None

    @_memo_on_type
    def _weights_by_code(self):
        """Each type's plain code mapped to its weight, the first type in
        theory order winning; memoized on the theory object."""
        weights = {}
        for dt in self.types:
            weights.setdefault(dt.plain_code(), dt.weight)
        return weights

    def max_interaction_order(self):
        """Largest external-leg count of a divergent boundary in the tuned
        tensorial regime, floor(2 d_r / (d_r - zeta)); None for maps."""
        if self.rank is None or self.zeta is None:
            return None
        d_r = Fraction(self.dimension) * (self.rank - 1)
        if d_r <= self.zeta:
            return None
        return floor(Fraction(2) * d_r / (d_r - self.zeta))


def gw4_theory():
    """Matrix model with quartic and quadratic polygon vertices, face
    weight two, edge weight one (a 4d Moyal-type matrix theory)."""
    return Theory("gw4", "map", Fraction(2),
                  (polygon_type(2, 0, "P2"), polygon_type(4, 0, "P4")),
                  ((2, Fraction(1)),))


def bgr_theory():
    """Rank-4 tensorial theory with weight-2 propagator: dipole, melonic
    quartic and multi-trace double-dipole vertices at tuned weights."""
    d, r, zeta = Fraction(1), 4, Fraction(2)
    return Theory("bgr", "coloured", d,
                  (dipole_type(r, vertex_weight_tensorial(d, r, zeta, 2)),
                   melonic_quartic_type(
                       r, 1, vertex_weight_tensorial(d, r, zeta, 4)),
                   double_dipole_type(
                       r, vertex_weight_tensorial(d, r, zeta, 4))),
                  ((r, zeta),), rank=r, zeta=zeta)


def mq3_theory():
    """Rank-3 melonic quartic theory with the standard propagator."""
    d, r, zeta = Fraction(1), 3, Fraction(1)
    return Theory("mq3", "coloured", d,
                  (dipole_type(r, vertex_weight_tensorial(d, r, zeta, 2)),
                   melonic_quartic_type(
                       r, 1, vertex_weight_tensorial(d, r, zeta, 4))),
                  ((r, zeta),), rank=r, zeta=zeta)


def generic_matrix_theory():
    """The gw4 vertex set opened up to arbitrary strand pairings."""
    t = gw4_theory()
    return Theory("gw4-generic", "generic", t.dimension, t.types,
                  t.edge_weights)


PRESETS = {
    "gw4": gw4_theory,
    "bgr": bgr_theory,
    "mq3": mq3_theory,
    "gw4-generic": generic_matrix_theory,
}


def preset(name):
    try:
        return PRESETS[name]()
    except KeyError:
        raise GraphError(f"unknown preset {name!r}; have "
                         + ", ".join(sorted(PRESETS)))


# ---------------------------------------------------------------------------
# superficial degree and geometric degrees


def superficial_degree(theory, G):
    """Vertex weights minus edge weights plus dimension times internal
    faces; each vertex is weighed by the code of its vertex graph, read
    from ``iso.vertex_classes``."""
    total = Fraction(0)
    for code, _ in iso.vertex_classes(G):
        total += theory.vertex_weight(code)
    for a, b in G.edge_pairs():
        total -= theory.edge_weight(G.strand_degree(a))
    total += Fraction(theory.dimension) * internal_face_count(G)
    return total


def genus(G):
    """Genus from the Euler relation, summed over connected components.

    Each half-edge must carry exactly two sections.  A half-integer or
    negative result (pinched or twisted gluings, multi-trace vertices)
    raises GraphError.
    """
    return sum(_genus(comp, _strand_classes(_residue_view(comp)[1]))
               for comp in connected_components(G))


def _genus(G, k):
    """``genus`` of a connected ``G`` with ``k`` boundary components."""
    if any(G.strand_degree(h) != 2 for h in G.half_edges):
        raise GraphError("genus needs strand degree two everywhere")
    g, odd = divmod(2 - k - euler_characteristic(G), 2)
    if odd or g < 0:
        raise GraphError("no orientable surface realizes this graph")
    return g


def infer_colouring(G):
    """Assign colours 1..r to the strand sections so that sections paired
    by either involution share a colour and each half-edge sees every
    colour once.  Raises GraphError when no proper colouring exists.

    The faces are walked on the integer view and numbered in the order of
    ``faces(G)``, internal first, which fixes the colouring found."""
    degs = {G.strand_degree(h) for h in G.half_edges}
    if not degs:
        return {}
    if len(degs) != 1:
        raise GraphError("mixed strand degrees cannot be coloured")
    r = degs.pop()
    _, _, mu, _, _ = view = G.view()
    chains = sorted(_walk_faces(view), key=lambda f: f[0] == "external")
    nfaces = len(chains)
    face_of = [0] * len(mu)
    for k, (_, chain) in enumerate(chains):
        for s in chain:
            face_of[s] = k
    at_half = [[] for _ in view.nu]
    for s, h in enumerate(mu):
        at_half[h].append(face_of[s])
    conflict = [set() for _ in range(nfaces)]
    for fs in at_half:
        if len(set(fs)) != len(fs):
            raise GraphError("a face repeats a half-edge; not colourable")
        for a, b in itertools.combinations(fs, 2):
            conflict[a].add(b)
            conflict[b].add(a)
    colour_of = {}
    order = sorted(range(nfaces), key=lambda f: -len(conflict[f]))

    def assign(i):
        if i == nfaces:
            return True
        f = order[i]
        used = {colour_of[g] for g in conflict[f] if g in colour_of}
        for c in range(1, r + 1):
            if c not in used:
                colour_of[f] = c
                if assign(i + 1):
                    return True
                del colour_of[f]
        return False

    if not assign(0):
        raise GraphError("no proper strand colouring exists")
    return {s: colour_of[f] for s, f in zip(G.strands, face_of)}


def _coloured_graph_degree(match, ends=(), circles=None):
    """Total jacket genus of the graph on the nodes 0..N-1 whose edges of
    colour c are the pairs of ``match[c]``, a list over the nodes, each
    jacket's boundary circles filled by discs, by the closed form of the
    module docstring.

    Colour 0 may fix the nodes in ``ends``.  A face run of colours 0 and
    c that starts at an end stops at an end; such runs close into
    boundary circles through ``circles[c]``, a list over range(len(ends))
    that joins the k-th end to the end its colour-c run reaches.  With at
    most two colours the degree is zero: by convention for one colour,
    and exactly for two."""
    n = len(match)
    if n <= 2:
        return Fraction(0)
    nodes = len(match[0])
    k = len(_connected_groups(range(nodes), (
        (x, y) for m in match for x, y in enumerate(m) if x < y)))
    n_faces = sum(_cycle_count(match[b], match[a], ends if a == 0 else ())
                  for a, b in itertools.combinations(range(n), 2))
    n_circles = sum(_cycle_count(circles[a], circles[b]) for a, b in
                    itertools.combinations(range(1, n), 2)) if ends else 0
    f = math.factorial
    return Fraction(f(n - 1) // 2 * (4 * k - 2 * nodes + nodes * n - len(ends))
                    - 2 * f(n - 2) * n_faces - 2 * f(n - 3) * n_circles, 4)


def _cycle_count(ma, mb, ends=()):
    """Closed cycles that alternate the matchings ``ma`` and ``mb``, lists
    over the same nodes.  The runs from the nodes in ``ends``, all the
    nodes ``mb`` fixes, are walked first and do not count."""
    seen = [False] * len(ma)
    count = 0
    for x in itertools.chain(ends, range(len(ma))):
        if not seen[x]:
            count += mb[x] != x
            while not seen[x]:
                seen[x] = True
                x = ma[x]
                seen[x] = True
                x = mb[x]
    return count


def _jacket_graphs(G, col, residue):
    """The coloured graphs whose jacket degrees are those of ``G`` (open),
    of its pinched closure and of its boundary, as argument tuples of
    ``_coloured_graph_degree``, made on positions from one set of colour
    matchings under the strand colouring ``col``; ``residue`` is
    ``graphs._residue_view(G)``.

    The half-edge positions of ``G`` are the nodes; colour 0 pairs them
    along edges and fixes the external half-edges (the legs, kept by the
    residue), colours 1..r pair them along through-strands, and the
    boundary's colour-c matching (the residue's ``sigma1``) pairs the
    legs along the external faces of colour c.  The pinched closure caps
    every boundary component with one vertex carrying its vertex graph:
    one new node per leg, after ``G``'s, joined to its leg by colour 0 and
    to the other new nodes by colour c as the boundary joins the legs."""
    _, iota, mu, s1, _ = G.view()
    (_, legs, kept), bview = residue
    r = G.strand_degree(G.half_edges[0]) if G.strands else 0
    cols = [col[s] for s in G.strands]
    n = len(iota)
    match = [iota] + [[None] * n for _ in range(r)]
    for s, c in enumerate(cols):
        match[c][mu[s]] = mu[s1[s]]
    circles = [None] + [[None] * len(legs) for _ in range(r)]
    at, pair = bview.mu, bview.sigma1
    for k, s in enumerate(kept):
        circles[cols[s]][at[k]] = at[pair[k]]
    capped = list(iota) + legs
    for k, h in enumerate(legs):
        capped[h] = n + k
    closed = [capped] + [m + [n + x for x in c]
                         for m, c in zip(match[1:], circles[1:])]
    return (match, legs, circles), (closed,), (circles[1:],)


def gurau_degree(G, colouring=None):
    """Total jacket genus of a closed uniformly stranded graph: the
    ``open_jacket_degree`` of a graph without external half-edges."""
    if G.external_half_edges():
        raise GraphError("gurau_degree needs a closed graph; cap it first")
    return open_jacket_degree(G, colouring)


def boundary_gurau_degree(G, colouring=None):
    """Total jacket genus of the boundary of an open graph, coloured by
    the strand colours of ``G``; zero when the boundary has at most two
    strand colours."""
    col = infer_colouring(G) if colouring is None else colouring
    return _coloured_graph_degree(
        *_jacket_graphs(G, col, _residue_view(G))[2])


def gurau_degree_open(G):
    """(degree of the pinched closure, degree of the boundary).

    The closure caps every boundary component at once with a single new
    vertex, so its degree can exceed the jacket-by-jacket degree of
    ``open_jacket_degree``; both are reported so the gap stays visible.
    """
    _, closed, bounding = _jacket_graphs(G, infer_colouring(G),
                                         _residue_view(G))
    return _coloured_graph_degree(*closed), _coloured_graph_degree(*bounding)


def _strand_classes(view, edges=()):
    """The number of classes of half-edge positions of a view joined by
    its through-strands and by the pairs ``edges`` (one union-find).  With
    no edges: the bubbles of a graph's view, or the boundary components of
    its ``_residue_view``.  With ``iota``: the incidence components, more
    than the connected ones when a vertex graph is multi-trace."""
    mu = view.mu
    return len(_connected_groups(range(len(view.nu)), itertools.chain(
        edges, ((mu[s], mu[t]) for s, t in enumerate(view.sigma1)))))


def open_jacket_degree(G, colouring=None):
    """Total genus of the jackets of a uniformly stranded graph, open or
    closed, with each jacket's boundary circles filled by discs (see
    ``_jacket_graphs`` for its coloured graph).  Additive over incidence
    components; zero without strands.  On a closed graph this is the
    Gurau degree."""
    col = infer_colouring(G) if colouring is None else colouring
    return _coloured_graph_degree(
        *_jacket_graphs(G, col, _residue_view(G))[0])


# ---------------------------------------------------------------------------
# closed forms


def _matrix_form(theory, G):
    """(matrix closed form, the invariants it reads)."""
    d = Fraction(theory.dimension)
    k = _strand_classes(_residue_view(G)[1])
    inv = v_ext, k, g, slot_sum, V = (
        len(G.external_half_edges()), k,
        _genus(G, k) if is_connected(G) else genus(G), len(G.half_edges),
        len(G.vertices))
    return (-d * (V - 1) + (d - 1) / 2 * (slot_sum - v_ext)
            - d * (2 * g + k - 1)), inv


def matrix_degree_closed_form(theory, G):
    """Matrix-theory closed form of the superficial degree, in terms of
    genus, boundary components and slot counts.  Exact for connected
    single-trace map-like graphs."""
    return _matrix_form(theory, G)[0]


def _tensorial_form(theory, G):
    """(tensorial closed form, the invariants it reads)."""
    if theory.rank is None or theory.zeta is None:
        raise GraphError("theory has no tensorial data")
    d = Fraction(theory.dimension)
    r = theory.rank
    d_r = d * (r - 1)
    residue = _residue_view(G)
    opened, _, bounding = _jacket_graphs(G, infer_colouring(G), residue)
    wg = _coloured_graph_degree(*opened)
    wb = _coloured_graph_degree(*bounding)
    inv = v_ext, k, wg, wb, excess, n_inc = (
        len(residue[0][1]), _strand_classes(residue[1]), wg, wb,
        len(G.vertices) - _strand_classes(G.view()),
        _strand_classes(G.view(), enumerate(G.view().iota)) or 1)
    jackets = Fraction(math.factorial(r - 1))
    return (d_r - (d_r - theory.zeta) / 2 * v_ext
            - d * ((wg - wb) * 2 / jackets + k - 1)
            + d_r * excess + (d_r + d) * (n_inc - 1)), inv


def tensorial_degree_closed_form(theory, G):
    """Tensorial closed form of the superficial degree via Gurau degrees
    of the open graph and of its boundary.

    On a connected graph with single-trace vertex graphs this is
    d_r - (d_r - zeta)/2 V_ext - d(2(wg - wb)/(r-1)! + K - 1).  Vertex
    graphs with several components shift the face count by exactly
    d_r(V - B) + (d_r + d)(C - 1), with B the total bubble count and C
    the number of incidence components, so that correction is included
    and the form stays equal to the face-count degree."""
    return _tensorial_form(theory, G)[0]


# ---------------------------------------------------------------------------
# divergence reports


class DivergenceReport(_Value):
    _fields = ("code", "n_vertices", "n_edges", "n_internal_faces",
               "n_external", "boundary_code", "degree", "divergent",
               "bridgeless", "genus", "gurau", "gurau_capped",
               "boundary_gurau")

    def __init__(self, code, n_vertices, n_edges, n_internal_faces,
                 n_external, boundary_code, degree, divergent, bridgeless,
                 genus=None, gurau=None, gurau_capped=None,
                 boundary_gurau=None):
        self.code, self.n_vertices, self.n_edges = code, n_vertices, n_edges
        self.n_internal_faces, self.n_external = n_internal_faces, n_external
        self.boundary_code, self.degree = boundary_code, degree
        self.divergent, self.bridgeless = divergent, bridgeless
        self.genus, self.gurau = genus, gurau
        self.gurau_capped, self.boundary_gurau = gurau_capped, boundary_gurau


def classify(theory, G):
    """Per-component divergence report list."""
    return _classify(theory, _boundaries(G))


def _boundaries(G):
    """Each connected component of ``G`` with its residue view and the
    ``iso._union_components`` of that view (its boundary's), built once."""
    out = []
    for comp in connected_components(G):
        residue = _residue_view(comp)
        out.append((comp, residue, iso._union_components(residue[1])))
    return out


def _classify(theory, parts):
    """The divergence report of each component of ``_boundaries``, read
    from its residue view with no residue or boundary graph built, and
    from ``_jacket_graphs`` under one strand colouring."""
    out = []
    for comp, residue, bparts in parts:
        deg = superficial_degree(theory, comp)
        bridgeless = is_bridgeless(comp)
        rep = DivergenceReport(
            iso.canonical_code(comp), len(comp.vertices), comp.n_edges(),
            internal_face_count(comp), len(residue[0][1]),
            iso._one_class(bparts)[0], deg,
            deg >= 0 and comp.n_edges() > 0 and bridgeless, bridgeless)
        try:
            rep.genus = _genus(comp, len(bparts))
        except GraphError:
            pass
        try:
            rep.gurau, rep.gurau_capped, rep.boundary_gurau = (
                _coloured_graph_degree(*args) for args in
                _jacket_graphs(comp, infer_colouring(comp), residue))
        except GraphError:
            pass
        out.append(rep)
    return out


def divergent_set(theory, max_edges):
    """Connected bridgeless open diagrams with at least one edge and
    non-negative superficial degree, up to the edge bound.  Vacuum
    diagrams are excluded: divergences are counted per Green's function.
    """
    ts = series.enumerate_diagrams(theory, max_edges, connected=True)
    out = []
    for term in ts.terms:
        g = term.graph
        if (term.n_edges == 0 or not g.external_half_edges()
                or not is_bridgeless(g)):
            continue
        deg = superficial_degree(theory, g)
        if deg >= 0:
            out.append((g, deg))
    return out


class RenormalizabilityReport(_Value):
    _fields = ("theory", "max_edges", "n_checked", "n_divergent",
               "max_external", "order_bound", "closed_form_mismatches",
               "invariant_clashes", "passed")

    def __init__(self, theory, max_edges, n_checked, n_divergent,
                 max_external, order_bound, closed_form_mismatches,
                 invariant_clashes, passed):
        self.theory, self.max_edges = theory, max_edges
        self.n_checked, self.n_divergent = n_checked, n_divergent
        self.max_external, self.order_bound = max_external, order_bound
        self.closed_form_mismatches = closed_form_mismatches
        self.invariant_clashes, self.passed = invariant_clashes, passed


def renormalizability_check(theory, max_edges):
    """Check on every enumerated connected diagram that the face-count
    degree agrees with the closed form of the theory's class and that it
    is a function of the closed-form invariants alone; profile the
    divergent set against the theory's interaction-order bound."""
    ts = series.enumerate_diagrams(theory, max_edges, connected=True)
    closed_form = None
    if theory.klass == "map":
        closed_form = _matrix_form
    elif theory.rank is not None and theory.zeta is not None:
        closed_form = _tensorial_form
    mismatches = []
    invariant_clashes = []
    by_invariants = {}
    n_div = 0
    max_ext = 0
    for term in ts.terms:
        g = term.graph
        if term.n_edges == 0:
            continue
        deg = superficial_degree(theory, g)
        if deg >= 0 and g.external_half_edges() and is_bridgeless(g):
            n_div += 1
            max_ext = max(max_ext, len(g.external_half_edges()))
        if closed_form is None:
            continue
        try:
            cf, key = closed_form(theory, g)
        except GraphError:
            continue
        if cf != deg:
            mismatches.append((term.code, deg, cf))
            continue
        # the closed form is a function of these invariants only, so
        # equal keys must give equal degrees
        prev = by_invariants.get(key)
        if prev is None:
            by_invariants[key] = (deg, term.code)
        elif prev[0] != deg:
            invariant_clashes.append((key, prev[1], term.code,
                                      prev[0], deg))
    bound = theory.max_interaction_order()
    passed = (not mismatches and not invariant_clashes
              and (bound is None or max_ext <= bound))
    return RenormalizabilityReport(theory.name, max_edges, len(ts.terms),
                                   n_div, max_ext,
                                   bound if bound is not None else -1,
                                   mismatches, invariant_clashes, passed)
