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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .graphs import (GraphError, OneGraph, TwoGraph, _connected_groups,
                     _label_key, boundary, connected_components, faces,
                     internal_face_count, is_bridgeless, vertex_graph)
from . import iso, series
from .series import DressedType


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


@dataclass(frozen=True)
class Theory:
    """Enumeration class, vertex types, and power counting weights."""

    name: str
    klass: str
    dimension: Fraction
    types: tuple
    edge_weights: tuple   # ((strand degree, weight), ...)
    rank: int = None
    zeta: Fraction = None

    def dressed_types(self):
        return list(self.types)

    def edge_weight(self, strand_degree):
        for k, w in self.edge_weights:
            if k == strand_degree:
                return w
        raise GraphError(f"no edge weight for strand degree {strand_degree}")

    def vertex_weight(self, gamma):
        code = iso.one_graph_code(gamma)
        for dt in self.types:
            if dt.plain_code() == code:
                return dt.weight
        raise GraphError("vertex type not in the theory")

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
    faces."""
    total = Fraction(0)
    for v in G.vertices:
        total += theory.vertex_weight(vertex_graph(G, v))
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
    for h in G.half_edges:
        if G.strand_degree(h) != 2:
            raise GraphError("genus needs strand degree two everywhere")
    total = Fraction(0)
    for comp in connected_components(G):
        chi = (len(comp.vertices) - comp.n_edges()
               + internal_face_count(comp))
        k = len(boundary(comp).components())
        g = Fraction(2 - k - chi, 2)
        if g.denominator != 1 or g < 0:
            raise GraphError("no orientable surface realizes this graph")
        total += g
    return int(total)


def infer_colouring(G):
    """Assign colours 1..r to the strand sections so that sections paired
    by either involution share a colour and each half-edge sees every
    colour once.  Raises GraphError when no proper colouring exists."""
    degs = {G.strand_degree(h) for h in G.half_edges}
    if not degs:
        return {}
    if len(degs) != 1:
        raise GraphError("mixed strand degrees cannot be coloured")
    r = degs.pop()
    internal, external = faces(G)
    face_of = {}
    for k, f in enumerate(internal + external):
        for s in f.sections:
            face_of[s] = k
    nfaces = len(internal) + len(external)
    at_half = {h: [] for h in G.half_edges}
    for s in G.strands:
        at_half[G.mu[s]].append(face_of[s])
    conflict = [set() for _ in range(nfaces)]
    for h, fs in at_half.items():
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
    return {s: colour_of[face_of[s]] for s in G.strands}


def cap_boundary(G):
    """Close an open graph by pinching: one new vertex per connected
    boundary component, carrying that component's vertex graph, glued to
    the external half-edges by the identity strand pairing.  Every
    external face closes and no new internal structure appears."""
    ext = G.external_half_edges()
    if not ext:
        return G
    b = boundary(G)
    vertices = list(G.vertices)
    half_edges = list(G.half_edges)
    strands = list(G.strands)
    nu = dict(G.nu)
    mu = dict(G.mu)
    iota = dict(G.iota)
    s1 = dict(G.sigma1)
    s2 = dict(G.sigma2)
    for i, comp in enumerate(sorted(b.components(), key=lambda c:
                                    min(_label_key(v) for v in c))):
        cap = f"cap:{i}"
        vertices.append(cap)
        for h in comp:
            hh = f"cap:{h}"
            half_edges.append(hh)
            nu[hh] = cap
            iota[h] = hh
            iota[hh] = h
            for s in b.corolla(h):
                ss = f"cap:{s}"
                strands.append(ss)
                mu[ss] = hh
                s2[s] = ss
                s2[ss] = s
        for s in b.half_edges:
            if b.attach[s] in comp:
                s1[f"cap:{s}"] = f"cap:{b.pairing[s]}"
    return TwoGraph(vertices, half_edges, strands, nu, mu, iota, s1, s2)


def _cyclic_orders(colours):
    """Cyclic orders of the colour set up to rotation and reflection."""
    colours = sorted(colours)
    if len(colours) <= 2:
        return [tuple(colours)]
    first = colours[0]
    rest = colours[1:]
    out = []
    for perm in itertools.permutations(rest):
        if perm[0] < perm[-1]:
            out.append((first,) + perm)
    return out


def _coloured_graph_degree(nodes, match_by_colour):
    """Total jacket genus of a properly edge-coloured graph given one
    perfect matching per colour."""
    colours = sorted(match_by_colour)
    if len(colours) <= 2:
        return Fraction(0)
    # split into connected components first
    pairs = (p for m in match_by_colour.values() for p in m.items())

    # four times the total genus, so that every step stays an integer:
    # a jacket has chi = v - v * n_colours / 2 + faces
    quarters = 0
    n_colours = len(colours)
    jackets = _cyclic_orders(colours)
    for members in _connected_groups(nodes, pairs):
        v = len(members)
        faces = {}   # (a, b) -> faces of colours a, b, shared by jackets
        for cyc in jackets:
            fj = 0
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                if (a, b) not in faces:
                    faces[a, b] = _count_cycles_in(
                        members, match_by_colour[a], match_by_colour[b])
                fj += faces[a, b]
            quarters += 4 - 2 * (v + fj) + v * n_colours
    return Fraction(quarters, 4)


def _count_cycles_in(members, ma, mb, ends=()):
    """Closed cycles among ``members`` that alternate the matchings ``ma``
    and ``mb``.  Runs that start at a node in ``ends`` are walked first and
    do not count; they stop where ``ma`` reaches a node in ``ends``."""
    seen = set()
    count = 0
    for n in itertools.chain((h for h in members if h in ends), members):
        if n in seen:
            continue
        if n not in ends:
            count += 1
        cur = n
        while True:
            seen.add(cur)
            cur = ma[cur]
            seen.add(cur)
            if cur in ends:
                break
            cur = mb[cur]
            if cur == n:
                break
    return count


def _colour_matchings(sections, attach, pair, col, r):
    """One matching of carriers per colour 1..r: each ``pair``-joined
    couple of sections of a colour matches their ``attach`` carriers."""
    match = {c: {} for c in range(1, r + 1)}
    for s in sections:
        match[col[s]][attach[s]] = attach[pair[s]]
    return match


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
    b = boundary(G)
    if not b.vertices:
        return Fraction(0)
    r = G.strand_degree(G.half_edges[0])
    match = _colour_matchings(b.half_edges, b.attach, b.pairing, col, r)
    return _coloured_graph_degree(list(b.vertices), match)


def gurau_degree_open(G):
    """(degree of the pinched closure, degree of the boundary).

    The closure value caps every boundary component at once with a single
    new vertex, so it can exceed the jacket-by-jacket degree of
    ``open_jacket_degree``; both are reported so the gap stays visible.
    """
    col = infer_colouring(G)
    if not G.external_half_edges():
        return gurau_degree(G, col), Fraction(0)
    cap_col = dict(col)
    for h in G.external_half_edges():
        for s in G.strands_at(h):
            cap_col[f"cap:{s}"] = col[s]
    return (gurau_degree(cap_boundary(G), cap_col),
            boundary_gurau_degree(G, col))


def _incidence_components(G):
    """Half-edge classes connected through edges or through-strands.

    A multi-trace vertex graph does not tie its components together, so
    this can be finer than the vertex-level component split."""
    strand_pairs = ((G.mu[s], G.mu[G.sigma1[s]]) for s in G.strands)
    return _connected_groups(G.half_edges,
                             itertools.chain(G.iota.items(), strand_pairs))


def open_jacket_degree(G, colouring=None):
    """Total genus of the jackets of a uniformly stranded graph, open or
    closed, with each jacket's boundary circles filled by discs.

    Half-edges are the nodes; colour 0 pairs them along edges, stopping
    at external half-edges, and colours 1..r pair them along
    through-strands.  Per jacket (cyclic order of the r+1 colours up to
    rotation and reflection) the face runs that involve colour 0 and hit
    the boundary assemble into boundary circles by following the two
    colours adjacent to 0.  Additive over incidence components; zero
    without strands.  On a closed graph this is the Gurau degree."""
    if not G.strands:
        return Fraction(0)
    col = infer_colouring(G) if colouring is None else colouring
    r = G.strand_degree(G.half_edges[0])
    match = _colour_matchings(G.strands, G.mu, G.sigma1, col, r)
    externals = set(G.external_half_edges())
    if externals:
        b = boundary(G)
        pcol = _colour_matchings(b.half_edges, b.attach, b.pairing, col, r)
    # four times the total genus, so that every step stays an integer:
    # a jacket has chi = n - (e0 + n * r / 2) + faces
    quarters = 0
    jackets = _cyclic_orders(range(r + 1))
    for members in _incidence_components(G):
        n = len(members)
        e0 = sum(1 for h in members if G.iota[h] != h) // 2
        legs = [h for h in members if h in externals]
        # face runs per colour pair and boundary circles per (ca, cb),
        # each counted once and shared by the jackets that have them; a
        # pair is keyed as its count is called, (c, 0) for colours c and 0
        faces, circles = {}, {}
        for cyc in jackets:
            fj = 0
            for i in range(len(cyc)):
                a, bcol = cyc[i], cyc[(i + 1) % len(cyc)]
                pair = (a or bcol, 0) if 0 in (a, bcol) else (a, bcol)
                if pair not in faces:
                    x, y = pair
                    faces[pair] = (
                        _count_cycles_in(members, match[x], match[y]) if y
                        else _count_cycles_in(members, match[x], G.iota,
                                              externals))
                fj += faces[pair]
            if legs:
                i0 = cyc.index(0)
                ca, cb = cyc[i0 - 1], cyc[(i0 + 1) % len(cyc)]
                if (ca, cb) not in circles:
                    circles[ca, cb] = _count_cycles_in(legs, pcol[ca],
                                                       pcol[cb])
                bj = circles[ca, cb]
            else:
                bj = 0
            quarters += 4 - 2 * (bj + n - e0 + fj) + n * r
    return Fraction(quarters, 4)


# ---------------------------------------------------------------------------
# closed forms


def matrix_degree_closed_form(theory, G):
    """Matrix-theory closed form of the superficial degree, in terms of
    genus, boundary components and slot counts.  Exact for connected
    single-trace map-like graphs."""
    d = Fraction(theory.dimension)
    V = len(G.vertices)
    v_ext = len(G.external_half_edges())
    k = len(boundary(G).components())
    g = genus(G)
    slot_sum = len(G.half_edges)
    return (-d * (V - 1) + (d - 1) / 2 * (slot_sum - v_ext)
            - d * (2 * g + k - 1))


def tensorial_degree_closed_form(theory, G):
    """Tensorial closed form of the superficial degree via Gurau degrees
    of the open graph and of its boundary.

    On a connected graph with single-trace vertex graphs this is
    d_r - (d_r - zeta)/2 V_ext - d(2(wg - wb)/(r-1)! + K - 1).  Vertex
    graphs with several components shift the face count by exactly
    d_r(V - B) + (d_r + d)(C - 1), with B the total bubble count and C
    the number of incidence components, so that correction is included
    and the form stays equal to the face-count degree."""
    if theory.rank is None or theory.zeta is None:
        raise GraphError("theory has no tensorial data")
    d = Fraction(theory.dimension)
    r = theory.rank
    d_r = d * (r - 1)
    col = infer_colouring(G)
    v_ext = len(G.external_half_edges())
    k = len(boundary(G).components())
    wg = open_jacket_degree(G, col)
    wb = boundary_gurau_degree(G, col)
    jackets = Fraction(math.factorial(r - 1))
    bubbles = sum(len(vertex_graph(G, v).components()) for v in G.vertices)
    n_inc = len(_incidence_components(G)) if G.half_edges else 1
    return (d_r - (d_r - theory.zeta) / 2 * v_ext
            - d * ((wg - wb) * 2 / jackets + k - 1)
            + d_r * (len(G.vertices) - bubbles)
            + (d_r + d) * (n_inc - 1))


# ---------------------------------------------------------------------------
# divergence reports


@dataclass
class DivergenceReport:
    code: str
    n_vertices: int
    n_edges: int
    n_internal_faces: int
    n_external: int
    boundary_code: str
    degree: Fraction
    divergent: bool
    bridgeless: bool
    genus: int = None
    gurau: Fraction = None
    gurau_capped: Fraction = None
    boundary_gurau: Fraction = None


def classify(theory, G):
    """Per-component divergence report list."""
    out = []
    for comp in connected_components(G):
        deg = superficial_degree(theory, comp)
        bridgeless = is_bridgeless(comp)
        rep = DivergenceReport(
            iso.canonical_code(comp), len(comp.vertices), comp.n_edges(),
            internal_face_count(comp), len(comp.external_half_edges()),
            iso.one_graph_code(boundary(comp)), deg,
            deg >= 0 and comp.n_edges() > 0 and bridgeless, bridgeless)
        try:
            rep.genus = genus(comp)
        except GraphError:
            pass
        try:
            col = infer_colouring(comp)
            capped, wb = gurau_degree_open(comp)
            rep.gurau = open_jacket_degree(comp, col)
            rep.gurau_capped = capped
            rep.boundary_gurau = wb
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


@dataclass
class RenormalizabilityReport:
    theory: str
    max_edges: int
    n_checked: int
    n_divergent: int
    max_external: int
    order_bound: int
    closed_form_mismatches: list
    invariant_clashes: list
    passed: bool


def renormalizability_check(theory, max_edges):
    """Check on every enumerated connected diagram that the face-count
    degree agrees with the closed form of the theory's class and that it
    is a function of the closed-form invariants alone; profile the
    divergent set against the theory's interaction-order bound."""
    ts = series.enumerate_diagrams(theory, max_edges, connected=True)
    closed_form = None
    if theory.klass == "map":
        closed_form = matrix_degree_closed_form
    elif theory.rank is not None and theory.zeta is not None:
        closed_form = tensorial_degree_closed_form
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
            cf = closed_form(theory, g)
        except GraphError:
            continue
        if cf != deg:
            mismatches.append((term.code, deg, cf))
            continue
        # the closed forms are functions of these invariants only, so
        # equal keys must give equal degrees
        if theory.klass == "map":
            key = (len(g.external_half_edges()),
                   len(boundary(g).components()), genus(g),
                   len(g.half_edges), len(g.vertices))
        else:
            col = infer_colouring(g)
            wg = open_jacket_degree(g, col)
            wb = boundary_gurau_degree(g, col)
            bubbles = sum(len(vertex_graph(g, v).components())
                          for v in g.vertices)
            key = (len(g.external_half_edges()),
                   len(boundary(g).components()), wg, wb,
                   len(g.vertices) - bubbles, len(_incidence_components(g)))
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
