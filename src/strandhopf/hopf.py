"""Renormalization Hopf algebra of stranded graphs.

The algebra is the polynomial ring on isomorphism classes of connected
2-graphs, with the classes of edgeless graphs (residues) made group-like
and formally inverted.  Elements are sparse rational combinations of
monomials; a monomial maps canonical codes to integer exponents, negative
exponents being reserved for residue codes.  Laurent polynomials are the
same kind of combination keyed by integer exponents, so both share one
add, scale and product.  The helpers keep whatever coefficients they are
given: the coproduct, the antipode and the counit are integer valued, so
their tables and elements hold ``int`` coefficients (an ``int`` compares,
hashes and prints like the equal ``Fraction``), and a ``Fraction`` enters
only with a rational coefficient a caller passes.  ``LaurentPoly`` keeps
``Fraction`` coefficients.

The coproduct sums over wide subgraphs, pairing each subgraph (as a
product of its connected components) with the contraction by it, and
expands one subgraph per orbit of the class's automorphisms.  A term is
read from the edge set of its subgraph on the integer view of the
class's representative (``graphs.View``), its edges as half-edge
position pairs: the components (pieces) come from a union-find over
vertex positions, and a piece, a vertex set with the edges inside it, is
built as a view by the piece builder only the first time it occurs in
the expansion (a dict local to the call); the contraction builder walks
the representative's own strands.  Each view is canonized as it is (its
positional key, the search memo's first key), so a term needs no
labelled graph: one is materialized, with the representative's labels,
only for a class new to ``REGISTRY``, which it then represents.  Two
terms of a connected class are known without a view: in ``vertices (x)
Gamma`` the contraction by the empty subgraph is the class itself, and
in ``Gamma (x) residue`` the full subgraph's only piece is the class
itself.  The antipode follows the usual triangular recursion, using a
residue inverse in place of division by the group-like part; it reads
the residue from the table's ``Gamma (x) residue`` term and builds no
graph.  Both are memoized by class code (``functools.cache``;
``cache_info()`` gives their size and hit rate).  ``REGISTRY`` is not a
memo: it gives the codes held by elements their meaning, so it is never
cleared.  A disconnected graph is the product of its components'
classes, so its coproduct is the product of their tables (the coproduct
is an algebra morphism) and no union graph is built or registered for
it; its components, like those of the contractions of a union interned
as it is, come from the view split (``graphs._split_view``).

Renormalization works for any character into Laurent polynomials and any
Rota-Baxter projection; the toy minimal-subtraction character sends a
superficially divergent graph of degree ``w`` to ``z**-(w+1)``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .graphs import (TwoGraph, _connected_groups, _contracted_view,
                     _edge_positions, _groups, _known_connected,
                     _materialized, _piece_view, _pieces, _split_view)
from .iso import _half_edge_generators, _view_entry, canonical_code


# ---------------------------------------------------------------------------
# Laurent polynomials in one formal variable


class LaurentPoly:
    """Immutable Laurent polynomial: Fraction coefficients keyed by integer
    exponents, added and multiplied by the element helpers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = el_add({}, {int(k): Fraction(v)
                                  for k, v in (coeffs or {}).items()})

    @classmethod
    def constant(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def z_power(cls, k, c=1):
        return cls({k: Fraction(c)})

    def __add__(self, other):
        return LaurentPoly(el_add(self.coeffs, _as_poly(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(el_scale(self.coeffs, -1))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        return LaurentPoly(_product(self.coeffs, _as_poly(other).coeffs,
                                    operator.add))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        out = LaurentPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def invert(self):
        if len(self.coeffs) != 1:
            raise ValueError("only monomial Laurent polynomials invert")
        (k, v), = self.coeffs.items()
        return LaurentPoly({-k: Fraction(1) / v})

    def pole_part(self):
        return LaurentPoly({k: v for k, v in self.coeffs.items() if k < 0})

    def regular_part(self):
        return LaurentPoly({k: v for k, v in self.coeffs.items() if k >= 0})

    def has_pole(self):
        return any(k < 0 for k in self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: Fraction(1)}

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            if k == 0:
                bits.append(f"{v}")
            elif k == 1:
                bits.append(f"{v}*z")
            else:
                bits.append(f"{v}*z^{k}")
        return " + ".join(bits)

    def to_json(self):
        return {str(k): [v.numerator, v.denominator]
                for k, v in sorted(self.coeffs.items())}


def _as_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.constant(x)


def ms_projection(p):
    """Minimal-subtraction projection: keep the strictly negative powers.
    This is a Rota-Baxter operator of weight -1."""
    return p.pole_part()


# ---------------------------------------------------------------------------
# elements and registry


REGISTRY = {}   # code -> representative; decodes codes, so never evicted


def intern_graph(G):
    """Canonical code of ``G``, registering its class on first sight; the
    class is represented (for ``graph_of_code``) by the first graph
    interned under its code.  Elements hold connected codes only
    (``el_graph`` interns a graph's components); a disconnected ``G``
    given here is registered as it is, and ``_coproduct`` expands it like
    any other."""
    code = canonical_code(G)
    REGISTRY.setdefault(code, G)
    return code


def graph_of_code(code):
    return REGISTRY[code]


UNIT_MONOMIAL = ()


def el_zero():
    return {}


def el_unit(c=1):
    return {UNIT_MONOMIAL: c} if c else {}


def el_graph(G, c=1):
    """The element of a (possibly disconnected) graph: the product of its
    connected components' classes.  A connected ``G`` is interned as it
    is; the components of a disconnected one are canonized on the view
    split (``_split_view``) and materialized only for a new class."""
    if len(_groups(G)) == 1:
        return {((intern_graph(G), 1),): c}
    return {_monomial([_interned(G, kept, view)
                       for kept, view in _split_view(G)]): c}


def _monomial(codes):
    """The monomial of the product of the classes ``codes``."""
    mono = {}
    for code in codes:
        mono[code] = mono.get(code, 0) + 1
    return tuple(sorted(mono.items()))


def _interned(G, kept, view):
    """The class code of the connected graph with integer view ``view``
    on the positions ``kept`` of ``G``, looked up on the view.  Its graph
    is materialized (``graphs._materialized``) and interned only when the
    code is new to ``REGISTRY``, with the (code, |Aut|) pair of the entry
    in hand, so it is not keyed again."""
    code, aut = _view_entry(len(kept[0]), view)[:2]
    if code not in REGISTRY:
        g = _materialized(G, kept, view, True)
        g.derived.canon = code, aut
        intern_graph(g)
    return code


def el_add(a, b):
    out = dict(a)
    for m, c in b.items():
        c2 = out.get(m, 0) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def el_scale(a, c):
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def _mono_mul(m1, m2):
    d = dict(m1)
    for code, e in m2:
        e2 = d.get(code, 0) + e
        if e2:
            d[code] = e2
        else:
            d.pop(code, None)
    return tuple(sorted(d.items()))


def _product(a, b, mono_mul):
    """Bilinear product of two combinations given the product of their
    monomials."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def el_mul(a, b):
    return _product(a, b, _mono_mul)


def el_eq(a, b):
    return {m: c for m, c in a.items() if c} == {m: c for m, c in b.items()
                                                 if c}


# tensor elements: dict[(mono_left, mono_right)] -> coefficient


def _tens_mono_mul(t1, t2):
    return (_mono_mul(t1[0], t2[0]), _mono_mul(t1[1], t2[1]))


def tens_mul(a, b):
    return _product(a, b, _tens_mono_mul)


# ---------------------------------------------------------------------------
# structure maps


def coproduct(G):
    """Coproduct of a graph: sum over wide subgraphs of (subgraph
    components) tensor (contraction), the product of its components'
    tables (see ``coproduct_of_monomial``), as a dict of the caller's
    own."""
    (mono, _), = el_graph(G).items()
    return dict(coproduct_of_monomial(mono))


@functools.cache
def _coproduct(code):
    """The coproduct table of a class, expanded on the integer view of its
    representative.

    A subgraph is a set of edges, half-edge position pairs, and the
    subgraphs come in the order of ``rewrite.subgraphs``.  An automorphism
    maps a wide subgraph and its contraction onto those of its image, so
    a subgraph in the orbit of an earlier one under the representative's
    automorphisms (the generators of its search memo entries, acting on
    its edge sets) adds the same term.  Only the first subgraph of each
    orbit is expanded, and its term counts once per member; the keys and
    their order are those of expanding every subgraph.  The left side is
    the product of the subgraph's pieces; a piece that an earlier
    subgraph already had is looked up in ``built`` instead of being built
    again.  A class new to ``REGISTRY`` is registered by the same graph,
    in the same order, as interning every piece and contraction would
    register (``_interned``).

    On a connected representative two terms are known without a view:
    the full subgraph's only piece is the representative itself
    (``built`` starts with it), and the contraction by the empty subgraph
    is the representative again, so its right side is the class itself.
    A disconnected representative (a union given to ``intern_graph``) has
    neither shortcut, and its contractions are split into components by
    the view split."""
    G = graph_of_code(code)
    nv, view = len(G.vertices), G.view()
    edges = _edge_positions(view)
    subs = {frozenset(h for edge in chosen for h in edge): chosen
            for k in range(len(edges) + 1)
            for chosen in itertools.combinations(edges, k)}
    links = [(halves, frozenset(m.get(h, h) for h in halves))
             for m in _half_edge_generators(G) for halves in subs]
    built, out = {}, {}   # built: (vertices, edges inside) -> class code
    connected = _known_connected(G)
    if connected:
        built[tuple(range(nv)), tuple(edges)] = code
    for orbit in _connected_groups(subs, links):
        chosen = subs[orbit[0]]
        left = []
        for piece in _pieces(nv, view, chosen):
            if piece not in built:
                built[piece] = _interned(G, *_piece_view(view, *piece))
            left.append(built[piece])
        if connected and not chosen:
            right = ((code, 1),)
        else:
            kept, contracted = _contracted_view(nv, view, chosen)
            right = _monomial(
                [_interned(G, kept, contracted)] if connected else
                [_interned(G, *part)
                 for part in _split_view(G, kept, contracted)])
        key = (_monomial(left), right)
        out[key] = out.get(key, 0) + len(orbit)
    return out


def coproduct_of_monomial(mono):
    """Multiplicative extension of the coproduct to a monomial; inverted
    residue classes stay group-like.  The product starts from the first
    factor's table, so a single class gets its cached table itself, which
    callers must not change."""
    out = None
    for code, e in mono:
        if e < 0:
            m = ((code, -1),)
            t = {(m, m): 1}
        else:
            t = _coproduct(code)
        for _ in range(abs(e)):
            out = t if out is None else tens_mul(out, t)
    return {(UNIT_MONOMIAL, UNIT_MONOMIAL): 1} if out is None else out


def coproduct_of_element(el):
    out = {}
    for mono, c in el.items():
        out = el_add(out, {k: v * c
                           for k, v in coproduct_of_monomial(mono).items()})
    return out


def counit_of_monomial(mono):
    """1 on products of residue classes (and their inverses), else 0."""
    for code, _ in mono:
        if graph_of_code(code).n_edges():
            return 0
    return 1


def counit(x):
    """Counit of an element (or a graph)."""
    if isinstance(x, TwoGraph):
        x = el_graph(x)
    return sum(c * counit_of_monomial(mono) for mono, c in x.items())


def antipode(G):
    """Antipode of a graph class as an algebra element.

    Edgeless classes are group-like, so their antipode is the formal
    inverse; otherwise the triangular recursion over the proper coproduct
    terms applies, multiplied by the inverse residue class.
    """
    if isinstance(G, TwoGraph):
        G = el_graph(G)
    return antipode_of_element(G)


@functools.cache
def _antipode(code):
    """The antipode of a class, from its coproduct table alone.

    The full subgraph's term, the class tensor its residue, comes last in
    the table, and its right side is the residue monomial, so the inverse
    residue is that monomial with its exponents negated: no residue graph
    is built.  For a disconnected representative (a union given to
    ``intern_graph``) that term's left side is the product of the
    components, and the recursion gives the product of their antipodes."""
    if graph_of_code(code).n_edges() == 0:
        return {((code, -1),): 1}
    *proper, ((_, residue_mono), _) = _coproduct(code).items()
    total = el_zero()
    for (lm, rm), c in proper:
        total = el_add(total, el_mul(antipode_of_element({lm: c}), {rm: 1}))
    inverse = tuple((r, -e) for r, e in residue_mono)
    return el_scale(el_mul(total, {inverse: 1}), -1)


def antipode_of_element(el):
    out = el_zero()
    for mono, c in el.items():
        term = el_unit(c)
        for code, e in mono:
            # the antipode of an inverted residue is the residue itself
            s = {((code, 1),): 1} if e < 0 else _antipode(code)
            for _ in range(abs(e)):
                term = el_mul(term, s)
        out = el_add(out, term)
    return out


# ---------------------------------------------------------------------------
# characters and renormalization


class Character:
    """Algebra morphism into Laurent polynomials, defined by its values on
    connected graphs and extended multiplicatively.  The values are kept
    per character by class code (``_memo``): they belong to this
    character, not to the class."""

    def __init__(self, fn, name="phi"):
        self.fn = fn
        self.name = name
        self._memo = {}

    def on_connected(self, G):
        code = intern_graph(G)
        if code not in self._memo:
            self._memo[code] = _as_poly(self.fn(G))
        return self._memo[code]

    def on_code(self, code, e=1):
        val = self.on_connected(graph_of_code(code))
        if e < 0:
            return val.invert() ** (-e)
        return val ** e

    def on_element(self, el):
        total = LaurentPoly()
        for mono, c in el.items():
            term = LaurentPoly.constant(c)
            for code, e in mono:
                term = term * self.on_code(code, e)
            total = total + term
        return total

    def __call__(self, x):
        if isinstance(x, TwoGraph):
            return self.on_element(el_graph(x))
        return self.on_element(x)


def _convolution_sum(phi, psi, G, proper=False):
    """Sum of ``phi`` (x) ``psi`` over the coproduct terms of ``G``; with
    ``proper`` the term ``G`` (x) residue is left out."""
    (full, _), = el_graph(G).items()
    total = LaurentPoly()
    for (lm, rm), c in coproduct_of_monomial(full).items():
        if not (proper and lm == full):
            total = total + phi.on_element({lm: c}) * \
                psi.on_element({rm: 1})
    return total


def convolve(phi, psi):
    """Convolution product of two characters."""
    return Character(lambda G: _convolution_sum(phi, psi, G),
                     name=f"({phi.name}*{psi.name})")


def character_inverse(phi):
    """Inverse for convolution: composition with the antipode."""
    return Character(lambda G: phi.on_element(antipode(G)),
                     name=f"{phi.name}^-1")


def toy_ms_character(degree_fn):
    """Toy minimal-subtraction Feynman rules: a connected graph with at
    least one edge and superficial degree w >= 0 maps to z**-(w+1), and
    everything else to 1."""
    def fn(G):
        if G.n_edges() == 0:
            return LaurentPoly.constant(1)
        w = degree_fn(G)
        if w < 0:
            return LaurentPoly.constant(1)
        return LaurentPoly.z_power(-(int(w) + 1))
    return Character(fn, name="phi_ms")


class Renormalization:
    """Counterterm and renormalized value for a character ``phi`` and a
    Rota-Baxter projection ``R`` (default: minimal subtraction)."""

    def __init__(self, phi, R=ms_projection):
        self.phi = phi
        self.R = R
        self.counterterms = Character(self._counterterm_value,
                                      name=f"S_R[{phi.name}]")

    def _counterterm_value(self, G):
        if G.n_edges() == 0:
            return LaurentPoly.constant(1)
        return -self.R(_convolution_sum(self.counterterms, self.phi, G,
                                        proper=True))

    def counterterm_connected(self, G):
        return self.counterterms.on_connected(G)

    def counterterm(self, G):
        return self.counterterms(G)

    def renormalized(self, G):
        """Convolution of the counterterm character with ``phi``; pole-free
        when ``R`` is the minimal-subtraction projection."""
        return _convolution_sum(self.counterterms, self.phi, G)
