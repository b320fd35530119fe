"""Renormalization Hopf algebra of stranded graphs.

The algebra is the polynomial ring on isomorphism classes of connected
2-graphs, with the classes of edgeless graphs (residues) made group-like
and formally inverted.  Elements are stored as rational combinations of
monomials; a monomial maps canonical codes to integer exponents, negative
exponents being reserved for residue codes.

The coproduct sums over wide subgraphs, pairing each subgraph (as a
product of its connected components) with the contraction by it.  The
antipode follows the usual triangular recursion, using a residue inverse
in place of division by the group-like part.

Renormalization works for any character into Laurent polynomials and any
Rota-Baxter projection; the toy minimal-subtraction character sends a
superficially divergent graph of degree ``w`` to ``z**-(w+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import TwoGraph, connected_components, residue
from .iso import canonical_code
from .rewrite import subgraphs


# ---------------------------------------------------------------------------
# Laurent polynomials in one formal variable


class LaurentPoly:
    """Immutable Laurent polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v:
                    d[int(k)] = v
        self.coeffs = d

    @classmethod
    def constant(cls, c):
        return cls({0: Fraction(c)})

    @classmethod
    def z_power(cls, k, c=1):
        return cls({k: Fraction(c)})

    def __add__(self, other):
        other = _as_poly(other)
        d = dict(self.coeffs)
        for k, v in other.coeffs.items():
            d[k] = d.get(k, Fraction(0)) + v
        return LaurentPoly(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        d = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                d[k] = d.get(k, Fraction(0)) + v1 * v2
        return LaurentPoly(d)

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


REGISTRY = {}


def intern_graph(G):
    """Canonical code of ``G``; a representative is kept for decoding."""
    code = canonical_code(G)
    REGISTRY.setdefault(code, G)
    return code


def graph_of_code(code):
    return REGISTRY[code]


UNIT_MONOMIAL = ()


def el_zero():
    return {}


def el_unit(c=1):
    c = Fraction(c)
    return {UNIT_MONOMIAL: c} if c else {}


def _el_of_components(G, exponent, c):
    mono = {}
    for comp in connected_components(G):
        code = intern_graph(comp)
        mono[code] = mono.get(code, 0) + exponent
    return {tuple(sorted(mono.items())): Fraction(c)}


def el_graph(G, c=1):
    """The element of a (possibly disconnected) graph: the product of its
    connected components' classes."""
    return _el_of_components(G, 1, c)


def el_residue_inverse(G, c=1):
    """Formal inverse of the residue class of ``G`` (graph must be
    edgeless)."""
    if G.n_edges():
        raise ValueError("inverses exist for edgeless classes only")
    return _el_of_components(G, -1, c)


def el_add(a, b):
    out = dict(a)
    for m, c in b.items():
        c2 = out.get(m, Fraction(0)) + c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def el_scale(a, c):
    c = Fraction(c)
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
            c = out.get(m, Fraction(0)) + c1 * c2
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


# tensor elements: dict[(mono_left, mono_right)] -> Fraction


def _tens_mono_mul(t1, t2):
    return (_mono_mul(t1[0], t2[0]), _mono_mul(t1[1], t2[1]))


def tens_mul(a, b):
    return _product(a, b, _tens_mono_mul)


# ---------------------------------------------------------------------------
# structure maps


_COPRODUCT_CACHE = {}


def coproduct(G):
    """Coproduct of a graph class: sum over wide subgraphs of
    (subgraph components) tensor (contraction)."""
    code = intern_graph(G)
    if code in _COPRODUCT_CACHE:
        return _COPRODUCT_CACHE[code]
    out = {}
    for sub in subgraphs(G):
        left = el_graph(sub.materialize())
        right = el_graph(sub.contract())
        (lm, lc), = left.items()
        (rm, rc), = right.items()
        key = (lm, rm)
        out[key] = out.get(key, Fraction(0)) + lc * rc
    _COPRODUCT_CACHE[code] = out
    return out


def coproduct_of_monomial(mono):
    """Multiplicative extension of the coproduct to a monomial; inverted
    residue classes stay group-like."""
    out = {(UNIT_MONOMIAL, UNIT_MONOMIAL): Fraction(1)}
    for code, e in mono:
        G = graph_of_code(code)
        if e < 0:
            m = ((code, -1),)
            t = {(m, m): Fraction(1)}
            for _ in range(-e):
                out = tens_mul(out, t)
        else:
            t = coproduct(G)
            for _ in range(e):
                out = tens_mul(out, t)
    return out


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
            return Fraction(0)
    return Fraction(1)


def counit(x):
    """Counit of an element (or a graph)."""
    if isinstance(x, TwoGraph):
        x = el_graph(x)
    total = Fraction(0)
    for mono, c in x.items():
        total += c * counit_of_monomial(mono)
    return total


_ANTIPODE_CACHE = {}


def antipode(G):
    """Antipode of a graph class as an algebra element.

    Edgeless classes are group-like, so their antipode is the formal
    inverse; otherwise the triangular recursion over proper subgraphs
    applies, multiplied by the inverse residue class.
    """
    if isinstance(G, TwoGraph):
        comps = connected_components(G)
        out = el_unit()
        for c in comps:
            out = el_mul(out, _antipode_connected(c))
        return out
    return antipode_of_element(G)


def _antipode_connected(G):
    code = intern_graph(G)
    if code in _ANTIPODE_CACHE:
        return _ANTIPODE_CACHE[code]
    if G.n_edges() == 0:
        out = el_residue_inverse(G)
        _ANTIPODE_CACHE[code] = out
        return out
    total = el_zero()
    for sub in subgraphs(G):
        if sub.is_full:
            continue
        left = el_unit()
        for comp in connected_components(sub.materialize()):
            left = el_mul(left, _antipode_connected(comp))
        total = el_add(total, el_mul(left, el_graph(sub.contract())))
    out = el_scale(el_mul(total, el_residue_inverse(residue(G))), -1)
    _ANTIPODE_CACHE[code] = out
    return out


def antipode_of_element(el):
    out = el_zero()
    for mono, c in el.items():
        term = el_unit(c)
        for code, e in mono:
            G = graph_of_code(code)
            if e < 0:
                s = el_graph(G)
                for _ in range(-e):
                    term = el_mul(term, s)
            else:
                s = _antipode_connected(G)
                for _ in range(e):
                    term = el_mul(term, s)
        out = el_add(out, term)
    return out


# ---------------------------------------------------------------------------
# characters and renormalization


class Character:
    """Algebra morphism into Laurent polynomials, defined by its values on
    connected graphs and extended multiplicatively."""

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


def convolve(phi, psi):
    """Convolution product of two characters."""
    def fn(G):
        total = LaurentPoly()
        for (lm, rm), c in coproduct(G).items():
            term = LaurentPoly.constant(c)
            for code, e in lm:
                term = term * phi.on_code(code, e)
            for code, e in rm:
                term = term * psi.on_code(code, e)
            total = total + term
        return total
    return Character(fn, name=f"({phi.name}*{psi.name})")


def character_inverse(phi):
    """Inverse for convolution: composition with the antipode."""
    return Character(lambda G: phi.on_element(antipode(G)),
                     name=f"{phi.name}^-1")


def identity_character():
    return Character(lambda G: LaurentPoly.constant(1), name="one")


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
        self._ct = {}

    def counterterm_connected(self, G):
        code = intern_graph(G)
        if code in self._ct:
            return self._ct[code]
        if G.n_edges() == 0:
            out = LaurentPoly.constant(1)
        else:
            out = -self.R(self._subgraph_sum(G, proper=True))
        self._ct[code] = out
        return out

    def _subgraph_sum(self, G, proper):
        """Sum over the subgraphs of ``G`` (the proper ones with
        ``proper``) of the counterterms of the subgraph's components times
        ``phi`` of the contraction."""
        total = LaurentPoly()
        for sub in subgraphs(G):
            if proper and sub.is_full:
                continue
            term = LaurentPoly.constant(1)
            for comp in connected_components(sub.materialize()):
                term = term * self.counterterm_connected(comp)
            term = term * self.phi(sub.contract())
            total = total + term
        return total

    def counterterm(self, G):
        out = LaurentPoly.constant(1)
        for comp in connected_components(G):
            out = out * self.counterterm_connected(comp)
        return out

    def renormalized(self, G):
        """Convolution of the counterterm character with ``phi``; pole-free
        when ``R`` is the minimal-subtraction projection."""
        return self._subgraph_sum(G, proper=False)


def clear_caches():
    """Reset the registry and memo tables (mainly for tests)."""
    REGISTRY.clear()
    _COPRODUCT_CACHE.clear()
    _ANTIPODE_CACHE.clear()
