"""Independent brute-force oracles.

Everything here recomputes library results from the raw definitions,
without sharing code with the package: faces by chasing the two strand
involutions, automorphisms by enumerating label bijections, map genus
from the rotation data, canonical labellings by an individualization
search that visits every leaf.  Slow on purpose; only used on small
inputs.  The exceptions are references kept from earlier versions of
the package, which the faster code must equal: the rank refinement, the
1-graph isomorphism matcher that tries every permutation of every
corolla (``brute_one_graph_isos``, the reference for the isomorphisms
read from the canonization search), the growth level and coproduct
expansion before orbit reduction and the growth of every vertex
multiset from its disjoint union (these call the package's gluing,
dedup and interning), the face walk that sorts, orients and rotates
its chains afresh, the contraction that reads the external faces of
a materialized subgraph, the jacket degrees that count the faces of
every jacket afresh, and the pinched closure built as a 2-graph.  One
check compares the package with itself: ``inherited_view_mismatches``
holds every growth child, built from its parent's data, against a
fresh graph built from its maps.
"""

import itertools
from fractions import Fraction


def chain_face_counts(G):
    """(internal, external) face counts from the union of the two strand
    involutions: components are paths (external faces, the endpoints are
    the sigma2-fixed sections) or cycles (internal faces)."""
    parent = {s: s for s in G.strands}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for s in G.strands:
        union(s, G.sigma1[s])
        if G.sigma2[s] != s:
            union(s, G.sigma2[s])
    comps = {}
    for s in G.strands:
        comps.setdefault(find(s), []).append(s)
    internal = external = 0
    for members in comps.values():
        ends = [s for s in members if G.sigma2[s] == s]
        if ends:
            assert len(ends) == 2, "path component must have two endpoints"
            external += 1
        else:
            internal += 1
    return internal, external


def brute_one_graph_automorphism_count(g):
    """Pairs of bijections (vertices, half-edges) commuting with the
    attachment and pairing maps.  Half-edge candidates are enumerated
    fibre by fibre over the vertices, which is exhaustive because any
    attachment-equivariant bijection restricts to one on each fibre."""
    vs, hs = list(g.vertices), list(g.half_edges)
    at = {v: [h for h in hs if g.attach[h] == v] for v in vs}
    count = 0
    for pv in itertools.permutations(vs):
        jv = dict(zip(vs, pv))
        if any(len(at[v]) != len(at[jv[v]]) for v in vs):
            continue
        fibre_maps = []
        for v in vs:
            fibre_maps.append([list(zip(at[v], q))
                               for q in itertools.permutations(at[jv[v]])])
        for combo in itertools.product(*fibre_maps):
            jh = dict(p for part in combo for p in part)
            if any(jh[g.pairing[h]] != g.pairing[jh[h]] for h in hs):
                continue
            count += 1
    return count


def brute_one_graph_isos(g1, g2):
    """Yield all isomorphisms (vmap, hmap) from g1 onto g2: vertices in
    label order, each tried on every unused vertex of its degree with
    every permutation of that vertex's corolla, pairings checked as the
    half-edges get mapped."""
    from strandhopf.graphs import _label_key

    if len(g1.vertices) != len(g2.vertices) or \
            len(g1.half_edges) != len(g2.half_edges):
        return
    vs1 = sorted(g1.vertices, key=_label_key)
    by_deg = {}
    for w in g2.vertices:
        by_deg.setdefault(g2.degree(w), []).append(w)

    def extend(i, vmap, hmap, used_v):
        if i == len(vs1):
            for h, p in g1.pairing.items():
                if hmap[p] != g2.pairing[hmap[h]]:
                    return
            yield dict(vmap), dict(hmap)
            return
        v = vs1[i]
        cor1 = g1.corolla(v)
        for w in by_deg.get(len(cor1), []):
            if w in used_v:
                continue
            cor2 = g2.corolla(w)
            vmap[v] = w
            used_v.add(w)
            for perm in itertools.permutations(cor2):
                ok = True
                for h, k in zip(cor1, perm):
                    p = g1.pairing[h]
                    if p == h and g2.pairing[k] != k:
                        ok = False
                        break
                    if p != h and g2.pairing[k] == k:
                        ok = False
                        break
                if not ok:
                    continue
                for h, k in zip(cor1, perm):
                    hmap[h] = k
                for h, k in zip(cor1, perm):
                    p = g1.pairing[h]
                    if p in hmap and hmap[p] != g2.pairing[hmap[h]]:
                        ok = False
                        break
                if ok:
                    yield from extend(i + 1, vmap, hmap, used_v)
                for h in cor1:
                    hmap.pop(h, None)
            used_v.discard(w)
            vmap.pop(v, None)

    yield from extend(0, {}, {}, set())


def brute_insertions(H, G2):
    """The set of insertion maps (on_half_edges, on_strands) of ``H`` into
    ``G2`` from ``brute_one_graph_isos``: every bijection of the boundary
    components of ``H`` with the vertices of ``G2``, and every choice of
    one isomorphism of each boundary onto the vertex graph it is matched
    with; no code or canonization is read."""
    from strandhopf.graphs import (boundary, connected_components,
                                   vertex_graph)

    bds = [boundary(c) for c in connected_components(H)]
    vgs = [vertex_graph(G2, v) for v in G2.vertices]
    isos = {}
    hs, ss = H.external_half_edges(), H.external_strands()
    out = set()
    if len(bds) != len(vgs):
        return out
    for perm in itertools.permutations(range(len(vgs))):
        for i, j in enumerate(perm):
            if (i, j) not in isos:
                isos[i, j] = list(brute_one_graph_isos(bds[i], vgs[j]))
        for combo in itertools.product(*(isos[p] for p in enumerate(perm))):
            vmap, hmap = {}, {}
            for vm, hm in combo:
                vmap.update(vm)
                hmap.update(hm)
            out.add((tuple((h, vmap[h]) for h in hs),
                     tuple((s, hmap[s]) for s in ss)))
    return out


def _strand_extensions(G, jh, strand_colour=None):
    """Number of strand bijections compatible with a fixed half-edge
    bijection (and keeping ``strand_colour`` if given): fibre-by-fibre
    backtracking with incremental checks of the two strand involutions.
    Fibres are taken in depth-first order along edges and vertices, so
    the checks prune early under any labelling."""
    fibre = {h: [] for h in G.half_edges}
    for s in G.strands:
        fibre[G.mu[s]].append(s)
    order = []
    for root in sorted(G.half_edges, key=lambda h: (h.__class__.__name__, h)):
        todo = [root]
        while todo:
            h = todo.pop()
            if h in order:
                continue
            order.append(h)
            todo += [k for k in G.half_edges if G.nu[k] == G.nu[h]]
            todo.append(G.iota[h])

    def consistent(js, s):
        # involution equivariance on every pair fully inside the domain
        for inv in (G.sigma1, G.sigma2):
            t = inv[s]
            if t in js and inv[js[s]] != js[t]:
                return False
        return True

    def extend(i, js):
        if i == len(order):
            return 1
        h = order[i]
        src = fibre[h]
        dst = fibre[jh[h]]
        if len(src) != len(dst):
            return 0
        total = 0
        for perm in itertools.permutations(dst):
            trial = dict(js)
            ok = True
            for s, t in zip(src, perm):
                trial[s] = t
                if not consistent(trial, s) or (
                        strand_colour is not None
                        and strand_colour[t] != strand_colour[s]):
                    ok = False
                    break
            if ok:
                total += extend(i + 1, trial)
        return total

    return extend(0, {})


def brute_two_graph_automorphisms(G, strand_colour=None, half_mark=None):
    """Every half-edge bijection that some automorphism induces, with the
    number of automorphisms inducing it: triples of bijections commuting
    with all five structure maps (and keeping the decorations if given).
    Half-edge candidates are enumerated fibre by fibre over the vertex
    bijection, which is exhaustive because any nu-equivariant bijection
    restricts to one on each fibre."""
    vs, hs = list(G.vertices), list(G.half_edges)
    at = {v: [h for h in hs if G.nu[h] == v] for v in vs}
    for pv in itertools.permutations(vs):
        jv = dict(zip(vs, pv))
        if any(len(at[v]) != len(at[jv[v]]) for v in vs):
            continue
        fibre_maps = [[list(zip(at[v], q))
                       for q in itertools.permutations(at[jv[v]])]
                      for v in vs]
        for combo in itertools.product(*fibre_maps):
            jh = dict(p for part in combo for p in part)
            if any(jh[G.iota[h]] != G.iota[jh[h]] for h in hs):
                continue
            if half_mark is not None and any(half_mark[jh[h]] != half_mark[h]
                                             for h in hs):
                continue
            count = _strand_extensions(G, jh, strand_colour)
            if count:
                yield jh, count


def brute_two_graph_automorphism_count(G):
    """Triples of bijections commuting with all five structure maps."""
    return sum(count for _, count in brute_two_graph_automorphisms(G))


def brute_two_graphs_isomorphic(G1, G2):
    """Existence of a commuting triple of bijections between two graphs."""
    if (len(G1.vertices) != len(G2.vertices)
            or len(G1.half_edges) != len(G2.half_edges)
            or len(G1.strands) != len(G2.strands)):
        return False
    vs1, hs1 = list(G1.vertices), list(G1.half_edges)
    for pv in itertools.permutations(G2.vertices):
        jv = dict(zip(vs1, pv))
        for ph in itertools.permutations(G2.half_edges):
            jh = dict(zip(hs1, ph))
            if any(jv[G1.nu[h]] != G2.nu[jh[h]] for h in hs1):
                continue
            if any(jh[G1.iota[h]] != G2.iota[jh[h]] for h in hs1):
                continue
            if _cross_extension_exists(G1, G2, jh):
                return True
    return False


def _cross_extension_exists(G1, G2, jh):
    fibre1 = {h: [] for h in G1.half_edges}
    for s in G1.strands:
        fibre1[G1.mu[s]].append(s)
    fibre2 = {h: [] for h in G2.half_edges}
    for s in G2.strands:
        fibre2[G2.mu[s]].append(s)
    order = sorted(G1.half_edges, key=lambda h: (h.__class__.__name__, h))

    def ok_so_far(js, s):
        for inv1, inv2 in ((G1.sigma1, G2.sigma1), (G1.sigma2, G2.sigma2)):
            t = inv1[s]
            if t in js and inv2[js[s]] != js[t]:
                return False
        return True

    def extend(i, js):
        if i == len(order):
            return True
        h = order[i]
        src, dst = fibre1[h], fibre2[jh[h]]
        if len(src) != len(dst):
            return False
        for perm in itertools.permutations(dst):
            trial = dict(js)
            good = True
            for s, t in zip(src, perm):
                trial[s] = t
                if not ok_so_far(trial, s):
                    good = False
                    break
            if good and extend(i + 1, trial):
                return True
        return False

    return extend(0, {})


def map_face_count(rotations, edge_pairs):
    """Face count of a closed combinatorial map as the number of cycles of
    sigma composed with iota, straight from the defining permutations."""
    sigma = {}
    for rot in rotations:
        for i, h in enumerate(rot):
            sigma[h] = rot[(i + 1) % len(rot)]
    iota = {}
    for a, b in edge_pairs:
        iota[a] = b
        iota[b] = a
    phi = {h: sigma[iota[h]] for h in iota}
    seen = set()
    faces = 0
    for h in phi:
        if h in seen:
            continue
        faces += 1
        while h not in seen:
            seen.add(h)
            h = phi[h]
    return faces


def random_relabelled(G, rng):
    """Copy of ``G`` under uniformly random label bijections, with labels
    drawn from a disjoint namespace."""
    from strandhopf.graphs import relabel

    def shuffled_map(labels, tag):
        target = [f"{tag}{i}" for i in range(len(labels))]
        rng.shuffle(target)
        return dict(zip(labels, target))

    return relabel(G,
                   shuffled_map(G.vertices, "rv"),
                   shuffled_map(G.half_edges, "rh"),
                   shuffled_map(G.strands, "rs"))


def _exhaustive_refine(n, adj, colors):
    """Rank refinement: each round, every node's new colour is the rank of
    its colour plus its sorted neighbour colours among all nodes', until
    nothing changes.  ``iso._refine`` must give the same cells in the
    same order, coloured by cell start instead of rank."""
    while True:
        sigs = []
        for i in range(n):
            ns = sorted(colors[j] for j in adj[i])
            sigs.append((colors[i], tuple(ns)))
        order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def exhaustive_canon_search(descs, adj):
    """Minimal leaf code, one minimal labelling, and the leaf count.

    Every member of the first non-singleton cell is individualized in
    turn, with no pruning, so the minimal-code leaves are exactly the
    automorphism orbit of the canonical labelling.  This is the search
    ``iso._canon_search`` prunes; both return the same triple.
    """
    n = len(descs)
    order = {d: k for k, d in enumerate(sorted(set(descs)))}
    init = [order[d] for d in descs]
    best_code = [None]
    best_perm = [None]
    count = [0]

    def leaf(colors):
        pos = sorted(range(n), key=lambda i: colors[i])
        rank = [0] * n
        for p, i in enumerate(pos):
            rank[i] = p
        edges = []
        for i in range(n):
            ri = rank[i]
            for j in adj[i]:
                if rank[j] > ri:
                    edges.append((ri, rank[j]))
        edges.sort()
        code = (tuple(descs[i] for i in pos), tuple(edges))
        if best_code[0] is None or code < best_code[0]:
            best_code[0] = code
            best_perm[0] = pos
            count[0] = 1
        elif code == best_code[0]:
            count[0] += 1

    def rec(colors):
        colors = _exhaustive_refine(n, adj, colors)
        sizes = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        target = None
        for c in sorted(sizes):
            if sizes[c] > 1:
                target = c
                break
        if target is None:
            leaf(colors)
            return
        for i in range(n):
            if colors[i] == target:
                child = [(colors[j], 0 if j == i else 1) for j in range(n)]
                order2 = {s: k for k, s in enumerate(sorted(set(child)))}
                rec([order2[s] for s in child])

    rec(init)
    return best_code[0], best_perm[0], count[0]


def unreduced_grow(level, dtypes, slots, klass, budget):
    """One growth level with every pair of external half-edges and every
    (external half-edge, slot of a new vertex) of every parent joined:
    ``series._grow`` before its orbit reduction, kept as the reference it
    must equal (same keys, order and triples; ``slots`` is not read).  It
    shares the gluing, dedup and new-vertex code with the package."""
    from strandhopf.graphs import _label_key
    from strandhopf.rewrite import _with_edges
    from strandhopf.series import _dedup_code, _edge_options, _with_vertex
    nxt = {}

    def join(base, dressing, cost, pairs):
        for h1, h2 in pairs:
            for opt in _edge_options(klass, base, dressing, h1, h2):
                child = _with_edges(base, [(h1, h2)], opt)
                dc = _dedup_code(klass, child, dressing, cost < budget)
                if dc not in nxt:
                    nxt[dc] = (child, dressing, cost)

    for g, dressing, cost in level.values():
        if cost >= budget:
            continue
        ext = sorted(g.external_half_edges(), key=_label_key)
        join(g, dressing, cost + 1, itertools.combinations(ext, 2))
        for dt in dtypes:
            if cost + 1 + dt.cost <= budget:
                u, merged, new = _with_vertex(g, dressing, dt)
                join(u, merged, cost + 1 + dt.cost,
                     itertools.product(ext, new))
    return nxt


def _joined(G, pair, sigma2_pairs):
    """A fresh ``TwoGraph`` of ``G`` with ``pair`` joined into an edge and
    ``sigma2_pairs`` paired across it."""
    from strandhopf.graphs import TwoGraph
    iota, sigma2 = dict(G.iota), dict(G.sigma2)
    a, b = pair
    iota[a], iota[b] = b, a
    for x, y in sigma2_pairs:
        sigma2[x], sigma2[y] = y, x
    return TwoGraph(G.vertices, G.half_edges, G.strands, G.nu, G.mu, iota,
                    G.sigma1, sigma2)


def multiset_classes(dtypes, klass, budget, frontier=None):
    """``series.connected_classes`` as it was before growth started from
    one vertex, kept as the reference it must equal (same class dict up
    to the representatives' labels).  Each multiset of at most budget + 1
    types (with a frontier type, within the budget) is laid out as a
    disjoint union, and edges are added one level at a time between
    external half-edges, at the first pair of each orbit of the parent's
    group, deduplicating each level by the dedup code; the connected
    graphs of every level are the classes.  Children are fresh graphs,
    since the intermediates are disconnected.  It shares the gluing,
    dedup and recording code with the package."""
    from strandhopf import iso
    from strandhopf.graphs import _label_key, disjoint_union, is_connected
    from strandhopf.series import (_dedup_code, _edge_options,
                                   _group_dressing, _merge_dicts,
                                   _pair_orbit_leaders, _record,
                                   instantiate_dressed)

    def extend(parents, dressing):
        group = _group_dressing(klass, dressing)
        nxt = {}
        for g in parents:
            ext = sorted(g.external_half_edges(), key=_label_key)
            for h1, h2 in _pair_orbit_leaders(
                    ext, iso.automorphism_generators(g, *group)):
                for opt in _edge_options(klass, g, dressing, h1, h2):
                    g2 = _joined(g, (h1, h2), opt)
                    nxt.setdefault(_dedup_code(klass, g2, dressing), g2)
        return nxt

    raw = {}
    dtypes = sorted(dtypes, key=lambda dt: (dt.cost, dt.dressed_code()))
    for npieces in range(1, budget + 2):
        for multi in itertools.combinations_with_replacement(dtypes,
                                                             npieces):
            if frontier is not None and not frontier.intersection(multi):
                continue
            cost_sum = sum(dt.cost for dt in multi)
            if cost_sum + npieces - 1 > budget:
                continue
            insts = [instantiate_dressed(dt, f"{k}")
                     for k, dt in enumerate(multi)]
            seed = disjoint_union([t[0] for t in insts], prefix=False)
            dressing = tuple(_merge_dicts([t[k] for t in insts])
                             for k in (1, 2, 3))
            if npieces == 1:
                _record(raw, seed, 0, cost_sum)
            level = {0: seed}
            for e in range(1, budget - cost_sum + 1):
                level = extend(level.values(), dressing)
                for g in level.values():
                    if is_connected(g):
                        _record(raw, g, e, cost_sum + e)
    return raw


def _labelled_gluings(G, n_edges, connected):
    """L(M, e): the ways to join ``n_edges`` disjoint pairs of the
    half-edges of ``G`` (the labelled vertices of M side by side) into
    edges, with a connected result if ``connected``, each weighted by its
    number of strand pairings (``rewrite._glue_options``)."""
    from strandhopf.rewrite import _glue_options
    hs = G.half_edges

    def is_connected(pairs):
        parent = {v: v for v in G.vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in pairs:
            parent[find(G.nu[a])] = find(G.nu[b])
        return len({find(v) for v in G.vertices}) == 1

    def count(start, used, pairs, weight):
        if len(pairs) == n_edges:
            return weight if not connected or is_connected(pairs) else 0
        total = 0
        for i in range(start, len(hs)):
            for j in range(i + 1, len(hs)):
                if hs[i] in used or hs[j] in used:
                    continue
                w = len(_glue_options(G, (hs[i], hs[j])))
                if w:
                    total += count(i + 1, used | {hs[i], hs[j]},
                                   pairs + [(hs[i], hs[j])], weight * w)
        return total

    return count(0, frozenset(), [], 1)


def orbit_count_cells(theory, max_edges, connected=True):
    """Wick's theorem as orbit-stabilizer, for a ``generic`` theory: for
    each vertex multiset M (n_t copies of each type t, at most
    ``max_edges`` + 1 vertices) and edge count e, the pair (sum of 1/|Aut|
    over the classes of ``enumerate_diagrams(theory, max_edges,
    connected)`` with these vertices and edges, L(M, e) / prod_t n_t!
    |Aut(t)|^n_t), for every cell where either is non-zero.  L counts the
    labelled gluings (``_labelled_gluings``), and |Aut(t)| comes from the
    brute-force automorphism count; neither canonizes.  The two must be
    equal in every cell."""
    from math import factorial
    from strandhopf import iso
    from strandhopf.graphs import disjoint_union, vertex_graph
    from strandhopf.series import enumerate_diagrams, instantiate_dressed
    types = theory.dressed_types()
    codes = [dt.plain_code() for dt in types]
    sums = {}
    for t in enumerate_diagrams(theory, max_edges, connected).terms:
        g = t.graph
        multi = tuple(sorted(codes.index(iso.one_graph_code(
            vertex_graph(g, v))) for v in g.vertices))
        key = (multi, t.n_edges)
        sums[key] = sums.get(key, 0) + t.coefficient
    auts = [brute_two_graph_automorphism_count(
        instantiate_dressed(dt, "t")[0]) for dt in types]
    cells = {}
    for n in range(1, max_edges + 2):
        for multi in itertools.combinations_with_replacement(
                range(len(types)), n):
            G = disjoint_union([instantiate_dressed(types[i], f"{k}")[0]
                                for k, i in enumerate(multi)], prefix=False)
            denom = 1
            for i in set(multi):
                denom *= factorial(multi.count(i)) * auts[i] ** multi.count(i)
            for e in range(max_edges + 1):
                glued = Fraction(_labelled_gluings(G, e, connected), denom)
                if glued or (multi, e) in sums:
                    cells[(multi, e)] = (sums.get((multi, e), 0), glued)
    return cells


def inherited_view_mismatches(theory, max_edges):
    """Run the growth of ``series.connected_classes`` for ``theory`` up to
    ``max_edges`` edges, as ``enumerate`` does, and compare every growth
    child, before its dedup code is formed, with a fresh ``TwoGraph``
    built from its maps: its edge pairs and integer view, and its
    positional key, face classes and encoding under the decorations of
    its dedup code, all read from the view it inherits; and its component
    partition, one group, with a fresh union-find.  The search memo is
    cleared first, and the growth stops at the first child whose view
    differs.  Returns the number of children, the number of them that
    join a new vertex (whose parent graph, a connected graph beside the
    new vertex, has two components), and a list of (child index, what
    differs)."""
    from strandhopf import iso, series
    from strandhopf.graphs import TwoGraph, _connected_groups, _groups
    bad, count, new_vertex = [], [0], [0]
    real_dedup, real_with_edges = series._dedup_code, series._with_edges

    def counted_with_edges(G, matched, sigma2_pairs):
        nu = G.nu
        if len(_connected_groups(G.vertices, ((nu[a], nu[b]) for a, b
                                              in G.edge_pairs()))) > 1:
            new_vertex[0] += 1
        return real_with_edges(G, matched, sigma2_pairs)

    def checked_dedup_code(klass, c, dressing, grown=True):
        col, par = dressing[:2] if klass == "coloured" and grown \
            else (None, None)
        fresh = TwoGraph(c.vertices, c.half_edges, c.strands, c.nu, c.mu,
                         c.iota, c.sigma1, c.sigma2)
        for what, of in (
                ("edge pairs", lambda g: g.edge_pairs()),
                ("view", lambda g: g.view()),
                ("positional key", lambda g: iso._positional_key(g, col, par)),
                ("face classes", lambda g: iso._face_classes(g, col)),
                ("encoding", lambda g: iso._encode_two_graph(g, col, par))):
            if of(c) != of(fresh):
                bad.append((count[0], what))
                if what == "view":
                    # the faces of a broken view may never close
                    raise StopIteration
        nu = c.nu
        groups = _connected_groups(c.vertices, ((nu[a], nu[b])
                                                for a, b in c.edge_pairs()))
        if list(map(list, _groups(c))) != groups:
            bad.append((count[0], "partition"))
        count[0] += 1
        return real_dedup(klass, c, dressing, grown)

    iso.search_cache_clear()
    series._dedup_code = checked_dedup_code
    series._with_edges = counted_with_edges
    try:
        series.connected_classes(theory.dressed_types(), theory.klass,
                                 max_edges)
    except StopIteration:
        pass
    finally:
        series._dedup_code = real_dedup
        series._with_edges = real_with_edges
    return count[0], new_vertex[0], bad


def _least_rotation(chain):
    """The least of the shifts by two of a closed chain and of its
    reversal, by label key."""
    from strandhopf.graphs import _label_key
    n = len(chain)
    best = None
    for seq in (chain, tuple(reversed(chain))):
        for i in range(0, n, 2):
            cand = seq[i:] + seq[:i]
            key = tuple(_label_key(x) for x in cand)
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


def sorted_walk_faces(G):
    """``faces(G)`` as it was computed before faces were walked in strand
    order: the strands sorted by label key, each external chain oriented
    from its smaller end, each internal chain put in its least rotation,
    and both lists sorted, so none of it trusts the walk's start."""
    from strandhopf.graphs import Face, _label_key
    s1, s2 = G.sigma1, G.sigma2
    visited = set()
    external = []
    internal = []
    for a in sorted(G.strands, key=_label_key):
        if a in visited or s2[a] != a:
            continue
        chain = [a]
        visited.add(a)
        cur = a
        while True:
            nxt = s1[cur]
            chain.append(nxt)
            visited.add(nxt)
            if s2[nxt] == nxt:
                break
            cur = s2[nxt]
            chain.append(cur)
            visited.add(cur)
        if _label_key(chain[-1]) < _label_key(chain[0]):
            chain.reverse()
        external.append(Face("external", tuple(chain)))
    for a in sorted(G.strands, key=_label_key):
        if a in visited:
            continue
        chain = [a]
        visited.add(a)
        cur = a
        while True:
            nxt = s1[cur]
            chain.append(nxt)
            visited.add(nxt)
            fol = s2[nxt]
            if fol == chain[0]:
                break
            chain.append(fol)
            visited.add(fol)
            cur = fol
        internal.append(Face("internal", _least_rotation(tuple(chain))))
    key = lambda f: tuple(_label_key(x) for x in f.sections)
    return (tuple(sorted(internal, key=key)),
            tuple(sorted(external, key=key)))


def materialized_contract(G, edges):
    """Contraction of the wide subgraph spanned by ``edges`` through the
    subgraph itself: ``graphs._contract_edges`` before it walked the
    parent's strands, kept as the reference it must equal.  It builds the
    subgraph and pairs the two endpoints of each of its external faces."""
    from strandhopf.graphs import (TwoGraph, faces, subgraph_with_edges,
                                   _component_vertex_sets, _label_key)
    H = subgraph_with_edges(G, edges)
    kept = set(H.edge_pairs())
    in_h = {h for p in kept for h in p}
    comp_of = {}
    for vs in _component_vertex_sets(G, kept):
        tag = min(vs, key=_label_key)
        for v in vs:
            comp_of[v] = tag
    new_h = [h for h in G.half_edges if h not in in_h]
    new_s = [s for s in G.strands if G.mu[s] not in in_h]
    sigma1 = {}
    for f in faces(H)[1]:
        a, b = f.sections[0], f.sections[-1]
        sigma1[a] = b
        sigma1[b] = a
    return TwoGraph(sorted(set(comp_of.values()), key=_label_key), new_h,
                    new_s, {h: comp_of[G.nu[h]] for h in new_h},
                    {s: G.mu[s] for s in new_s},
                    {h: G.iota[h] for h in new_h}, sigma1,
                    {s: G.sigma2[s] for s in new_s})


def unreduced_coproduct(G):
    """The coproduct table of ``G`` expanded on every wide subgraph:
    ``hopf._coproduct`` before its orbit reduction, kept as the reference
    it must equal (same keys, order and coefficients).  Each subgraph is
    materialized for its left side and contracted by
    ``materialized_contract``.  It interns what it expands, as the
    package does."""
    from strandhopf.hopf import el_graph
    from strandhopf.rewrite import subgraphs
    out = {}
    for sub in subgraphs(G):
        (lm, lc), = el_graph(sub.materialize()).items()
        (rm, rc), = el_graph(materialized_contract(G, sub.edges)).items()
        out[lm, rm] = out.get((lm, rm), Fraction(0)) + lc * rc
    return out


def cap_boundary(G):
    """Close an open graph by pinching: one new vertex per connected
    boundary component, carrying that component's vertex graph, glued to
    the external half-edges by the identity strand pairing.  Every
    external face closes and no new internal structure appears.  The
    pinched closure as a 2-graph, which ``models`` no longer builds: its
    jacket degree must equal the closure degree that
    ``models.gurau_degree_open`` reads off the colour matchings.  New
    labels are ``cap:`` plus the old one, so ``G`` must have none of that
    form."""
    from strandhopf.graphs import TwoGraph, _label_key, boundary
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


def per_jacket_coloured_degree(nodes, match_by_colour):
    """Total jacket genus of a properly edge-coloured graph, counting the
    faces of every jacket afresh: ``models._coloured_graph_degree``
    before it counted each colour pair once, kept as the reference it
    must equal.  It shares the cycle count with the package."""
    from strandhopf.graphs import _connected_groups
    from strandhopf.models import _count_cycles_in, _cyclic_orders
    colours = sorted(match_by_colour)
    if len(colours) <= 2:
        return Fraction(0)
    pairs = (p for m in match_by_colour.values() for p in m.items())
    total = Fraction(0)
    for members in _connected_groups(nodes, pairs):
        v = len(members)
        e = Fraction(v * len(colours), 2)
        for cyc in _cyclic_orders(colours):
            fj = 0
            for i in range(len(cyc)):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                fj += _count_cycles_in(members, match_by_colour[a],
                                       match_by_colour[b])
            total += Fraction(2 - (v - e + fj), 2)
    return total


def per_jacket_open_degree(G, colouring):
    """Total jacket genus of a uniformly stranded graph with its boundary
    circles filled, counting the face runs and boundary circles of every
    jacket afresh: ``models.open_jacket_degree`` before it counted each
    colour pair once, kept as the reference it must equal.  It shares
    the matchings, components and cycle count with the package."""
    from strandhopf.graphs import boundary
    from strandhopf.models import (_colour_matchings, _count_cycles_in,
                                   _cyclic_orders, _incidence_components)
    if not G.strands:
        return Fraction(0)
    r = G.strand_degree(G.half_edges[0])
    match = _colour_matchings(G.strands, G.mu, G.sigma1, colouring, r)
    externals = set(G.external_half_edges())
    if externals:
        b = boundary(G)
        pcol = _colour_matchings(b.half_edges, b.attach, b.pairing,
                                 colouring, r)
    total = Fraction(0)
    for members in _incidence_components(G):
        n = len(members)
        e0 = sum(1 for h in members if G.iota[h] != h) // 2
        e_tot = e0 + Fraction(n * r, 2)
        legs = [h for h in members if h in externals]
        for cyc in _cyclic_orders(range(r + 1)):
            fj = 0
            for i in range(len(cyc)):
                a, c = cyc[i], cyc[(i + 1) % len(cyc)]
                if 0 in (a, c):
                    fj += _count_cycles_in(members, match[a or c], G.iota,
                                           externals)
                else:
                    fj += _count_cycles_in(members, match[a], match[c])
            bj = 0
            if legs:
                i0 = cyc.index(0)
                ca, cb = cyc[i0 - 1], cyc[(i0 + 1) % len(cyc)]
                bj = _count_cycles_in(legs, pcol[ca], pcol[cb])
            total += Fraction(2 - bj - (n - e_tot + fj), 2)
    return total


def per_jacket_boundary_degree(G, colouring):
    """``models.boundary_gurau_degree`` on ``per_jacket_coloured_degree``:
    the jacket genus of the boundary of ``G``, coloured by the strand
    colours of ``G``."""
    from strandhopf.graphs import boundary
    from strandhopf.models import _colour_matchings
    b = boundary(G)
    if not b.vertices:
        return Fraction(0)
    r = G.strand_degree(G.half_edges[0])
    match = _colour_matchings(b.half_edges, b.attach, b.pairing, colouring,
                              r)
    return per_jacket_coloured_degree(list(b.vertices), match)


def random_laurent(rng, span=4, terms=3):
    """Random small Laurent polynomial with Fraction coefficients."""
    from strandhopf.hopf import LaurentPoly
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(-span, span)
        coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return LaurentPoly(coeffs)
