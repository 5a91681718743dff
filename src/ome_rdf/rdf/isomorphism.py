"""Blank-node-aware graph equality.

:func:`graph_isomorphic` first compares the triple sets directly, which
decides when they are equal, then the ground triples, which decides when
the first graph has no blank node.  Otherwise it runs colour refinement
over blank nodes and finishes with one exact search.  A blank that refinement
pins to a colour class of one is placed up front; only the blanks left in
larger classes, the open ones, are searched, and more than
``BRUTE_FORCE_BOUND`` open blanks raise :class:`TooLargeForExactCheckError`.
Refinement orders ground neighbours by
:func:`~ome_rdf.rdf.model.term_sort_key`, as the writers do.  By the
model's one rule a ``str`` is an IRI, a 1-tuple a blank node and a 3-tuple
a literal; the blank nodes themselves key the adjacency, the colours and
the assignment.
"""

from __future__ import annotations

from ..errors import TooLargeForExactCheckError
from .model import Graph, term_sort_key

BRUTE_FORCE_BOUND = 12


def _is_blank(term) -> bool:
    return term.__class__ is tuple and len(term) == 1


def _split(g: Graph):
    ground, blankful = set(), []
    for t in g:
        if _is_blank(t[0]) or _is_blank(t[2]):
            blankful.append(t)
        else:
            ground.add(t)
    return ground, blankful


def _adjacency(blankful):
    """blank node -> list of (role, predicate, other) features.

    ``other`` is ("g", term_sort_key(term)) for ground neighbours and
    ("b", node) for blank neighbours; "so" marks self-loops, with ("g", ()).
    """
    adj: dict = {}
    for s, p, o in blankful:
        s_blank, o_blank = _is_blank(s), _is_blank(o)
        if s_blank and o_blank and s == o:
            adj.setdefault(s, []).append(("so", p, ("g", ())))
            continue
        if s_blank:
            other = ("b", o) if o_blank else ("g", term_sort_key(o))
            adj.setdefault(s, []).append(("s", p, other))
        if o_blank:
            other = ("b", s) if s_blank else ("g", term_sort_key(s))
            adj.setdefault(o, []).append(("o", p, other))
    return adj


def _refine(adj_a: dict, adj_b: dict):
    """Joint colour refinement.  Returns (colors_a, colors_b) or None when
    the colour multisets diverge (graphs cannot be isomorphic)."""
    colors_a = {node: 0 for node in adj_a}
    colors_b = {node: 0 for node in adj_b}
    n = len(colors_a)
    for _ in range(n + 1):
        table: dict = {}

        def recolor(adj, colors):
            result = {}
            for node, feats in adj.items():
                sig = []
                for role, pred, (kind, other) in feats:
                    if kind == "g":
                        sig.append((role, pred, 0, other, -1))
                    else:
                        sig.append((role, pred, 1, (), colors[other]))
                key = (colors[node], tuple(sorted(sig)))
                result[node] = table.setdefault(key, len(table))
            return result

        new_a = recolor(adj_a, colors_a)
        new_b = recolor(adj_b, colors_b)
        if sorted(new_a.values()) != sorted(new_b.values()):
            return None
        stable = len(set(new_a.values())) == len(set(colors_a.values()))
        colors_a, colors_b = new_a, new_b
        if stable:
            break
    return colors_a, colors_b


def _search(blankful_a, blankful_b, candidates):
    """Exact search for a bijection consistent with the candidate lists.

    A blank whose class holds one candidate is pinned and placed up front;
    only the open blanks are searched, one recursion level each.  Each
    blankful triple of ``a`` is checked once, when its last blank is placed.
    A full placement is a bijection onto ``blankful_b``: matching colour
    multisets give each pinned blank a target that no other blank can take,
    ``used`` keeps the open ones apart, and equal lengths and ground sets
    give both graphs as many blankful triples, so the injective image of
    ``blankful_a`` is all of ``blankful_b``.
    """
    b_set = set(blankful_b)
    assignment = {node: c[0] for node, c in candidates.items() if len(c) == 1}
    order = sorted((node for node in candidates if node not in assignment),
                   key=lambda node: (len(candidates[node]), node))
    if len(order) > BRUTE_FORCE_BOUND:
        raise TooLargeForExactCheckError(
            f"{len(order)} blank nodes that refinement leaves open exceed the "
            f"exact-search bound ({BRUTE_FORCE_BOUND})"
        )
    # checks[k]: the triples whose last blank is order[k - 1] (k = 0: all
    # pinned); they read no later level, so a failed level's entries go unread
    level = {node: i + 1 for i, node in enumerate(order)}
    checks = [[] for _ in range(len(order) + 1)]
    for t in blankful_a:
        checks[max(level.get(t[0], 0), level.get(t[2], 0))].append(t)

    def holds(triples) -> bool:
        mapped = assignment.get
        return all((mapped(s, s), p, mapped(o, o)) in b_set for s, p, o in triples)

    used: set = set()

    def place(i) -> bool:
        if i == len(order):
            return True
        node = order[i]
        for cand in candidates[node]:
            if cand in used:
                continue
            assignment[node] = cand
            used.add(cand)
            if holds(checks[i + 1]) and place(i + 1):
                return True
            used.discard(cand)
        return False

    return holds(checks[0]) and place(0)


def graph_isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some blank-node bijection makes the triple sets equal.

    Ground (blank-free) triples must match exactly.  Raises
    :class:`TooLargeForExactCheckError` when more than ``BRUTE_FORCE_BOUND``
    blank nodes sit in colour classes that refinement leaves with more than
    one member.
    """
    if len(a) != len(b):
        return False
    if a == b:
        return True  # the identity is a bijection
    ground_a, blankful_a = _split(a)
    ground_b, blankful_b = _split(b)
    if ground_a != ground_b:
        return False  # also when a has no blank node, as then a == ground_a
    adj_a, adj_b = _adjacency(blankful_a), _adjacency(blankful_b)
    if len(adj_a) != len(adj_b):
        return False
    refined = _refine(adj_a, adj_b)
    if refined is None:
        return False
    colors_a, colors_b = refined

    by_color_b: dict = {}
    for node, c in sorted(colors_b.items()):
        by_color_b.setdefault(c, []).append(node)
    # equal colour multisets: every colour of a also colours some blank of b
    return _search(blankful_a, blankful_b, {node: by_color_b[c] for node, c in colors_a.items()})
