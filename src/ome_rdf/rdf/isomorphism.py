"""Blank-node-aware graph equality.

:func:`graph_isomorphic` first compares the triple sets directly, which
decides when they are equal or the first graph has no blank node.
Otherwise it compares ground triples, then runs colour refinement over
blank nodes and finishes with an exact backtracking search (up to
``BRUTE_FORCE_BOUND`` blanks).  Above the bound it only answers when
refinement pins every blank down to a singleton class, otherwise it
raises :class:`TooLargeForExactCheckError`.  Refinement orders ground
neighbours by :func:`~ome_rdf.rdf.model.term_sort_key`, as the writers do.
"""

from __future__ import annotations

from ..errors import TooLargeForExactCheckError
from .model import BlankNode, Graph, term_sort_key

BRUTE_FORCE_BOUND = 12


def _split(g: Graph):
    ground, blankful = set(), []
    for t in g:
        if isinstance(t[0], BlankNode) or isinstance(t[2], BlankNode):
            blankful.append(t)
        else:
            ground.add(t)
    return ground, blankful


def _adjacency(blankful):
    """label -> list of (role, predicate, other) features.

    ``other`` is ("g", term_sort_key(term)) for ground neighbours and
    ("b", label) for blank neighbours; "so" marks self-loops, with ("g", ()).
    """
    adj: dict = {}
    for s, p, o in blankful:
        s_blank = isinstance(s, BlankNode)
        o_blank = isinstance(o, BlankNode)
        if s_blank and o_blank and s.label == o.label:
            adj.setdefault(s.label, []).append(("so", p, ("g", ())))
            continue
        if s_blank:
            other = ("b", o.label) if o_blank else ("g", term_sort_key(o))
            adj.setdefault(s.label, []).append(("s", p, other))
        if o_blank:
            other = ("b", s.label) if s_blank else ("g", term_sort_key(s))
            adj.setdefault(o.label, []).append(("o", p, other))
    return adj


def _refine(adj_a: dict, adj_b: dict):
    """Joint colour refinement.  Returns (colors_a, colors_b) or None when
    the colour multisets diverge (graphs cannot be isomorphic)."""
    colors_a = {lbl: 0 for lbl in adj_a}
    colors_b = {lbl: 0 for lbl in adj_b}
    n = len(colors_a)
    for _ in range(n + 1):
        table: dict = {}

        def recolor(adj, colors):
            result = {}
            for lbl, feats in adj.items():
                sig = []
                for role, pred, (kind, other) in feats:
                    if kind == "g":
                        sig.append((role, pred, 0, other, -1))
                    else:
                        sig.append((role, pred, 1, (), colors[other]))
                key = (colors[lbl], tuple(sorted(sig)))
                result[lbl] = table.setdefault(key, len(table))
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


def _substitute(blankful, mapping):
    out = set()
    for s, p, o in blankful:
        s = BlankNode(mapping[s.label]) if isinstance(s, BlankNode) else s
        o = BlankNode(mapping[o.label]) if isinstance(o, BlankNode) else o
        out.add((s, p, o))
    return out


def _backtrack(blankful_a, blankful_b, candidates):
    """Exact search for a bijection consistent with the candidate sets."""
    b_set = set(blankful_b)
    triples_by_label: dict = {}
    for t in blankful_a:
        for term in (t[0], t[2]):
            if isinstance(term, BlankNode):
                triples_by_label.setdefault(term.label, []).append(t)

    order = sorted(candidates, key=lambda lbl: (len(candidates[lbl]), lbl))
    assignment: dict = {}
    used: set = set()

    def consistent(lbl) -> bool:
        for s, p, o in triples_by_label[lbl]:
            if isinstance(s, BlankNode):
                if s.label not in assignment:
                    continue
                s = BlankNode(assignment[s.label])
            if isinstance(o, BlankNode):
                if o.label not in assignment:
                    continue
                o = BlankNode(assignment[o.label])
            if (s, p, o) not in b_set:
                return False
        return True

    def place(i) -> bool:
        if i == len(order):
            return _substitute(blankful_a, assignment) == b_set
        lbl = order[i]
        for cand in sorted(candidates[lbl]):
            if cand in used:
                continue
            assignment[lbl] = cand
            used.add(cand)
            if consistent(lbl) and place(i + 1):
                return True
            del assignment[lbl]
            used.discard(cand)
        return False

    return place(0)


def graph_isomorphic(a: Graph, b: Graph) -> bool:
    """True iff some blank-node bijection makes the triple sets equal.

    Ground (blank-free) triples must match exactly.  Raises
    :class:`TooLargeForExactCheckError` when there are more than
    ``BRUTE_FORCE_BOUND`` blank nodes and refinement is inconclusive.
    """
    if len(a) != len(b):
        return False
    if a == b:
        return True  # the identity is a bijection
    if not any(isinstance(s, BlankNode) or isinstance(o, BlankNode) for s, _, o in a):
        return False  # no bijection to find: only equal sets match
    ground_a, blankful_a = _split(a)
    ground_b, blankful_b = _split(b)
    if ground_a != ground_b:
        return False
    adj_a, adj_b = _adjacency(blankful_a), _adjacency(blankful_b)
    if len(adj_a) != len(adj_b):
        return False
    refined = _refine(adj_a, adj_b)
    if refined is None:
        return False
    colors_a, colors_b = refined

    by_color_b: dict = {}
    for lbl, c in colors_b.items():
        by_color_b.setdefault(c, set()).add(lbl)
    # equal colour multisets: every colour of a also colours some blank of b
    candidates = {lbl: by_color_b[c] for lbl, c in colors_a.items()}

    n_blanks = len(adj_a)
    if n_blanks <= BRUTE_FORCE_BOUND:
        return _backtrack(blankful_a, blankful_b, candidates)

    if all(len(c) == 1 for c in candidates.values()):
        # refinement pinned every blank: the only colour-respecting
        # bijection either works or no bijection does
        mapping = {lbl: next(iter(c)) for lbl, c in candidates.items()}
        return _substitute(blankful_a, mapping) == set(blankful_b)

    raise TooLargeForExactCheckError(
        f"{n_blanks} blank nodes exceed the exact-search bound "
        f"({BRUTE_FORCE_BOUND}) and refinement is inconclusive"
    )

