import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ome_rdf.errors import TooLargeForExactCheckError
from ome_rdf.rdf import (
    BlankNode,
    Graph,
    Iri,
    Triple,
    graph_isomorphic,
)

from genutil import random_graph, rename_blanks
from oracle import blank_labels, brute_force_isomorphic

EX = "http://ex.org/"


def bt(s, p, o):
    mk = lambda x: BlankNode(x[2:]) if x.startswith("_:") else Iri(EX + x)
    return Triple(mk(s), Iri(EX + p), mk(o))


class TestIsomorphic:
    def test_identity(self):
        g = Graph([bt("_:a", "p", "_:b"), bt("_:b", "p", "c")])
        assert graph_isomorphic(g, g)

    def test_renamed_blanks_brute_forced(self):
        g = Graph([bt("_:a", "p", "_:b"), bt("_:b", "q", "o")])
        h = rename_blanks(g, {"a": "x", "b": "y"})
        assert brute_force_isomorphic(g, h)
        assert graph_isomorphic(g, h)

    def test_different_triple_counts(self):
        g = Graph([bt("s", "p", "o")])
        h = Graph([bt("s", "p", "o"), bt("s", "p", "o2")])
        assert not graph_isomorphic(g, h)

    def test_ground_mismatch(self):
        g = Graph([bt("s", "p", "o"), bt("_:a", "p", "o")])
        h = Graph([bt("s", "p", "DIFFERENT"), bt("_:a", "p", "o")])
        assert not graph_isomorphic(g, h)

    def test_structure_mismatch_same_counts(self):
        # chain vs fork over two blanks
        g = Graph([bt("_:a", "p", "_:b"), bt("_:b", "p", "o")])
        h = Graph([bt("_:a", "p", "_:b"), bt("_:a", "p", "o")])
        assert not graph_isomorphic(g, h)
        assert not brute_force_isomorphic(g, h)

    def test_blank_counts_differ(self):
        # two blanks against one, with the same ground terms and triple count
        g = Graph([bt("_:a", "p", "o"), bt("_:b", "p", "o")])
        h = Graph([bt("_:c", "p", "o"), bt("_:c", "q", "o")])
        assert not graph_isomorphic(g, h)
        assert not brute_force_isomorphic(g, h)

    def test_self_loop_distinguished(self):
        g = Graph([bt("_:a", "p", "_:a"), bt("_:b", "p", "o")])
        h = Graph([bt("_:a", "p", "_:b"), bt("_:b", "p", "o")])
        assert not graph_isomorphic(g, h)

    def test_symmetric_cycle_needs_search(self):
        # two 2-cycles where refinement alone cannot split the blanks
        g = Graph([bt("_:a", "p", "_:b"), bt("_:b", "p", "_:a"),
                   bt("_:c", "p", "_:d"), bt("_:d", "p", "_:c")])
        h = rename_blanks(g, {"a": "w", "b": "x", "c": "y", "d": "z"})
        assert graph_isomorphic(g, h)
        assert brute_force_isomorphic(g, h)

    def test_blank_free_graphs_of_equal_size_differ(self):
        g = Graph([bt("s", "p", "o"), bt("s", "p", "o2")])
        h = Graph([bt("s", "p", "o"), bt("s", "p", "o3")])
        assert not graph_isomorphic(g, h)

    def test_six_cycle_is_not_two_three_cycles(self):
        # every blank has one p-successor and one p-predecessor, so refinement
        # cannot split them and only the exact search tells the graphs apart
        def cycle(labels):
            return [bt(f"_:{x}", "p", f"_:{y}") for x, y in zip(labels, labels[1:] + labels[:1])]

        g = Graph(cycle(["a", "b", "c", "d", "e", "f"]))
        h = Graph(cycle(["u", "v", "w"]) + cycle(["x", "y", "z"]))
        assert not graph_isomorphic(g, h)
        assert not graph_isomorphic(h, g)
        assert not brute_force_isomorphic(g, h)

    def test_too_large_raises_when_inconclusive(self):
        # 13 disjoint, mutually indistinguishable self-loops
        g = Graph([Triple(BlankNode(f"a{i}"), Iri(EX + "p"), BlankNode(f"a{i}"))
                   for i in range(13)])
        h = Graph([Triple(BlankNode(f"z{i}"), Iri(EX + "p"), BlankNode(f"z{i}"))
                   for i in range(13)])
        with pytest.raises(TooLargeForExactCheckError):
            graph_isomorphic(g, h)

    def test_large_but_refinable_answers(self):
        # 20 blanks, each pinned by a distinct ground neighbour
        g = Graph([Triple(BlankNode(f"a{i}"), Iri(EX + "p"), Iri(EX + f"o{i}"))
                   for i in range(20)])
        h = Graph([Triple(BlankNode(f"z{i}"), Iri(EX + "p"), Iri(EX + f"o{i}"))
                   for i in range(20)])
        assert graph_isomorphic(g, h)
        bad = Graph([Triple(BlankNode(f"z{i}"), Iri(EX + "p"), Iri(EX + f"o{i + 1}"))
                     for i in range(20)])
        assert not graph_isomorphic(g, bad)

    def test_open_blanks_bound_the_search_not_all_blanks(self):
        # 20 pinned blanks and a p-cycle core that refinement cannot split:
        # 26 blanks, 6 of them open, so the exact search decides
        def graph(prefix, *cycles):
            triples = [Triple(BlankNode(f"{prefix}{i}"), Iri(EX + "p"), Iri(EX + f"o{i}"))
                       for i in range(20)]
            for labels in cycles:
                triples += [bt(f"_:{prefix}{x}", "p", f"_:{prefix}{y}")
                            for x, y in zip(labels, labels[1:] + labels[:1])]
            return Graph(triples)

        g = graph("a", "bcdefg")
        assert graph_isomorphic(g, graph("z", "uvwxyt"))
        assert not graph_isomorphic(g, graph("z", "uvw", "xyt"))

    @pytest.mark.parametrize("n", [3000, 20000])
    def test_many_pinned_blanks_need_no_recursion(self, n):
        def graph(prefix, last):
            return Graph([Triple(BlankNode(f"{prefix}{i}"), Iri(EX + "p"),
                                 Iri(EX + (f"o{i}" if i < n - 1 else last)))
                          for i in range(n)])

        g = graph("a", f"o{n - 1}")
        assert graph_isomorphic(g, graph("z", f"o{n - 1}"))
        assert not graph_isomorphic(g, graph("z", "other"))


class TestEquivalenceAndAgreement:
    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_reflexive_and_symmetric(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_triples=15, max_blanks=4)
        assert graph_isomorphic(g, g)
        labels = sorted(blank_labels(g))
        mapping = {lbl: f"r{i}" for i, lbl in enumerate(labels)}
        h = rename_blanks(g, mapping)
        assert graph_isomorphic(g, h) and graph_isomorphic(h, g)

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_refined_search_agrees_with_brute_force(self, s1, s2):
        rng1, rng2 = random.Random(s1), random.Random(s2)
        g = random_graph(rng1, max_triples=10, max_blanks=4)
        h = random_graph(rng2, max_triples=10, max_blanks=4)
        assert graph_isomorphic(g, h) == brute_force_isomorphic(g, h)

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_transitive_on_renamed_chains(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_triples=12, max_blanks=5)
        labels = sorted(blank_labels(g))
        h = rename_blanks(g, {lbl: f"m{i}" for i, lbl in enumerate(labels)})
        k = rename_blanks(h, {f"m{i}": f"k{i}" for i in range(len(labels))})
        assert graph_isomorphic(g, h) and graph_isomorphic(h, k)
        assert graph_isomorphic(g, k)

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 30))
    @settings(max_examples=50, deadline=None)
    def test_pinned_blanks_leave_the_core_answer(self, s1, s2, n_pinned):
        # each pinned blank has a ground neighbour of its own, so refinement
        # places it, and the graphs are isomorphic iff their cores are
        def with_pinned(core, prefix):
            return Graph(list(core) + [
                Triple(BlankNode(f"{prefix}{i}"), Iri(EX + "pinned"), Iri(EX + f"o{i}"))
                for i in range(n_pinned)])

        g = random_graph(random.Random(s1), max_triples=10, max_blanks=4)
        h = random_graph(random.Random(s2), max_triples=10, max_blanks=4)
        assert (graph_isomorphic(with_pinned(g, "pin"), with_pinned(h, "q"))
                == brute_force_isomorphic(g, h))
