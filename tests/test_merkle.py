"""Unit and property tests for Merkle roots."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import EMPTY_ROOT, MerkleTree, _leaf_hash, _node_hash, merkle_root


class TestConstruction:
    def test_empty_tree_root(self):
        assert MerkleTree([]).root == EMPTY_ROOT
        assert merkle_root([]) == EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree(["only"])
        assert len(tree) == 1
        assert tree.root != EMPTY_ROOT

    def test_root_depends_on_content(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["a", "c"]).root

    def test_root_depends_on_order(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["b", "a"]).root

    def test_root_depends_on_length(self):
        assert MerkleTree(["a"]).root != MerkleTree(["a", "a"]).root

    def test_deterministic(self):
        items = list(range(13))
        assert MerkleTree(items).root == MerkleTree(items).root

    def test_odd_node_promoted_unpaired(self):
        a, b, c = (_leaf_hash(x) for x in "abc")
        assert MerkleTree(["a", "b", "c"]).root == _node_hash(_node_hash(a, b), c)


@given(
    st.lists(st.integers(), min_size=1, max_size=20),
    st.lists(st.integers(), min_size=1, max_size=20),
)
def test_property_distinct_lists_distinct_roots(a, b):
    """Roots commit to the full ordered list."""
    assert (merkle_root(a) == merkle_root(b)) == (a == b)
