"""S-graph optimization passes (Sec. III-B3).

* :func:`prune_zero_assigns` — drop ``ASSIGN o := 0`` vertices: at runtime
  action flags default to "not taken", so the cheapest implementation of a
  0/don't-care output is *no code at all* ("the cheapest option of no
  assignment");
* :func:`merge_multiway` — fuse a chain of TESTs over the bits of one
  multi-valued state variable into a single multiway TEST (switch), the
  ">2 children" extension of footnote 3;
* :func:`collapse_tests` — the paper's experimental "optimization by
  collapsing test nodes" (Sec. III-B3d): replace a closed subgraph of TEST
  vertices by a single multi-predicate TEST.  The paper reports it "never
  observed an improvement"; the ablation benchmark reproduces that finding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..bdd import BddManager, Function
from ..synthesis.encoding import ReactiveEncoding
from .graph import ASSIGN, SGraph, TEST, Vertex

__all__ = ["prune_zero_assigns", "merge_multiway", "collapse_tests"]


def prune_zero_assigns(sg: SGraph) -> int:
    """Remove ASSIGN vertices whose label is constantly false, in place."""
    removed = 0
    redirect: Dict[int, int] = {}

    def resolve(vid: int) -> int:
        seen = []
        while vid in redirect:
            seen.append(vid)
            vid = redirect[vid]
        for s in seen:
            redirect[s] = vid
        return vid

    for vertex in list(sg.vertices()):
        if (
            vertex.kind == ASSIGN
            and vertex.label is not None
            and vertex.label.is_false
        ):
            redirect[vertex.vid] = vertex.children[0]
            removed += 1
    if not removed:
        return 0
    for vertex in sg.vertices():
        vertex.children = [resolve(c) for c in vertex.children]
    sg.drop_unreachable()
    return removed


def _parents(sg: SGraph) -> Dict[int, Set[int]]:
    parents: Dict[int, Set[int]] = {vid: set() for vid in sg.reachable()}
    for vid in sg.reachable():
        for child in sg.vertex(vid).children:
            parents.setdefault(child, set()).add(vid)
    return parents


def merge_multiway(
    sg: SGraph, encoding: ReactiveEncoding, min_targets: int = 2
) -> int:
    """Fuse per-bit state tests into switch vertices, in place.

    For every TEST vertex on the most-significant bit of a state variable
    whose relevant subtree tests only further bits of the same variable, the
    subtree is replaced by one multiway TEST with ``2**num_bits`` children
    (out-of-domain codes are marked infeasible).  Returns switches created.

    ``min_targets`` is the paper's footnote-6 target-dependent parameter:
    "how many children a TEST node must have in order to make an if-based
    implementation more convenient than a switch-based one" — a candidate
    whose feasible children route to fewer distinct targets stays as an
    if-tree.
    """
    created = 0
    bit_owner: Dict[int, Tuple[str, int]] = {}
    for name, mvar in encoding.state_mvars.items():
        for index, var in enumerate(mvar.bits):
            bit_owner[var] = (name, index)

    changed = True
    while changed:
        changed = False
        for vid in list(sg.reachable()):
            vertex = sg.vertex(vid)
            if vertex.kind != TEST or vertex.is_switch:
                continue
            owner = bit_owner.get(vertex.var)
            if owner is None or owner[1] != 0:
                continue
            name, _ = owner
            mvar = encoding.state_mvars[name]
            if mvar.num_bits < 2:
                continue  # a 1-bit switch is just an if
            leaves = _subtree_leaf(sg, bit_owner, vid, name, 0, mvar.num_bits, 0)
            if leaves is None:
                continue
            children = [sg.end] * (1 << mvar.num_bits)
            for code, leaf in leaves:
                children[code] = leaf
            if len(set(children[: mvar.num_values])) < max(2, min_targets):
                continue  # an if-tree serves this few targets better
            infeasible = [
                code >= mvar.num_values for code in range(len(children))
            ]
            switch = sg.add_switch(name, mvar.bits, children, infeasible)
            _redirect(sg, vid, switch)
            created += 1
            changed = True
            break
    if created:
        sg.drop_unreachable()
    return created


def _subtree_leaf(
    sg: SGraph,
    bit_owner: Dict[int, Tuple[str, int]],
    vid: int,
    name: str,
    bit_index: int,
    num_bits: int,
    code: int,
) -> Optional[List[Tuple[int, int]]]:
    """Leaves (code, vertex) for codes extending ``code`` from bit_index on.

    Returns None if the subtree mixes in foreign tests before exhausting
    the state bits (merge not applicable there).  ``bit_owner`` maps each
    state bit variable to its (state variable, bit index).
    """
    if bit_index == num_bits:
        return [(code, vid)]
    vertex = sg.vertex(vid)
    here = bit_owner.get(vertex.var) if vertex.kind == TEST and not vertex.is_switch else None
    if here is not None and here[0] == name and here[1] == bit_index:
        lo = _subtree_leaf(sg, bit_owner, vertex.children[0], name, bit_index + 1, num_bits, code << 1)
        hi = _subtree_leaf(sg, bit_owner, vertex.children[1], name, bit_index + 1, num_bits, (code << 1) | 1)
        if lo is None or hi is None:
            return None
        return lo + hi
    if here is not None and here[0] == name and here[1] > bit_index:
        # This bit was skipped (BDD reduction): both values share subtree.
        lo = _subtree_leaf(sg, bit_owner, vid, name, bit_index + 1, num_bits, code << 1)
        hi = _subtree_leaf(sg, bit_owner, vid, name, bit_index + 1, num_bits, (code << 1) | 1)
        if lo is None or hi is None:
            return None
        return lo + hi
    # Foreign vertex: the remaining bits are don't-cares here — treat the
    # whole remainder as shared (duplicate the leaf across codes).
    leaves = []
    for suffix in range(1 << (num_bits - bit_index)):
        leaves.append(((code << (num_bits - bit_index)) | suffix, vid))
    return leaves


def _redirect(sg: SGraph, old: int, new: int) -> None:
    for vertex in sg.vertices():
        vertex.children = [new if c == old else c for c in vertex.children]


def collapse_tests(
    sg: SGraph,
    manager: BddManager,
    max_exits: int = 8,
    max_size: int = 6,
) -> int:
    """Collapse closed TEST subgraphs into single multiway TEST vertices.

    "A closed subgraph is one in which all incoming edges share a common
    parent; a closed subgraph of TEST nodes can be collapsed without
    changing the functionality of the s-graph" (Sec. III-B3d).  The collapsed
    vertex keeps, for each exit, the Boolean path condition from the
    subgraph root; code generation turns these into an if-then-else cascade.

    Returns the number of subgraphs collapsed.
    """
    collapsed = 0
    blocklist: Set[int] = set()
    while True:
        parents = _parents(sg)
        candidate = _find_closed_subgraph(sg, parents, max_size, blocklist)
        if candidate is None:
            return collapsed
        root, members = candidate
        exits: List[int] = []
        conditions: List[Function] = []

        def explore(vid: int, cond: Function) -> None:
            if vid not in members:
                if vid in exits:
                    index = exits.index(vid)
                    conditions[index] = conditions[index] | cond
                else:
                    exits.append(vid)
                    conditions.append(cond)
                return
            vertex = sg.vertex(vid)
            assert vertex.kind == TEST and not vertex.is_switch
            var_fn = manager.var(vertex.var)
            explore(vertex.children[0], cond & ~var_fn)
            explore(vertex.children[1], cond & var_fn)

        explore(root, manager.true)
        if len(exits) > max_exits or len(exits) < 2:
            blocklist.add(root)
            continue
        # Replace: a multiway TEST whose branch conditions are the collapsed
        # path predicates over the original test variables.
        new_vid = sg._add(
            Vertex(
                vid=-1,
                kind=TEST,
                children=list(exits),
                infeasible=[cond.is_false for cond in conditions],
            )
        ).vid
        vertex = sg.vertex(new_vid)
        vertex.collapsed_predicates = conditions  # type: ignore[attr-defined]
        blocklist.add(new_vid)
        _redirect(sg, root, new_vid)
        sg.drop_unreachable()
        collapsed += 1


def _find_closed_subgraph(
    sg: SGraph,
    parents: Dict[int, Set[int]],
    max_size: int,
    blocklist: Set[int],
) -> Optional[Tuple[int, Set[int]]]:
    """A root + member-set of >=2 binary TESTs closed under incoming edges."""
    reach = sg.reachable()
    for root in sorted(reach):
        if root in blocklist:
            continue
        vertex = sg.vertex(root)
        if vertex.kind != TEST or vertex.is_switch or getattr(vertex, "collapsed_predicates", None):
            continue
        members = {root}
        frontier = [c for c in vertex.children]
        while frontier and len(members) < max_size:
            vid = frontier.pop()
            if vid in members:
                continue
            child = sg.vertex(vid)
            if child.kind != TEST or child.is_switch or getattr(child, "collapsed_predicates", None):
                continue
            if not parents.get(vid, set()) <= members:
                continue  # entered from outside: not closed
            members.add(vid)
            frontier.extend(child.children)
        if len(members) >= 2:
            return root, members
    return None
