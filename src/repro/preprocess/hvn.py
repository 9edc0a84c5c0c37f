"""The offline label stages: OVS and the HVN/HU lattice (Hardekopf & Lin, SAS 2007).

The companion paper to the one reproduced here ("Exploiting Pointer and
Location Equivalence to Optimize Pointer Analysis") shows that the
online constraint graph can be shrunk 30-60% *beyond* plain OVS by two
offline analyses run before any solver starts:

- **HVN** (hash-based value numbering) assigns every node of an offline
  constraint graph one *value number* via hashed label sets; nodes with
  equal numbers are pointer-equivalent (provably identical points-to
  sets) and collapse to one online node.
- **HU** (the union-aware extension) symbolically evaluates the label
  *unions* instead of hashing them, so it proves strictly more
  equivalences (``c ⊇ a, b`` with ``pts(a) ⊆ pts(b)`` still matches a
  plain copy of ``b``) and detects provably-empty pointers whose
  constraints are deleted outright.

The offline graph distinguishes **direct** nodes (top-level variables,
whose points-to sets are fully described by their incoming copy edges)
from **indirect** ones — *ref* nodes standing for the unknown result of
a dereference ``*(p+k)``, and address-taken variables writable through
pointers.  Indirect nodes receive a *fresh* label (an opaque unknown);
``p = &x`` contributes an interned ADR label per location so ``p = &x``
and ``q = &x`` match.  Labels propagate over the Tarjan-condensed graph
in topological order.  Every label bit denotes a fixed set of locations
(an ADR bit denotes that location; a fresh bit denotes the node's
unknown inflow), and a node's points-to set in the least model is
exactly the union of its bits' denotations — so equal label sets prove
equal points-to sets.  Store constraints deliberately contribute *no*
edges: an edge ``src → *(p+k)`` would assert ``pts(src)`` flows through
the ref, which is false when ``pts(p)`` is empty, and the ref's fresh
label already accounts for whatever stores actually deliver.

Two refinements close the lattice, both realized by **iterating
reduce-and-rewrite to a fixpoint** rather than by threading extra state
through one pass:

- **Ref-node unification** (the paper's "HR" iteration): once ``p ≡ q``
  is proven and the system rewritten, ``*(p+k)`` and ``*(q+k)`` name the
  same variable and offset, so the next pass keys them to the same ref
  node and can merge their load targets too.
- **Location equivalence**: locations that provably occur in exactly
  the same points-to sets (equal ADR-use label sets, never written
  directly, not part of any function/object block) are merged so every
  downstream points-to set stores one id per class.  Merged locations
  narrow each online set *and* delete whole nodes; after the rewrite
  their ADR labels coincide, which cascades into further pointer
  merges.  The substitution map re-expands set contents at export time.

Each round is plain, independently-sound HVN/HU on the current system,
so soundness composes by induction; rounds after the first run on a
system ~10x smaller, so the fixpoint costs little more than one pass.

**OVS** — Rountev & Chandra's Offline Variable Substitution, the
paper's pre-processing step — is the first HU round alone: union
labels, pointer merges and dead-constraint deletion, without location
equivalence or a second round.  No store is armed in a first round, so
nothing else differs.

Label sets are Python bignums (one bit per label), in the spirit of the
``int`` points-to family: unions are single ``|`` expressions and
interning is one dict probe.  Each round numbers its label bits densely
over the live system — address-taken locations, then protected
variables, then ref nodes, then value numbers — and works on flat int
rows, so a round costs what the live constraints cost rather than what
the variable id space costs (see :class:`_LabelPass`).

Everything is exposed as a composable pipeline stage: see
:func:`preprocess_system` and :data:`OPT_STAGES` for the
``--opt none|ovs|hvn|hu`` chain the solvers and the CLI consume, and
:class:`SubstitutionMap` for the contract that maps solutions of the
reduced system back onto the original variable space.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    AbstractSet,
    DefaultDict,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import (
    Constraint,
    ConstraintKind,
    ConstraintSystem,
    Provenance,
)
from repro.graph.scc import tarjan_scc

#: The offline pipeline stages, weakest to strongest.  ``none`` feeds the
#: solver the raw constraints; ``ovs`` is Rountev-style offline variable
#: substitution, run here as a single HU round without location
#: equivalence; ``hvn`` and ``hu`` iterate rounds to a fixpoint (both
#: include ref-node unification and location equivalence — HU
#: additionally evaluates label unions).
OPT_STAGES: Tuple[str, ...] = ("none", "ovs", "hvn", "hu")

#: Fixpoint bound for the reduce-and-rewrite cascade.  Front-end units
#: converge in 2-3 rounds and the synthetic profiles at 1/128 in 4-8;
#: the wine/linux profiles at 1/32 take 6-8, and some reach their
#: fixpoint exactly at the bound.  Stopping early is sound (every round
#: is), and :attr:`PreprocessResult.converged` reports a stop at the
#: bound.
_MAX_ROUNDS = 8


# ----------------------------------------------------------------------
# The substitution-map contract
# ----------------------------------------------------------------------


@dataclass
class SubstitutionMap:
    """How to map a solution of the reduced system back to all variables.

    ``var_to_rep[v]`` names the representative whose points-to set stands
    in for ``v`` during solving (identity when ``v`` survived on its own).
    ``loc_members`` maps each merged *location* representative to the full
    tuple of original locations it stands for inside points-to sets; only
    classes with two or more members appear.

    The contract: for the least model ``S`` of the original system and
    the least model ``R`` of the reduced system,
    ``S[v] = expand(R[var_to_rep[v]])`` where ``expand`` replaces each
    location representative with its class members.  Every consumer of an
    optimized run — ``repro verify``, the checkers, provenance — sees
    only the expanded solution, so nothing downstream knows or cares that
    a substitution happened.
    """

    var_to_rep: List[int]
    loc_members: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def is_identity(self) -> bool:
        return not self.loc_members and all(
            rep == var for var, rep in enumerate(self.var_to_rep)
        )

    def merged_var_count(self) -> int:
        """Variables whose online node was substituted away."""
        return sum(1 for var, rep in enumerate(self.var_to_rep) if rep != var)

    def merged_location_count(self) -> int:
        """Locations folded into a class representative."""
        return sum(len(members) - 1 for members in self.loc_members.values())

    def expand_solution(self, solution: PointsToSolution) -> PointsToSolution:
        """Expand a reduced-system solution to the original variables."""
        return solution.expand(self.var_to_rep, self.loc_members or None)

    @classmethod
    def identity(cls, num_vars: int) -> "SubstitutionMap":
        return cls(list(range(num_vars)))


@dataclass
class PreprocessResult:
    """Outcome of one offline pipeline stage."""

    stage: str
    original: ConstraintSystem
    reduced: ConstraintSystem
    substitution: SubstitutionMap
    offline_seconds: float
    passes: int
    #: False when the reduce-and-rewrite cascade stopped at
    #: ``_MAX_ROUNDS`` before reaching its fixpoint.
    converged: bool = True

    @property
    def reduction_ratio(self) -> float:
        """Fraction of constraints eliminated."""
        before = len(self.original)
        if before == 0:
            return 0.0
        return 1.0 - len(self.reduced) / before

    def merged_count(self) -> int:
        return self.substitution.merged_var_count()

    def locations_merged(self) -> int:
        return self.substitution.merged_location_count()

    def constraints_deleted(self) -> int:
        return len(self.original) - len(self.reduced)

    def expand(self, solution: PointsToSolution) -> PointsToSolution:
        return self.substitution.expand_solution(solution)


# ----------------------------------------------------------------------
# Constraint rows
# ----------------------------------------------------------------------

#: Rounds run on flat ``(kind, dst, src, offset)`` int rows with a
#: parallel provenance list; ``Constraint`` objects and the reduced
#: ``ConstraintSystem`` are built once, after the fixpoint.
_BASE, _COPY, _LOAD, _STORE, _OFFS = range(5)
_KINDS: Tuple[ConstraintKind, ...] = (
    ConstraintKind.BASE,
    ConstraintKind.COPY,
    ConstraintKind.LOAD,
    ConstraintKind.STORE,
    ConstraintKind.OFFS,
)
_KIND_CODE: Dict[ConstraintKind, int] = {kind: code for code, kind in enumerate(_KINDS)}

_Row = Tuple[int, int, int, int]


def _block_members(system: ConstraintSystem) -> Set[int]:
    """Ids inside any function/object block: offset arithmetic addresses
    them relative to the block base, so neither their node nor their
    location identity may move."""
    members: Set[int] = set()
    for info in system.functions.values():
        members.update(range(info.node, info.node + info.block_size))
    for block in system.object_blocks.values():
        members.update(range(block.node, block.node + block.block_size))
    return members


# ----------------------------------------------------------------------
# One label-propagation pass
# ----------------------------------------------------------------------


@dataclass
class _LabelPass:
    """One round's labels and the dense bit numbering they are drawn from.

    The numbering is rebuilt every round over the live rows: ADR bit
    ``i`` is the location ``locations[i]`` (address-taken locations in
    sorted order); the next ``len(fresh_bit)`` bits are the fresh labels
    of the protected variables, by rank; then one fresh bit per ref
    node; then the HVN value numbers.  A label is as wide as the live
    label universe, not the variable id space.
    """

    #: One label per offline node: variables by id (0 for a variable no
    #: row mentions), then the ref nodes.
    labels: List[int]
    #: The variables the rows mention plus the block members, sorted.
    live: List[int]
    #: ``locations[i]`` is the location ADR bit ``i`` denotes.
    locations: List[int]
    #: Protected (indirect) variable -> its fresh bit.  Protected
    #: variables are writable through channels the offline graph cannot
    #: see (indirect stores, offset stores into blocks): they receive
    #: fresh labels and are never substituted away.
    fresh_bit: Dict[int, int]
    #: Location -> the BASE destinations taking its address (ADR uses).
    adr_dests: Dict[int, Set[int]]
    #: Ref nodes (offline node ids from ``num_vars`` up) this pass made.
    ref_count: int
    #: HVN value numbers this pass drew (0 under HU).
    value_numbers: int


def _label_pass(
    rows: Sequence[_Row],
    num_vars: int,
    block_members: Set[int],
    mode: str,
    armed_stores: AbstractSet[int],
) -> _LabelPass:
    """Label every variable ``rows`` mention (see :class:`_LabelPass`).

    ``armed_stores`` lists row indices of STOREs proven to fire (their
    pointer provably reaches a location the offset is valid for); those
    — and only those — contribute an edge into the target ref node,
    because only then is ``loadval(p,k) ⊇ pts(src)`` guaranteed and the
    ref's label still an exact union decomposition.
    """
    live: Set[int] = set(block_members)
    live.update(map(itemgetter(1), rows))
    live.update(map(itemgetter(2), rows))
    adr_dests: DefaultDict[int, Set[int]] = defaultdict(set)
    ref_ids: Dict[Tuple[int, int, int], int] = {}
    preds: DefaultDict[int, List[int]] = defaultdict(list)
    succs: DefaultDict[int, List[int]] = defaultdict(list)

    def ref_node(key: Tuple[int, int, int]) -> int:
        node = ref_ids.get(key)
        if node is None:
            node = ref_ids[key] = num_vars + len(ref_ids)
        return node

    for index, (kind, dst, src, offset) in enumerate(rows):
        if kind == _BASE:
            adr_dests[src].add(dst)
            continue
        if kind == _COPY:
            if src == dst:
                continue
        elif kind == _STORE:
            # Unproven stores contribute no edges (see the module
            # docstring): the target refs' fresh labels cover them.
            if index not in armed_stores:
                continue
            dst = ref_node((_LOAD, dst, offset))
        else:
            # LOAD reads the ref node *(src+k).  OFFS is a shifted copy:
            # pts(dst) = pts(src)+k is opaque to the label calculus, but
            # two shifts of the same source at the same offset are
            # equivalent — model each as a ref node of its own kind.
            src = ref_node((kind, src, offset))
        preds[dst].append(src)
        succs[src].append(dst)

    locations = sorted(adr_dests)
    fresh_base = len(locations)
    fresh_bit = {
        var: fresh_base + rank
        for rank, var in enumerate(sorted(adr_dests.keys() | block_members))
    }
    ref_base = fresh_base + len(fresh_bit)
    value_base = ref_base + len(ref_ids)

    own_bits = [0] * (num_vars + len(ref_ids))
    for rank, loc in enumerate(locations):
        adr = 1 << rank
        for dst in adr_dests[loc]:
            own_bits[dst] |= adr
    for var, bit in fresh_bit.items():
        own_bits[var] |= 1 << bit
    for index in range(len(ref_ids)):
        own_bits[num_vars + index] = 1 << (ref_base + index)

    # Condense only nodes that have edges: everything else (plain BASE
    # destinations, isolated block members) keeps its own-bits label.
    # Tarjan emits components sinks-first; propagation wants sources
    # first, i.e. the reverse.
    components = tarjan_scc(sorted(preds.keys() | succs.keys()), succs.__getitem__)

    labels: List[int] = list(own_bits)
    next_label = value_base
    if mode != "hvn":
        # HU (and OVS) symbolic evaluation: a node's label set is the
        # union of its predecessors' sets plus its own labels.  Members
        # of one SCC share a set (same-component preds read 0 mid-walk;
        # harmless, their own bits are OR-ed in directly).
        for component in reversed(components):
            bits = 0
            for member in component:
                bits |= own_bits[member]
                for pred in preds.get(member, ()):
                    bits |= labels[pred]
            for member in component:
                labels[member] = bits
    else:
        # HVN: a predecessor contributes its *value number* — the
        # interned identity of its label set — instead of the set, with
        # the single-source inheritance rule collapsing pure copy chains.
        value_numbers: Dict[int, int] = {}
        for component in reversed(components):
            member_set = set(component)
            own = 0
            pred_sets: Set[int] = set()
            for member in component:
                own |= own_bits[member]
                for pred in preds.get(member, ()):
                    if pred in member_set:
                        continue
                    pred_labels = labels[pred]
                    if pred_labels:  # provably-empty sources add nothing
                        pred_sets.add(pred_labels)
            if not own and len(pred_sets) == 1:
                bits = next(iter(pred_sets))
            else:
                bits = own
                for pred_labels in pred_sets:
                    number = value_numbers.get(pred_labels)
                    if number is None:
                        number = next_label
                        next_label += 1
                        value_numbers[pred_labels] = number
                    bits |= 1 << number
            for member in component:
                labels[member] = bits

    return _LabelPass(
        labels=labels,
        live=sorted(live),
        locations=locations,
        fresh_bit=fresh_bit,
        adr_dests=adr_dests,
        ref_count=len(ref_ids),
        value_numbers=next_label - value_base,
    )


# ----------------------------------------------------------------------
# One reduce round: labels -> merges -> rewritten rows
# ----------------------------------------------------------------------


def _armed_stores(
    rows: Sequence[_Row], labelled: _LabelPass, max_offset: Sequence[int]
) -> Set[int]:
    """Indices of STORE rows proven to fire under ``labelled``.

    An ADR bit travels only along edges whose delivery is unconditional,
    so a location bit in the pointer's label is a guaranteed member of
    its points-to set — and a store through it provably delivers its
    source into the ref node the loads read.  For offset stores the
    witness must be a block base the offset stays inside (block bases
    are never merged or compressed, so witnesses survive rewrites and a
    previous round's labels remain valid evidence).
    """
    labels = labelled.labels
    locations = labelled.locations
    loc_mask = (1 << len(locations)) - 1
    armed: Set[int] = set()
    for index, (kind, dst, _, offset) in enumerate(rows):
        if kind != _STORE:
            continue
        bits = labels[dst] & loc_mask
        if not bits:
            continue
        if offset == 0:
            armed.add(index)
            continue
        while bits:  # any witness location the offset stays inside?
            witness = locations[(bits & -bits).bit_length() - 1]
            if max_offset[witness] >= offset:
                armed.add(index)
                break
            bits &= bits - 1
    return armed


def _reduce_round(
    rows: List[_Row],
    provs: List[Optional[Provenance]],
    num_vars: int,
    block_members: Set[int],
    mode: str,
    armed: AbstractSet[int],
) -> Tuple[List[_Row], List[Optional[Provenance]], List[int], Dict[int, int], _LabelPass]:
    """Run one label pass and rewrite the rows over the merges found.

    ``armed`` carries store-arming evidence from the previous round's
    labels.  Returns ``(rows, provs, var_to_rep, loc_rep, labelled)``:
    the rewritten rows and their provenance, this round's variable map
    (total over ``num_vars``) and location map (merged locations only),
    and the label pass.
    """
    labelled = _label_pass(rows, num_vars, block_members, mode, armed)
    labels = labelled.labels
    live = labelled.live
    protected = labelled.fresh_bit

    # Pointer equivalence: equal labels prove equal points-to sets.
    # Indirect variables keep their online node (stores target them by
    # id), but they still *join* classes: an unprotected variable with
    # the same label as a protected one can adopt it as representative.
    # Every variable no row mentions has label 0, so it joins the label-0
    # class, whose representative is the lowest-id label-0 variable.
    first_untouched = next(
        (rank for rank, var in enumerate(live) if var != rank), len(live)
    )
    zero_rep = min(
        first_untouched, next((var for var in live if not labels[var]), num_vars)
    )
    var_to_rep = [zero_rep] * num_vars
    class_rep: Dict[int, int] = {0: zero_rep}
    for var in live:
        rep = class_rep.setdefault(labels[var], var)
        var_to_rep[var] = var if var in protected else rep

    # Location equivalence.  Equal ADR-use label sets prove equal set
    # *membership* (the addresses enter pointer-equivalent destinations
    # and every constraint moves whole sets, so the locations co-occur
    # everywhere).  Equal labels-minus-own-fresh additionally prove
    # equal *own* points-to sets: co-occurrence makes the indirect
    # inflows (what the fresh bits denote) identical, and the remaining
    # bits cover all direct inflow.  Together the class folds onto one
    # location id — in sets and as a node.  Block members are excluded:
    # offset arithmetic can neither produce nor target the others, so
    # every offset filter treats a class uniformly.  OVS merges pointers
    # only.
    loc_rep: Dict[int, int] = {}
    class_by_key: Dict[Tuple[FrozenSet[int], int], int] = {}
    locations = labelled.locations if mode != "ovs" else ()
    for loc in locations:
        if loc in block_members:
            continue
        uses = frozenset(labels[dst] for dst in labelled.adr_dests[loc])
        masked = labels[loc] & ~(1 << protected[loc])
        rep = class_by_key.setdefault((uses, masked), loc)
        if rep != loc:
            loc_rep[loc] = rep
            var_to_rep[loc] = rep

    # A pointer-equivalence representative may itself have been folded
    # by location equivalence; compress chains so the rewrite lands
    # every constraint on the final representative (chains have length
    # at most 2 and no cycles: LE representatives are never re-mapped).
    for var in live:
        rep = var_to_rep[var]
        if var_to_rep[rep] != rep:
            var_to_rep[var] = var_to_rep[rep]

    rows, provs = _rewrite(rows, provs, labels, var_to_rep, loc_rep)
    return rows, provs, var_to_rep, loc_rep, labelled


def hvn_reduce(system: ConstraintSystem, mode: str = "hu") -> PreprocessResult:
    """Run the OVS, HVN or HU pipeline stage (``mode`` names it).

    Under HVN and HU, reduce-and-rewrite rounds repeat until nothing
    merges: rewriting makes proven-equivalent pointers *the same
    variable*, which unifies their ref nodes, and makes merged locations
    *the same ADR label*, which equalizes their users — each round
    therefore unlocks merges the previous one could not see (the paper's
    HR/LE cascade).  OVS is the first HU round alone, without location
    equivalence: Rountev & Chandra's pointer-equivalence substitution.
    """
    if mode not in OPT_STAGES[1:]:
        raise ValueError(f"mode must be 'ovs', 'hvn' or 'hu', got {mode!r}")
    start = time.perf_counter()
    num_vars = system.num_vars
    block_members = _block_members(system)

    constraints = system.constraints
    rows: List[_Row] = [(_KIND_CODE[c.kind], c.dst, c.src, c.offset) for c in constraints]
    provs: List[Optional[Provenance]] = [c.prov for c in constraints]
    total_var_to_rep = list(range(num_vars))
    #: Merged location -> its class representative, over all rounds.
    total_loc_rep: Dict[int, int] = {}
    passes = 0
    converged = False
    armed: Set[int] = set()
    while passes < _MAX_ROUNDS:
        passes += 1
        reduced_rows, provs, var_to_rep, loc_rep, labelled = _reduce_round(
            rows, provs, num_vars, block_members, mode, armed
        )
        total_var_to_rep = [var_to_rep[rep] for rep in total_var_to_rep]
        if loc_rep:
            total_loc_rep = {
                loc: loc_rep.get(rep, rep) for loc, rep in total_loc_rep.items()
            }
            total_loc_rep.update(loc_rep)
        # Progress test: merges among variables the rows no longer
        # mention are invisible (already-substituted orphans all share
        # the empty label), so "changed" is "the rewrite did not
        # reproduce its input".  Arm the next round's stores from this
        # round's labels (witnesses survive the rewrite — block bases
        # are never merged).  Fixpoint needs *both* the rows and the
        # armed set stable: fresh labels can prove new stores even when
        # no row changed.
        changed = reduced_rows != rows
        rows = reduced_rows
        if mode == "ovs":
            converged = True  # one round is the whole stage
            break
        next_armed = _armed_stores(rows, labelled, system.max_offset)
        if not changed and next_armed == armed:
            converged = True
            break
        armed = next_armed

    # A class representative is its lowest-id member and never merged.
    members_of: Dict[int, List[int]] = {}
    for loc, rep in sorted(total_loc_rep.items()):
        members_of.setdefault(rep, [rep]).append(loc)
    loc_members = {rep: tuple(members) for rep, members in sorted(members_of.items())}

    reduced = system.with_constraints(
        [
            Constraint(_KINDS[kind], dst, src, offset, prov)
            for (kind, dst, src, offset), prov in zip(rows, provs)
        ]
    )
    elapsed = time.perf_counter() - start
    return PreprocessResult(
        stage=mode,
        original=system,
        reduced=reduced,
        substitution=SubstitutionMap(total_var_to_rep, loc_members),
        offline_seconds=elapsed,
        passes=passes,
        converged=converged,
    )


# ----------------------------------------------------------------------
# Constraint rewriting
# ----------------------------------------------------------------------


def _rewrite(
    rows: Sequence[_Row],
    provs: Sequence[Optional[Provenance]],
    labels: Sequence[int],
    var_to_rep: Sequence[int],
    loc_rep: Mapping[int, int],
) -> Tuple[List[_Row], List[Optional[Provenance]]]:
    """Substitute representatives and delete provably-dead rows.

    A label set of 0 proves an always-empty points-to set: copies and
    offset-copies from such a variable can never act, loads and stores
    through such a pointer can never fire, and stores *of* such a value
    write nothing — all are deleted outright (the HU detection; under
    HVN the same rule applies to the strictly fewer empties it proves).
    A row the rewrite produces twice keeps the first one's provenance.
    """
    reduced: List[_Row] = []
    reduced_provs: List[Optional[Provenance]] = []
    seen: Set[_Row] = set()
    for (kind, dst, src, offset), prov in zip(rows, provs):
        if kind == _BASE:
            row = (kind, var_to_rep[dst], loc_rep.get(src, src), 0)
        elif not labels[src] or (kind == _STORE and not labels[dst]):
            continue
        else:
            row = (kind, var_to_rep[dst], var_to_rep[src], offset)
            if kind == _COPY and row[1] == row[2]:
                continue
        if row not in seen:
            seen.add(row)
            reduced.append(row)
            reduced_provs.append(prov)
    return reduced, reduced_provs


# ----------------------------------------------------------------------
# The pipeline dispatcher
# ----------------------------------------------------------------------


def preprocess_system(
    system: ConstraintSystem, opt: str = "hu"
) -> PreprocessResult:
    """Run one named offline stage and return its :class:`PreprocessResult`.

    ``opt`` is one of :data:`OPT_STAGES`; every stage (including
    ``"none"``) returns the same result shape, so callers compose the
    pipeline without caring which stage ran.
    """
    if opt not in OPT_STAGES:
        known = ", ".join(OPT_STAGES)
        raise ValueError(f"unknown optimization stage {opt!r}; known: {known}")
    if opt == "none":
        return PreprocessResult(
            stage="none",
            original=system,
            reduced=system,
            substitution=SubstitutionMap.identity(system.num_vars),
            offline_seconds=0.0,
            passes=0,
        )
    return hvn_reduce(system, mode=opt)


def live_var_count(system: ConstraintSystem) -> int:
    """Number of distinct variables the online constraint graph will
    actually touch — the node count the offline pipeline is shrinking."""
    live: Set[int] = set()
    for constraint in system.constraints:
        live.add(constraint.dst)
        live.add(constraint.src)
    return len(live)
