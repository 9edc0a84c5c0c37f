"""Solver interface, statistics, and the shared HCD online machinery.

Section 5.3 of the paper explains the algorithms' relative performance
through three machine-independent counters, all tracked here:

- **nodes collapsed** — variables merged away by cycle collapsing;
- **nodes searched** — nodes visited by cycle-detection graph traversals
  (pure overhead; HCD's headline property is that this is zero);
- **propagations** — points-to set unions performed across constraint
  edges (the most expensive operation in the analysis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.solution import PointsToSolution
from repro.constraints.model import ConstraintSystem
from repro.contexts.manager import (
    ContextExpansion,
    CtxStats,
    cached_expansion,
    expand_contexts,
)
from repro.datastructs.intern_table import InternStats
from repro.datastructs.intset import iter_bits as _iter_bits
from repro.datastructs.sparse_bitmap import SparseBitmap
from repro.graph.constraint_graph import ConstraintGraph
from repro.points_to.interface import PointsToFamily, make_family
from repro.preprocess.hcd_offline import HCDOfflineResult, hcd_offline_analysis
from repro.preprocess.hvn import PreprocessResult, preprocess_system
from repro.verify.sanitizer import Sanitizer, VerifyStats


@dataclass
class OptStats:
    """Counters for the offline optimization stage (``--opt``).

    ``vars_merged`` counts variables substituted by a pointer-equivalent
    representative, ``locations_merged`` the locations folded into a
    location-equivalence class; both are undone at export time through
    the stage's substitution map, so they are pure node-count savings.
    ``converged`` is False when HVN/HU stopped at its round bound before
    reaching the fixpoint (sound, but reduction was left on the table).
    """

    stage: str = "none"
    passes: int = 0
    converged: bool = True
    vars_merged: int = 0
    locations_merged: int = 0
    constraints_deleted: int = 0
    offline_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "passes": self.passes,
            "converged": self.converged,
            "vars_merged": self.vars_merged,
            "locations_merged": self.locations_merged,
            "constraints_deleted": self.constraints_deleted,
            "offline_seconds": self.offline_seconds,
        }


@dataclass
class SolverStats:
    """Counters and timings for one solver run."""

    propagations: int = 0
    nodes_searched: int = 0
    nodes_collapsed: int = 0
    cycles_collapsed: int = 0
    edges_added: int = 0
    lcd_triggers: int = 0
    hcd_collapses: int = 0
    iterations: int = 0
    hcd_offline_seconds: float = 0.0
    solve_seconds: float = 0.0
    pts_memory_bytes: int = 0
    graph_memory_bytes: int = 0
    #: Filled in by runs using the hash-consed "shared" points-to family.
    intern: Optional[InternStats] = None
    #: Filled in by runs with the invariant sanitizer installed.
    verify: Optional[VerifyStats] = None
    #: Filled in by runs with an offline optimization stage (--opt).
    opt: Optional[OptStats] = None
    #: Filled in by context-sensitive runs (--k-cs > 0).
    ctx: Optional[CtxStats] = None

    @property
    def total_memory_bytes(self) -> int:
        return self.pts_memory_bytes + self.graph_memory_bytes

    def as_dict(self) -> Dict[str, float]:
        data = {
            "propagations": self.propagations,
            "nodes_searched": self.nodes_searched,
            "nodes_collapsed": self.nodes_collapsed,
            "cycles_collapsed": self.cycles_collapsed,
            "edges_added": self.edges_added,
            "lcd_triggers": self.lcd_triggers,
            "hcd_collapses": self.hcd_collapses,
            "iterations": self.iterations,
            "hcd_offline_seconds": self.hcd_offline_seconds,
            "solve_seconds": self.solve_seconds,
            "pts_memory_bytes": self.pts_memory_bytes,
            "graph_memory_bytes": self.graph_memory_bytes,
        }
        if self.intern is not None:
            for key, value in self.intern.as_dict().items():
                data[f"intern_{key}"] = value
        if self.verify is not None:
            for key, value in self.verify.as_dict().items():
                data[f"verify_{key}"] = value
        if self.opt is not None:
            for key, value in self.opt.as_dict().items():
                data[f"opt_{key}"] = value
        if self.ctx is not None:
            for key, value in self.ctx.as_dict().items():
                data[f"ctx_{key}"] = value
        return data


class BaseSolver:
    """Common solver shell: naming, timing, stats, solution export."""

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        system: ConstraintSystem,
        pts: str = "bitmap",
        hcd: bool = False,
        sanitize: bool = False,
        opt: str = "none",
        k_cs: int = 0,
    ) -> None:
        #: The system as handed in — solutions are always exported in its
        #: variable space, whatever ``--k-cs`` / ``--opt`` did to the
        #: constraints.
        self.original_system = system
        self.opt = opt
        self.k_cs = int(k_cs)
        self.preprocess: Optional[PreprocessResult] = None
        self.context: Optional[ContextExpansion] = None
        self.stats = SolverStats()
        if self.k_cs:
            # Context expansion runs before *everything* else in the
            # offline pipeline: HVN/HU and HCD's offline pass analyze the
            # cloned constraint system the solver will actually solve.
            context = cached_expansion(system, self.k_cs)
            if context is None:
                context = expand_contexts(system, self.k_cs)
                self.stats.ctx = context.stats
            else:
                # A cache hit did no expansion work: report the sizes but
                # not the first run's time, and leave the cached stats be.
                self.stats.ctx = replace(
                    context.stats, bootstrap_seconds=0.0, offline_seconds=0.0
                )
            self.context = context
            system = context.expanded
        if opt != "none":
            # The offline pipeline stage runs before *everything* —
            # including HCD's offline pass, which should analyze the
            # constraints the solver will actually see.
            pre = preprocess_system(system, opt)
            self.preprocess = pre
            system = pre.reduced
            self.stats.opt = OptStats(
                stage=pre.stage,
                passes=pre.passes,
                converged=pre.converged,
                vars_merged=pre.merged_count(),
                locations_merged=pre.locations_merged(),
                constraints_deleted=pre.constraints_deleted(),
                offline_seconds=pre.offline_seconds,
            )
        self.system = system
        self.pts_kind = pts
        self.hcd_enabled = hcd
        #: Invariant checks at collapse/propagate boundaries (--sanitize).
        self.sanitizer: Optional[Sanitizer] = Sanitizer(self) if sanitize else None
        self._solution: Optional[PointsToSolution] = None
        self._context_solution: Optional[PointsToSolution] = None
        self.hcd_offline: Optional[HCDOfflineResult] = None
        if hcd:
            self.hcd_offline = hcd_offline_analysis(system)
            self.stats.hcd_offline_seconds = self.hcd_offline.offline_seconds

    def solve(self) -> PointsToSolution:
        """Run the analysis (idempotent) and return the solution.

        When an offline stage substituted variables away, the reduced
        solution is expanded back to the original variable space here —
        every subclass and every consumer sees original-space solutions.
        At ``k_cs > 0`` the clone-space solution is additionally
        projected onto the base variables (per-variable union over its
        context instances); :meth:`context_solution` keeps the
        unprojected form for the certifier.
        """
        if self._solution is None:
            start = time.perf_counter()
            solution = self._run()
            if self.preprocess is not None:
                solution = self.preprocess.expand(solution)
            self._context_solution = solution
            if self.context is not None:
                solution = self.context.project(solution)
            self._solution = solution
            self.stats.solve_seconds = time.perf_counter() - start
            if self.sanitizer is not None:
                self.sanitizer.final_check()
            self._account_memory()
        return self._solution

    def context_solution(self) -> PointsToSolution:
        """The pre-projection (clone-space) solution.

        Identical to :meth:`solve` at ``k_cs == 0``.  At ``k_cs > 0``
        this is the solution of ``self.context.expanded`` — the system a
        certifier must check, since the projected base-space solution
        deliberately violates the original constraints (that violation
        is the precision win).
        """
        self.solve()
        return self._context_solution

    def _run(self) -> PointsToSolution:
        raise NotImplementedError

    def _account_memory(self) -> None:
        """Subclasses fill in ``pts_memory_bytes`` / ``graph_memory_bytes``."""

    @property
    def full_name(self) -> str:
        return f"{self.name}+hcd" if self.hcd_enabled else self.name


class GraphSolver(BaseSolver):
    """Base for the explicit constraint-graph solvers (naive/PKH/LCD/HCD).

    Owns the :class:`ConstraintGraph`, the points-to family, and the
    shared pieces of the worklist algorithms: complex-constraint
    resolution, propagation along edges, cycle collapsing, and the HCD
    pair lookup of Figure 5.
    """

    def __init__(
        self,
        system: ConstraintSystem,
        pts: str = "bitmap",
        hcd: bool = False,
        worklist: str = "divided-lrf",
        difference_propagation: bool = False,
        sanitize: bool = False,
        opt: str = "none",
        k_cs: int = 0,
    ) -> None:
        super().__init__(
            system, pts=pts, hcd=hcd, sanitize=sanitize, opt=opt, k_cs=k_cs
        )
        system = self.system  # the (possibly) offline-reduced system
        self.worklist_strategy = worklist
        #: Difference propagation (Pearce, Kelly & Hankin, SCAM 2003):
        #: offer successors only the pointees they have not seen, except
        #: over newly inserted edges, which carry the full set once.
        self.difference_propagation = difference_propagation
        self.family: PointsToFamily = make_family(pts, system.num_vars)
        #: Fused word-parallel kernel: families whose sets are canonical
        #: bignums (``int``) run batched whole-set diffs instead of the
        #: per-element loops, with propagation steps memoized through the
        #: intern table (union/add/offset memos).
        self._fused = bool(getattr(self.family, "fused_kernel", False))
        #: offset -> bignum mask of locations with max_offset >= offset
        #: (the certifier's ``_offset_mask`` trick), built lazily.
        self._offset_masks: Dict[int, int] = {}
        self.graph = ConstraintGraph(system, self.family)
        #: HCD pair list L, keyed by current representative.
        self._hcd_pairs: Dict[int, List[Tuple[int, int]]] = {}
        #: Pointees already collapsed through a node's pairs (difference
        #: processing, mirroring ConstraintGraph.complex_done).
        self._hcd_done: Dict[int, "SparseBitmap"] = {}
        if self.hcd_offline is not None:
            for var, pairs in self.hcd_offline.pairs.items():
                self._hcd_pairs.setdefault(var, []).extend(pairs)
            # Copy-only offline SCCs collapse before solving starts.
            for group in self.hcd_offline.direct_groups:
                self.collapse_nodes(group)

    # ------------------------------------------------------------------
    # Collapsing
    # ------------------------------------------------------------------

    def collapse_nodes(self, members: Iterable[int], push=None) -> int:
        """Collapse ``members`` into one node, keeping stats and the HCD
        pair table coherent.  Returns the representative.

        ``push`` re-queues the representative when the merge left
        cross-resolution jobs behind (see
        :attr:`ConstraintGraph.pending_complex`); callers inside the
        solving loop must supply it.
        """
        member_list = list(members)
        old_reps = {self.graph.find(m) for m in member_list}
        rep, merged = self.graph.collapse(member_list)
        if merged:
            if self.sanitizer is not None:
                self.sanitizer.after_collapse(rep, member_list, old_reps)
            self.stats.nodes_collapsed += merged
            self.stats.cycles_collapsed += 1
            for old in old_reps:
                if old != rep and old in self._hcd_pairs:
                    self._hcd_pairs.setdefault(rep, []).extend(
                        self._hcd_pairs.pop(old)
                    )
                    # The pair list changed: pointees must be re-examined
                    # against the newly acquired pairs.
                    self._hcd_done.pop(rep, None)
                if old != rep:
                    self._hcd_done.pop(old, None)
            if self.graph.pending_complex[rep]:
                if push is not None:
                    push(rep)
        return rep

    # ------------------------------------------------------------------
    # The Figure 5 check: preemptive collapse via the pair list L
    # ------------------------------------------------------------------

    def hcd_check(self, node: int, push) -> int:
        """If ``(node, a)`` is in L, collapse a's partners with pts(node).

        ``push`` is the worklist-insert callback; returns the (possibly
        new) representative of ``node``.
        """
        pairs = self._hcd_pairs.get(node)
        if not pairs:
            return node
        graph = self.graph
        done = self._hcd_done.get(node)
        if done is None:
            done = self._hcd_done[node] = self.family.make_scratch()
        if self._fused:
            # One word-parallel diff instead of a membership scan.
            fresh_bits = graph.pts_of(node).bits & ~done.bits
            if not fresh_bits:
                return node
            fresh = list(_iter_bits(fresh_bits))
        else:
            fresh = [loc for loc in graph.pts_of(node) if loc not in done]
            if not fresh:
                return node
        for offset, partner in list(pairs):
            targets = []
            for loc in fresh:
                target = graph.offset_target(loc, offset)
                if target is not None:
                    targets.append(target)
            if not targets:
                continue
            before = self.stats.nodes_collapsed
            rep = self.collapse_nodes([partner, *targets], push)
            if self.stats.nodes_collapsed > before:
                # Something actually merged: the representative's state
                # changed, so it must be reprocessed (Figure 5 pushes a).
                self.stats.hcd_collapses += 1
                push(rep)
        node = graph.find(node)
        if self._hcd_pairs.get(node) is pairs:
            # Same pair list: these pointees are fully handled.  (If the
            # collapse merged pair lists, the done-set was dropped and the
            # pointees will be re-examined against the acquired pairs.)
            done = self._hcd_done.get(node)
            if done is None:
                done = self._hcd_done[node] = self.family.make_scratch()
            if self._fused:
                done.bits |= fresh_bits
            else:
                for loc in fresh:
                    done.add(loc)
        return node

    # ------------------------------------------------------------------
    # Complex-constraint resolution (step 1 of the Figure 1 loop body)
    # ------------------------------------------------------------------

    def resolve_complex(self, node: int, push) -> None:
        """Add edges demanded by the complex constraints indexed at ``node``.

        For each pointee ``v`` of ``node``: loads ``dst = *(node+k)`` add
        ``v+k -> dst`` and queue ``v+k``; stores ``*(node+k) = src`` add
        ``src -> v+k`` and queue ``src`` (the new edge's source must
        propagate).
        """
        graph = self.graph
        fused = self._fused
        pending = graph.pending_complex[node]
        if pending:
            graph.pending_complex[node] = []
            for loads, stores, offs, locs in pending:
                if fused:
                    self._apply_complex_fused(loads, stores, offs, locs.bits, push)
                else:
                    self._apply_complex(loads, stores, offs, locs, push)
        loads = graph.loads[node]
        stores = graph.stores[node]
        offs = graph.offs[node]
        if not loads and not stores and not offs:
            return
        done = graph.complex_done[node]
        if fused:
            fresh_bits = graph.pts_of(node).bits & ~done.bits
            if not fresh_bits:
                return
            done.bits |= fresh_bits
            self._apply_complex_fused(loads, stores, offs, fresh_bits, push)
            return
        fresh = [loc for loc in graph.pts_of(node) if loc not in done]
        if not fresh:
            return
        for loc in fresh:
            done.add(loc)
        self._apply_complex(loads, stores, offs, fresh, push)

    def _apply_complex(self, loads, stores, offs, locs, push) -> None:
        """Apply the complex constraints in ``loads``/``stores``/``offs``
        to the pointees ``locs``: add demanded edges, and for the
        offset-copy form feed shifted locations straight into the
        destination's points-to set."""
        graph = self.graph
        find = graph.find
        succ = graph.succ
        max_offset = graph.system.max_offset
        diff_prop = self.difference_propagation
        edges_added = 0
        for dst, offset in loads:
            dst_rep = find(dst)
            for loc in locs:
                if offset:
                    if max_offset[loc] < offset:
                        continue
                    source = find(loc + offset)
                else:
                    source = find(loc)
                if source != dst_rep and succ[source].add(dst_rep):
                    edges_added += 1
                    if diff_prop:
                        graph.fresh_edges[source].append(dst_rep)
                    push(source)
        for src, offset in stores:
            src_rep = find(src)
            for loc in locs:
                if offset:
                    if max_offset[loc] < offset:
                        continue
                    target = find(loc + offset)
                else:
                    target = find(loc)
                if target != src_rep and succ[src_rep].add(target):
                    edges_added += 1
                    if diff_prop:
                        graph.fresh_edges[src_rep].append(target)
                    push(src_rep)
        for dst, offset in offs:
            dst_rep = find(dst)
            dst_pts = graph.pts[dst_rep]
            changed = False
            for loc in locs:
                if max_offset[loc] < offset:
                    continue
                self.stats.propagations += 1
                if dst_pts.add(loc + offset):
                    changed = True
            if changed:
                push(dst_rep)
        self.stats.edges_added += edges_added

    def _offset_mask(self, offset: int) -> int:
        """Bignum of locations whose layout extends ``offset`` slots —
        the certifier's trick: an OFFS/offset-deref step over a whole
        pointee set becomes ``(bits & mask) << offset``."""
        mask = self._offset_masks.get(offset)
        if mask is None:
            if offset == 0:
                mask = -1  # every location is valid at offset 0
            else:
                mask = 0
                for loc, max_off in enumerate(self.system.max_offset):
                    if max_off >= offset:
                        mask |= 1 << loc
            self._offset_masks[offset] = mask
        return mask

    def _apply_complex_fused(self, loads, stores, offs, locs_bits, push) -> None:
        """Word-parallel `_apply_complex`: pointees arrive as one bignum,
        offset filtering is a mask, the offset-copy form is one memoized
        masked shift, and loads fold the dereferenced sets through the
        family's deref union-cache into a single whole-set union."""
        graph = self.graph
        find = graph.uf.find
        succ = graph.succ
        pts_list = graph.pts
        fresh_edges = graph.fresh_edges
        family = self.family
        table = family.table
        diff_prop = self.difference_propagation
        edges_added = 0
        for dst, offset in loads:
            dst_rep = find(dst)
            bits = locs_bits & self._offset_mask(offset) if offset else locs_bits
            fresh_sources = []
            while bits:
                low = bits & -bits
                bits ^= low
                source = find(low.bit_length() - 1 + offset)
                if source != dst_rep and succ[source].add(dst_rep):
                    edges_added += 1
                    if diff_prop:
                        fresh_edges[source].append(dst_rep)
                    push(source)
                    fresh_sources.append(source)
            if fresh_sources:
                # Certifier-style deref union-cache: accumulate the union
                # of the dereferenced sets per constraint and apply it to
                # the destination eagerly as one whole-set union.  The
                # inserted edges keep completeness; this only accelerates
                # convergence toward the same least model.
                acc_bits, acc_id = family.deref_union(
                    ("l", dst, offset),
                    (
                        (pts_list[s].bits, pts_list[s].node_id)
                        for s in fresh_sources
                    ),
                )
                self.stats.propagations += 1
                if pts_list[dst_rep].ior_bits_and_test(acc_bits, acc_id):
                    push(dst_rep)
        for src, offset in stores:
            src_rep = find(src)
            bits = locs_bits & self._offset_mask(offset) if offset else locs_bits
            while bits:
                low = bits & -bits
                bits ^= low
                target = find(low.bit_length() - 1 + offset)
                if target != src_rep and succ[src_rep].add(target):
                    edges_added += 1
                    if diff_prop:
                        fresh_edges[src_rep].append(target)
                    push(src_rep)
        if offs:
            locs_canon, locs_id = table.intern(locs_bits)
            for dst, offset in offs:
                shifted_bits, shifted_id = table.shifted(
                    locs_canon, locs_id, self._offset_mask(offset), offset
                )
                if not shifted_bits:
                    continue
                dst_rep = find(dst)
                self.stats.propagations += 1
                if pts_list[dst_rep].ior_bits_and_test(shifted_bits, shifted_id):
                    push(dst_rep)
        self.stats.edges_added += edges_added

    # ------------------------------------------------------------------
    # Propagation (step 2 of the Figure 1 loop body)
    # ------------------------------------------------------------------

    def propagate(self, node: int, push) -> None:
        """Propagate pts(node) to every successor; queue the changed ones."""
        graph = self.graph
        if self.sanitizer is not None:
            self.sanitizer.check_monotone(node)
            for succ in list(graph.successors(node)):
                self.sanitizer.check_monotone(succ)
        if self._fused:
            self._propagate_fused(node, push)
            return
        pts = graph.pts_of(node)
        # Canonical families make equality O(1): when source and target
        # already hold the same node id the union is skipped entirely —
        # cheap partial cycle suppression even without LCD/HCD.
        fast_eq = self.family.constant_time_equality
        if not self.difference_propagation:
            for succ in list(graph.successors(node)):
                self.stats.propagations += 1
                target = graph.pts_of(succ)
                if fast_eq and target.same_as(pts):
                    continue
                if target.ior_and_test(pts):
                    push(succ)
            return

        # Difference propagation: newly inserted edges get the full set
        # once; everything else receives only the unseen delta.
        node = graph.find(node)
        fresh_edges = graph.fresh_edges[node]
        if fresh_edges:
            graph.fresh_edges[node] = []
            offered = set()
            for raw in fresh_edges:
                succ = graph.find(raw)
                if succ == node or succ in offered:
                    continue
                offered.add(succ)
                self.stats.propagations += 1
                if graph.pts_of(succ).ior_and_test(pts):
                    push(succ)
        prev = graph.prev_pts[node]
        if self.pts_kind == "bitmap":
            # Bitmap sets diff block by block: one masked word operation
            # per element instead of one membership test per pointee.
            delta = pts.bits.copy()
            delta.difference_update(prev)
            if not delta:
                return
            prev.ior(delta)
            for succ in list(graph.successors(node)):
                self.stats.propagations += 1
                if graph.pts_of(succ).bits.ior_and_test(delta):
                    push(succ)
            return
        delta = [loc for loc in pts if loc not in prev]
        if not delta:
            return
        for loc in delta:
            prev.add(loc)
        delta_set = self.family.make_from(delta)
        for succ in list(graph.successors(node)):
            self.stats.propagations += 1
            if graph.pts_of(succ).ior_and_test(delta_set):
                push(succ)

    def _propagate_fused(self, node: int, push) -> None:
        """Word-parallel propagate: one tight loop over raw successor
        ids with the union-find hoisted, unions memoized by canonical id
        through the intern table, and the difference-mode delta computed
        as a single masked bignum diff."""
        graph = self.graph
        uf_find = graph.uf.find
        pts_list = graph.pts
        stats = self.stats
        node = uf_find(node)
        pts = pts_list[node]
        if not self.difference_propagation:
            pts_bits = pts.bits
            pts_id = pts.node_id
            union = self.family.table.union
            for raw in list(graph.succ[node]):
                succ = uf_find(raw)
                if succ == node:
                    continue
                stats.propagations += 1
                target = pts_list[succ]
                target_id = target.node_id
                if target_id == pts_id:
                    continue
                merged_bits, merged_id = union(
                    target.bits, target_id, pts_bits, pts_id
                )
                if merged_id != target_id:
                    target.bits = merged_bits
                    target.node_id = merged_id
                    push(succ)
            return

        # Difference propagation, fused: fresh edges carry the full set
        # once; the delta versus prev is one `pts & ~prev` bignum diff.
        fresh_edges = graph.fresh_edges[node]
        if fresh_edges:
            graph.fresh_edges[node] = []
            offered = set()
            for raw in fresh_edges:
                succ = uf_find(raw)
                if succ == node or succ in offered:
                    continue
                offered.add(succ)
                stats.propagations += 1
                if pts_list[succ].ior_and_test(pts):
                    push(succ)
        prev = graph.prev_pts[node]
        delta_bits = pts.bits & ~prev.bits
        if not delta_bits:
            return
        prev.bits |= delta_bits
        delta_canon, delta_id = self.family.table.intern(delta_bits)
        for raw in list(graph.succ[node]):
            succ = uf_find(raw)
            if succ == node:
                continue
            stats.propagations += 1
            if pts_list[succ].ior_bits_and_test(delta_canon, delta_id):
                push(succ)

    # ------------------------------------------------------------------
    # Solution export and accounting
    # ------------------------------------------------------------------

    def _export_solution(self) -> PointsToSolution:
        graph = self.graph
        num_vars = self.system.num_vars
        fused = self._fused
        # Converged solutions are heavily duplicated: merged variables
        # share one native set, and the fused kernel's canonical bignums
        # make equal values one int.  Decode each distinct non-empty
        # native object once and share the (read-only) location list
        # across the variables holding it, so the solution keeps the
        # sharing.  The graph holds every keyed object alive, so no id()
        # is reused.
        decoded: Dict[int, List[int]] = {}
        mapping: Dict[int, List[int]] = {}
        # Hand the solver's native sets to the solution so alias/checker
        # queries run on the representation's own AND (merged variables
        # share one set object, which is fine for read-only queries).
        backing = {}
        for var in range(num_vars):
            native = graph.pts_of(var)
            backing[var] = native
            key = native.bits if fused else native
            locs = decoded.get(id(key))
            if locs is None:
                locs = list(native)
                if not locs:
                    continue
                decoded[id(key)] = locs
            mapping[var] = locs
        return PointsToSolution(
            mapping, num_vars, self.system.names,
            num_locs=num_vars, backing=backing,
        )

    def _account_memory(self) -> None:
        self.stats.pts_memory_bytes = self.family.memory_bytes()
        self.stats.graph_memory_bytes = self.graph.graph_memory_bytes()
        self.stats.intern = self.family.intern_stats()
