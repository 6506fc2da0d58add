(** Compiled FIB snapshot: the per-packet fast path of the simulator.

    The authoritative forwarding view is the control plane's mutable
    {!Cfca_trie.Bintrie} — every update mutates it in place and the
    IN_FIB flags on its nodes are the ground truth of what the data
    plane holds. Walking that tree per packet is a pointer chase of one
    dependent load per prefix bit; this module compiles the
    (non-overlapping) IN_FIB prefix set into a {!Cfca_trie.Flat_lpm}
    mapping addresses to node indices, so the steady-state per-packet
    cost is a couple of flat array reads and zero allocation.

    Epoch protocol: writers report changes as they happen — per-prefix
    through {!invalidate_prefix} (the sink wiring: one call per
    [Fib_op] that flips IN_FIB membership), or wholesale through
    {!invalidate} when the extent of the change is unknown (recovery,
    bulk reload). While dirty, {!lookup} transparently falls back to
    walking the authoritative tree; after 64 dirty lookups it
    recompiles and bumps the epoch, so an update burst pays one tree
    walk per packet briefly instead of a rebuild per update.

    Incremental patching: when every change since the last compile was
    reported per-prefix, the recompile first tries to {e patch} the
    compiled structure in place ({!Cfca_trie.Flat_lpm.patch}) —
    re-resolving only the root cells covered by the changed prefixes —
    instead of rebuilding it from the full IN_FIB set. Prefixes longer
    than the root stride patch too: their cells are re-leaf-pushed into
    fresh spill chains appended past the live blocks (see
    {!Cfca_trie.Flat_lpm.patch}). A full recompile writes into the
    root of the table it replaces, which never leaves this module,
    rather than allocating a new one. The patch path falls back to a
    full recompile whenever it cannot be
    proven equivalent: overflowed delta tracking, a payload table due
    for compaction, or a {!Cfca_trie.Flat_lpm.refusal} (deltas
    exceeding [patch_budget] cells, orphaned spill chains grown past
    the recompile threshold).
    {!stats} separates [patches] from [full_rebuilds] so callers can
    see which path a workload takes.

    The IN_FIB set is non-overlapping (a cover — see
    {!Cfca_trie.Bintrie.lookup_in_fib}), so the compiled longest-match
    answer is the unique IN_FIB node on the address's path: byte-for-
    byte the node the authoritative walk returns. Patching preserves
    this because an address's covering node can only change when some
    node on its path flips IN_FIB membership, and every flip is
    reported with its prefix — the changed-prefix ranges therefore
    cover every cell whose answer changed. This is the invariant the
    differential tests pin. *)

open Cfca_prefix
open Cfca_trie

type t

type stats = {
  epoch : int;  (** Generations published so far (patched or compiled). *)
  rebuilds : int;  (** Refreshes triggered lazily by dirty lookups. *)
  invalidations : int;  (** Distinct dirty transitions (bursts, not ops). *)
  fast_hits : int;  (** Lookups answered by the compiled structure. *)
  fallbacks : int;  (** Lookups that walked the authoritative tree. *)
  patches : int;  (** Generations produced by in-place patching. *)
  full_rebuilds : int;  (** Generations produced by a full compile. *)
  patched_cells : int;  (** Total root cells rewritten by patches. *)
}

val create : ?patch_budget:int -> ?root_bits:int -> unit -> t
(** A snapshot in the dirty state (no generation compiled yet).
    [patch_budget] (default 4096) caps the root cells an in-place patch
    may rewrite before falling back to a full recompile; [0] disables
    patching entirely (every refresh recompiles). [root_bits] (default
    16, range 8–24) is the root stride of the compiled
    {!Cfca_trie.Flat_lpm}: it trades the root array size
    ([2^root_bits] slots) against how many cells a short-prefix delta
    covers.
    @raise Invalid_argument if [patch_budget < 0] or [root_bits] is
    out of range. *)

val invalidate : t -> unit
(** Mark the compiled generation stale with {e unknown} extent: delta
    tracking overflows and the next refresh is a full recompile. O(1);
    idempotent within a burst. Use {!invalidate_prefix} when the
    changed prefix is known. *)

val invalidate_prefix : t -> Prefix.t -> unit
(** Mark the compiled generation stale, recording [p] as a changed
    prefix so the next refresh may patch instead of recompile. Call it
    for every IN_FIB membership flip (Install/Remove); pure next-hop
    rewrites need no call at all — the compiled payloads are node
    indices, which a next-hop change does not move. Degenerates to
    {!invalidate} when the tracking table overflows. *)

val refresh : t -> Bintrie.t -> unit
(** Publish a fresh generation from the tree's current IN_FIB set and
    clear the dirty flag: an in-place patch when the recorded delta
    qualifies, a full recompile otherwise. *)

val lookup : t -> Bintrie.t -> Ipv4.t -> Bintrie.node
(** The IN_FIB node covering the address. Uses the compiled structure
    when clean; walks [tree] when dirty (refreshing first once the
    dirty-lookup budget is spent). Allocation-free on the compiled
    path.
    @raise Not_found if no IN_FIB node covers the address (cannot
    happen once initial aggregation has installed default coverage). *)

val cover : Bintrie.t -> (Prefix.t * Nexthop.t) list
(** The tree's current forwarding cover: every IN_FIB node's prefix
    with its installed next-hop, in address order (the order of
    {!Cfca_trie.Bintrie.iter_in_fib}), built in one walk. This is the
    publication API of the multicore lookup plane — the writer
    compiles this list into an immutable generation
    ([Cfca_mt.Plane.publish]) after each update burst. The result is
    non-overlapping by the IN_FIB cover invariant. *)

val stats : t -> stats
(** Cumulative counters. [patches + full_rebuilds] is the total number
    of generations published ([= epoch]). *)
