(** The multicore lookup plane: immutable compiled forwarding
    generations published through an {!Epoch} hub to [N] lookup
    domains, with per-domain {!Shard}ed hit accounting.

    The writer (the control-plane domain) compiles the current
    non-overlapping forwarding cover — e.g.
    [Cfca_dataplane.Fib_snapshot.cover] of the live trie — into a
    {!Cfca_trie.Flat_lpm} whose payloads are next-hop integers, and
    {!publish}es it. Reader domains {!Reader.pin} the current
    generation once per batch and answer per-packet lookups with a
    couple of flat array probes: no lock, no allocation, no shared
    mutable state besides their own counter row. Old generations are
    retired on publication and freed by {!collect} after the grace
    period; a generation's [g_live] flag is cleared exactly when it is
    freed, so tests (and paranoid readers) can assert that a pinned
    generation is never a freed one.

    Counter merge: the shard rows are merged on demand —
    {!sync_telemetry} folds the delta since the previous sync into
    named {!Cfca_telemetry.Metrics} counters on the writer side, so
    shared telemetry sees aggregate [mt_*] counts without the readers
    ever touching a shared cell. Mid-run syncs may observe slightly
    stale rows (monotonic under-counts, clamped to never regress);
    a final sync after the reader domains are joined is exact. *)

open Cfca_prefix

type gen = {
  g_epoch : int;  (** Hub epoch this generation was published at. *)
  g_flat : Cfca_trie.Flat_lpm.t;  (** Compiled cover; payload = next-hop. *)
  g_default : int;  (** Next-hop for addresses the cover misses. *)
  g_live : bool Atomic.t;
      (** [true] until the hub frees the generation; cleared by
          {!collect}. A correctly pinned generation is always live. *)
}

type t

(** Counter indices of the per-domain stats rows (see {!Shard}). *)

val c_pins : int
(** Generation pins (one per {!Reader.pin}). *)

val c_lookups : int
(** Total lookups answered. *)

val c_hits : int
(** Lookups answered by the compiled cover. *)

val c_defaults : int
(** Lookups that fell through to the default next-hop. *)

val counter_count : int
(** Number of counter columns per stats row (the [c_*] indices above). *)

val counter_name : int -> string
(** Telemetry name of a counter index ([mt_pins], [mt_lookups],
    [mt_fast_hits], [mt_default_hits]). {!sync_telemetry} additionally
    maintains the writer-side [mt_patched_publishes] /
    [mt_full_compiles] counters. *)

val create :
  ?patch_budget:int ->
  ?root_bits:int ->
  readers:int ->
  default_nh:Nexthop.t ->
  (Prefix.t * Nexthop.t) list ->
  t
(** Compile the route list as generation 0 and set up [readers] slots
    and stat rows. [patch_budget] (default 4096) caps the root cells a
    {!publish_delta} patch may rewrite before falling back to a full
    compile; [0] disables patching. [root_bits] (default 16, range
    8–24) is the root stride of every compiled generation — prefixes
    longer than the stride patch through appended spill chains, so the
    stride trades the per-generation root array size ([2^root_bits]
    slots) against how many root cells a short-prefix delta covers.
    @raise Invalid_argument if [readers < 1], [patch_budget < 0],
    [root_bits] is out of range, or the default next-hop is the
    sentinel. *)

val publish : t -> (Prefix.t * Nexthop.t) list -> int
(** Compile and install the next generation; the previous one is
    retired. Returns the new epoch. Writer-only. *)

val publish_delta :
  t ->
  changed:Prefix.t list ->
  resolve:(Ipv4.t -> int) ->
  (Prefix.t * Nexthop.t) list ->
  int
(** Install the next generation by patching a {!Cfca_trie.Flat_lpm.copy}
    of the current compiled table instead of compiling [routes] from
    scratch, so the republish cost scales with the delta, not the
    table. The copy shares the current table's spill array and, when
    {!collect} left a spare, reuses the root of the freed generation
    the current table was copied from: only the root cells the current
    table was patched in are written into it, so no root is allocated
    or copied whole. Without a spare (while readers still hold pins,
    or after a full compile) the root is copied, O(2^root_bits).
    [changed]
    lists every prefix whose forwarding mapping may have moved since
    the current generation (installs, removals, and next-hop rewrites —
    the compiled payloads here are next-hops, so rewrites matter,
    unlike the node-indexed [Fib_snapshot]);
    [Cfca_core.Fib_op.changes_sink] records exactly this set. [resolve]
    is the authoritative post-update longest-prefix match,
    [Cfca_dataplane.Fib_snapshot.resolve tree] for a live trie: for a
    cell base address it returns the {!Cfca_trie.Flat_lpm.encode}d
    [(next_hop, length)] covering the {e whole} cell, or
    [Flat_lpm.miss] when the cover misses (readers then fall through to
    the default next-hop). An empty [changed] republishes the current
    table under a fresh generation record without copying. Falls back
    to compiling [routes] in full, into the refused copy's root,
    whenever the patch refuses (any {!Cfca_trie.Flat_lpm.refusal}).
    Returns the new epoch. Writer-only. *)

val patched_publishes : t -> int
(** Publications that took the patch (or no-change) path. *)

val full_compiles : t -> int
(** Publications that compiled the full cover — {!publish} calls plus
    {!publish_delta} fallbacks. *)

val collect : t -> int
(** Free retired generations past grace (clearing their [g_live]) and
    return how many were freed. When it frees any, the newest freed
    generation's table becomes the spare the next {!publish_delta}
    reuses the root of, provided no generation is still retired and
    the current generation does not share that table (as an
    empty-delta republish does): no reader can then reach it.
    Otherwise no spare is kept. Writer-only. *)

val epoch : t -> int
(** The hub's current epoch (advances on every publication). *)

val current : t -> gen
(** Writer-side peek at the current generation. *)

val retired : t -> int
(** Retired generations still awaiting their grace period. *)

val freed : t -> int
(** Generations freed by {!collect} over the plane's lifetime. *)

val readers : t -> int
(** Number of reader slots the plane was created with. *)

val stats : t -> Shard.t
(** The shared per-domain counter rows (for merge/inspection). *)

val sync_telemetry : t -> Cfca_telemetry.Metrics.t -> unit
(** Fold the counter deltas since the last sync into counters named
    {!counter_name} in the registry (registering them on first use).
    Writer-only; call once more after joining the readers for exact
    totals. *)

module Reader : sig
  type plane := t

  type t
  (** One domain's handle: epoch slot + stats row. Use from exactly
      one domain. *)

  val make : plane -> int -> t
  (** Handle for slot/row [i].
      @raise Invalid_argument if [i] is out of range. *)

  val pin : t -> gen
  (** Advertise and fetch the current generation (see {!Epoch.pin});
      counts one {!c_pins}. Never blocks, never returns a freed or
      torn generation. *)

  val unpin : t -> unit
  (** Clear this domain's advertised epoch, releasing the pinned
      generation to the writer's grace-period accounting. *)

  val lookup : t -> gen -> Ipv4.t -> int
  (** The next-hop for one address from a pinned generation:
      longest-prefix match over the compiled cover, or the
      generation's default. Allocation-free; bumps this domain's
      {!c_lookups} and {!c_hits}/{!c_defaults}. *)
end
