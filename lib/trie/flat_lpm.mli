(** Compiled, cache-friendly longest-prefix-match table.

    {!Lpm} is the mutable, authoritative view: a pointer-chasing binary
    trie whose per-lookup cost is one dependent load per prefix bit —
    exactly the access pattern that defeats CPU caches on real
    forwarding tables. [Flat_lpm] is the compiled counterpart: a
    snapshot built from a prefix set that answers lookups with a
    handful of flat array probes and {e zero allocation}.

    The layout is DIR-24-8 style: a direct-indexed root array of
    [2^root_bits] slots whose entries are either a sentinel-encoded
    result or a pointer into chained 256-slot spill blocks covering 8
    further bits each. Lookup cost: one array read for prefixes no
    longer than the root stride, plus one read per extra 8-bit level.

    Results are sentinel-encoded ints so the hot path never allocates:
    [(payload lsl 6) lor matched_length], or {!miss} ([-1]) when no
    prefix covers the address. Payloads are caller-chosen non-negative
    ints (a next-hop, or an index into a node array — see
    {!Cfca_dataplane.Fib_snapshot}).

    Root cells are independently writable, so small deltas can be
    {!patch}ed into a {!copy} instead of paying a full rebuild: each
    changed prefix re-leaf-pushes the root cells it covers, and cells
    that still hold prefixes longer than the root stride get fresh
    spill chains appended past the live blocks. Writers keep mutating
    the authoritative {!Lpm}/{!Bintrie} view and either patch or
    rebuild the table; a patch that exceeds its cell budget, or that
    finds the spill due for compaction, is refused and the caller
    rebuilds.

    A writer that publishes a sequence of tables can keep its memory
    traffic proportional to the delta: {!copy} [~into] and {!build}
    [~into] reuse the root of a table no reader can reach any more
    instead of allocating a fresh [2^root_bits]-slot one. The caller
    guarantees that no reader can reach a table whose root it hands
    over, and never uses that table again. *)

open Cfca_prefix

type t

val build : ?into:t -> ?root_bits:int -> (Prefix.t * int) list -> t
(** Compile a prefix set. Later bindings of a repeated prefix win,
    matching {!Lpm.add}; nested (overlapping) prefixes are accepted,
    every slot holding its longest match.

    Input already in (network, length) order ({!Prefix.compare}, the
    order a trie walk or a sorted RIB yields) compiles in one pass:
    O(n) plus the table's size. Any other input is stable-sorted
    first, O(n log n).

    [root_bits] (default 16, accepted range 8–24) is the direct-index
    stride of the root array: it trades the root's size ([2^root_bits]
    slots) against spill reads per lookup and against how many root
    cells a short-prefix delta covers when {!patch}ed.

    [into], a dead table of the same stride, lends its root: it is
    zeroed and refilled instead of allocating a new one, and [into]
    must not be used again. One of another stride is ignored.

    @raise Invalid_argument on a negative payload or [root_bits]
    outside [8, 24]; [into]'s root is then unspecified. *)

val lookup : t -> Ipv4.t -> int
(** Longest-prefix match. Returns {!miss} ([-1]) when no prefix covers
    the address, otherwise [(payload lsl 6) lor matched_length].
    Allocation-free. *)

val find_value : t -> Ipv4.t -> int
(** The payload alone: [-1] on miss. Allocation-free. *)

val miss : int
(** [-1], the lookup sentinel. *)

val result_value : int -> int
(** Decode the payload of a non-miss {!lookup} result. *)

val result_length : int -> int
(** Decode the matched prefix length of a non-miss {!lookup} result. *)

val encode : value:int -> length:int -> int
(** The encoding used by {!lookup} results (exposed for tests). *)

val copy : ?into:t -> t -> t
(** A patchable duplicate with a root of its own; the spill array is
    shared. Sharing is safe because {!patch} writes root cells only and
    appends fresh spill blocks past every word any table on the array
    references. Patching the copy never disturbs the source, so
    published generations stay immutable.

    Without [into] the root is a fresh copy of [t]'s, O(2^root_bits).
    [into], a dead table, lends its root instead. When [into] is the
    source [t] was copied from, unmodified since (not patched and not
    lent), only the root runs patched into [t] since that copy are
    written into it: O(cells changed). Otherwise [t]'s whole root is
    copied into it, or, for a stride other than [t]'s, into a fresh
    array. Either way [into] must not be used again. *)

(** Why {!patch} declined to write. Either way the table is untouched
    and the caller falls back to a full {!build}. *)
type refusal =
  | Over_budget  (** The merged delta covers more than [budget] root cells. *)
  | Orphaned_spill
      (** Spill blocks orphaned by earlier patches have grown the spill
          words the table references past twice their build-time count
          plus 65536: the table is due for the compaction a full
          {!build} performs. *)

val patch :
  t ->
  budget:int ->
  resolve:(Ipv4.t -> int) ->
  Prefix.t list ->
  (int, refusal) result
(** [patch t ~budget ~resolve changed] re-leaf-pushes, in place, every
    root cell covered by a changed prefix — a prefix longer than the
    root stride covers exactly its one enclosing cell. [resolve] is the
    authoritative longest-prefix match (typically a walk of the live
    trie) returning the {!encode}d result for an address, or {!miss}
    when nothing covers it; the encoded match length lets the patcher
    recognise uniform ranges from a single probe, so a cell costs one
    probe per leaf run under it. [resolve] must therefore answer from
    a non-overlapping prefix set (a forwarding cover): a match is taken
    to hold for the rest of its prefix's range, and a miss for its one
    address only. Cells that still hold prefixes longer than the root
    stride are compiled into fresh spill chains appended past the spill
    words the table references (never rewriting existing ones — see
    {!copy}): in place when no other table has appended to the shared
    array since and it has room, otherwise into a new array of twice
    the size, which the older tables do not see. Re-pushing a
    previously spilled cell orphans its old chain until the next full
    {!build} compacts the table. The cost is O(cells rewritten) plus,
    rarely, the growth copy.

    Returns [Ok cells] (the number of root cells rewritten, after
    merging nested deltas), or [Error] with the {!refusal}. Refusals
    are all detected before the first write, so on [Error] the table
    is untouched; if [resolve] raises mid-patch the table must be
    treated as unspecified and rebuilt. *)

val memory_words : t -> int
(** Words of flat-array payload the table references: its root plus
    the spill words it uses. Spill capacity past those, and words that
    only newer tables on a shared array use, are not counted. *)

val layout : t -> int * int * int array * int array * int
(** The compiled layout alone, for comparisons and digests: root
    stride, pad bits, root, the spill words the table references, and
    the spill size at build time. Two tables with equal layouts answer
    every lookup alike. The root is the table's own array: read it
    only. *)
