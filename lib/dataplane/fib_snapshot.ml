open Cfca_prefix
open Cfca_trie

module PH = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal

  let hash = Prefix.hash
end)

type stats = {
  epoch : int;
  rebuilds : int;
  invalidations : int;
  fast_hits : int;
  fallbacks : int;
  patches : int;
  full_rebuilds : int;
  patched_cells : int;
}

type t = {
  patch_budget : int;
  root_bits : int;
  mutable nodes : Bintrie.node array;  (* payload i of [flat] -> node *)
  mutable node_count : int;  (* used prefix of [nodes] *)
  mutable nodes_baseline : int;  (* [node_count] at the last full compile *)
  mutable flat : Flat_lpm.t;
  mutable dirty : bool;
  mutable dirty_lookups : int;
  delta : unit PH.t;  (* prefixes whose IN_FIB membership flipped *)
  mutable delta_overflow : bool;  (* true -> next refresh must be full *)
  mutable epoch : int;
  mutable rebuilds : int;
  mutable invalidations : int;
  mutable patches : int;
  mutable full_rebuilds : int;
  mutable patched_cells : int;
  mutable fast_hits : int;
  mutable fallbacks : int;
}

(* Distinct changed prefixes tracked before giving up on patching.
   Cells-per-prefix is what [patch_budget] bounds; this caps the
   tracking table itself so a runaway burst can't grow it without
   bound before the refresh even runs. *)
let delta_cap = 1024

(* Dirty lookups tolerated before a lazy refresh: an update burst pays
   one tree walk per packet briefly instead of a rebuild per update. *)
let rebuild_after = 64

let create ?(patch_budget = 4096) ?(root_bits = 16) () =
  if patch_budget < 0 then invalid_arg "Fib_snapshot.create: patch_budget";
  if root_bits < 8 || root_bits > 24 then
    invalid_arg "Fib_snapshot.create: root_bits";
  {
    patch_budget;
    root_bits;
    nodes = [||];
    node_count = 0;
    nodes_baseline = 0;
    (* placeholder: the first refresh (epoch 0) always compiles in full *)
    flat = Flat_lpm.build ~root_bits:8 [];
    dirty = true;
    dirty_lookups = 0;
    delta = PH.create 64;
    delta_overflow = true;
    epoch = 0;
    rebuilds = 0;
    invalidations = 0;
    patches = 0;
    full_rebuilds = 0;
    patched_cells = 0;
    fast_hits = 0;
    fallbacks = 0;
  }

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    t.dirty_lookups <- 0;
    t.invalidations <- t.invalidations + 1
  end

let invalidate t =
  t.delta_overflow <- true;
  if PH.length t.delta > 0 then PH.reset t.delta;
  mark_dirty t

let invalidate_prefix t p =
  if not t.delta_overflow then begin
    if not (PH.mem t.delta p) then
      if PH.length t.delta >= delta_cap then begin
        t.delta_overflow <- true;
        PH.reset t.delta
      end
      else PH.add t.delta p ()
  end;
  mark_dirty t

(* Register a node as a flat payload, appending a fresh index. A node
   may end up with several indices (one per patched range that resolves
   to it); lookups stay correct because every index maps back to the
   same node. The single-entry memo collapses the common case — runs of
   consecutive cells covered by one prefix. *)
let append_node t node =
  let cap = Array.length t.nodes in
  if t.node_count >= cap then begin
    let bigger = Array.make (max 8 (2 * cap)) node in
    Array.blit t.nodes 0 bigger 0 cap;
    t.nodes <- bigger
  end;
  t.nodes.(t.node_count) <- node;
  let idx = t.node_count in
  t.node_count <- t.node_count + 1;
  idx

(* Compile the whole cover: payload [i] is the [i]-th IN_FIB node in
   address order, so the prefix list is address-ordered and
   [Flat_lpm.build] compiles it in one pass without sorting. The old
   table never leaves this module, so it is dead here and lends its
   root to the new one. *)
let full_refresh t tree =
  t.node_count <- 0;
  Bintrie.iter_in_fib (fun node -> ignore (append_node t node)) tree;
  let prefixes = ref [] in
  for i = t.node_count - 1 downto 0 do
    prefixes := (Bintrie.Node.prefix tree t.nodes.(i), i) :: !prefixes
  done;
  t.nodes_baseline <- t.node_count;
  t.flat <- Flat_lpm.build ~into:t.flat ~root_bits:t.root_bits !prefixes;
  t.full_rebuilds <- t.full_rebuilds + 1

let try_patch t tree =
  let changed = PH.fold (fun p () acc -> p :: acc) t.delta [] in
  let memo = ref Bintrie.nil in
  let memo_idx = ref (-1) in
  let resolve addr =
    let node = Bintrie.lookup_in_fib tree addr in
    if Bintrie.is_nil node then Flat_lpm.miss
    else begin
      if not (Bintrie.Node.equal node !memo) then begin
        memo := node;
        memo_idx := append_node t node
      end;
      Flat_lpm.encode ~value:!memo_idx
        ~length:(Bintrie.Node.depth tree node)
    end
  in
  Flat_lpm.patch t.flat ~budget:t.patch_budget ~resolve changed

let refresh t tree =
  let patched =
    t.epoch > 0 && t.patch_budget > 0
    && (not t.delta_overflow)
    && PH.length t.delta > 0
    (* patches append duplicate payload indices; recompile (compacting
       the payload table) once they have doubled it *)
    && t.node_count <= (2 * t.nodes_baseline) + 1024
    &&
    match try_patch t tree with
    | Ok cells ->
        t.patches <- t.patches + 1;
        t.patched_cells <- t.patched_cells + cells;
        true
    | Error _ -> false
  in
  if not patched then full_refresh t tree;
  PH.reset t.delta;
  t.delta_overflow <- false;
  t.dirty <- false;
  t.dirty_lookups <- 0;
  t.epoch <- t.epoch + 1

(* Right child first, so consing builds the address-ordered list (the
   order [Bintrie.iter_in_fib] visits) with no reversal. *)
let cover tree =
  let rec go node acc =
    match Bintrie.Node.status tree node with
    | Bintrie.In_fib ->
        (Bintrie.Node.prefix tree node, Bintrie.Node.installed_nh tree node)
        :: acc
    | Bintrie.Non_fib ->
        let r = Bintrie.child tree node true in
        let acc = if Bintrie.is_nil r then acc else go r acc in
        let l = Bintrie.child tree node false in
        if Bintrie.is_nil l then acc else go l acc
  in
  go (Bintrie.root tree) []

(* The authoritative walk, equivalent to [Bintrie.lookup_in_fib] but
   raising on a coverage lapse instead of returning a sentinel. *)
let rec walk_in_fib tree node addr =
  match Bintrie.Node.status tree node with
  | Bintrie.In_fib -> node
  | Bintrie.Non_fib ->
      let c =
        Bintrie.child tree node (Ipv4.bit addr (Bintrie.Node.depth tree node))
      in
      if Bintrie.is_nil c then raise Not_found else walk_in_fib tree c addr

let lookup t tree addr =
  if t.dirty then begin
    t.dirty_lookups <- t.dirty_lookups + 1;
    if t.dirty_lookups > rebuild_after then begin
      refresh t tree;
      t.rebuilds <- t.rebuilds + 1
    end
  end;
  if t.dirty then begin
    t.fallbacks <- t.fallbacks + 1;
    walk_in_fib tree (Bintrie.root tree) addr
  end
  else
    let r = Flat_lpm.lookup t.flat addr in
    if r >= 0 then begin
      t.fast_hits <- t.fast_hits + 1;
      Array.unsafe_get t.nodes (r lsr 6)
    end
    else begin
      (* no IN_FIB coverage compiled for this address: defer to the
         authoritative tree (it will raise if coverage truly lapsed) *)
      t.fallbacks <- t.fallbacks + 1;
      walk_in_fib tree (Bintrie.root tree) addr
    end

let stats t =
  {
    epoch = t.epoch;
    rebuilds = t.rebuilds;
    invalidations = t.invalidations;
    fast_hits = t.fast_hits;
    fallbacks = t.fallbacks;
    patches = t.patches;
    full_rebuilds = t.full_rebuilds;
    patched_cells = t.patched_cells;
  }
