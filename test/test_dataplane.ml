(* Data-plane tests: membership vectors, the LTHD pipeline (including
   the paper's Fig. 8 walk-through semantics) and the full three-level
   match workflow of Fig. 7. *)

open Cfca_prefix
open Cfca_trie
open Cfca_core
open Cfca_dataplane

let p = Prefix.v
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* one shared tree of disjoint /24 leaves standing in for FIB entries *)
let make_nodes n =
  let t = Bintrie.create ~default_nh:1 in
  let nodes =
    Array.init n (fun i ->
        Bintrie.add_route t (Prefix.make (Ipv4.of_int (i lsl 8)) 24) 1)
  in
  (t, nodes)

(* -- Table_set ------------------------------------------------------- *)

let test_table_set_basics () =
  let tree, nodes = make_nodes 4 in
  let s = Table_set.create ~capacity:3 in
  check_int "empty" 0 (Table_set.size s);
  Table_set.add s tree nodes.(0);
  Table_set.add s tree nodes.(1);
  Table_set.add s tree nodes.(2);
  check "full" true (Table_set.is_full s);
  check "mem" true (Table_set.mem s tree nodes.(1));
  check "not mem" false (Table_set.mem s tree nodes.(3));
  check "overflow rejected" true
    (match Table_set.add s tree nodes.(3) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Table_set.remove s tree nodes.(1);
  check "removed" false (Table_set.mem s tree nodes.(1));
  check_int "size" 2 (Table_set.size s);
  (* the swap-with-last kept the others resident *)
  check "others kept" true
    (Table_set.mem s tree nodes.(0) && Table_set.mem s tree nodes.(2));
  check "double add rejected after remove-add" true
    (Table_set.add s tree nodes.(1);
     match Table_set.add s tree nodes.(1) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_table_set_random () =
  let tree, nodes = make_nodes 8 in
  let s = Table_set.create ~capacity:8 in
  let st = Random.State.make [| 1 |] in
  check "random of empty" true (Bintrie.is_nil (Table_set.random s st));
  Array.iter (fun n -> Table_set.add s tree n) nodes;
  let seen = Hashtbl.create 8 in
  for _ = 1 to 1000 do
    let n = Table_set.random s st in
    if Bintrie.is_nil n then Alcotest.fail "no pick"
    else Hashtbl.replace seen (Bintrie.Node.prefix tree n) ()
  done;
  check_int "uniform pick reaches everyone" 8 (Hashtbl.length seen)

let test_table_set_clear () =
  let tree, nodes = make_nodes 3 in
  let s = Table_set.create ~capacity:3 in
  Array.iter (fun n -> Table_set.add s tree n) nodes;
  Table_set.clear s tree;
  check_int "cleared" 0 (Table_set.size s);
  check "indices reset" true
    (Array.for_all (fun n -> Bintrie.Node.table_idx tree n = -1) nodes);
  (* nodes can be re-added after a clear *)
  Table_set.add s tree nodes.(0);
  check_int "re-add" 1 (Table_set.size s)

(* -- LTHD ------------------------------------------------------------- *)

let test_lthd_retains_light_hitters () =
  (* 200 entries compete for 4 x 10 slots, so the pipeline must be
     selective; entry i gets i+1 hits, interleaved round-robin the way
     real cache hits would arrive, so low indices are the light
     hitters *)
  let n_entries = 200 in
  let tree, nodes = make_nodes n_entries in
  Array.iter (fun n -> Bintrie.Node.set_table tree n Bintrie.L1) nodes;
  let lthd = Lthd.create ~stages:4 ~width:10 ~seed:7 in
  for c = 1 to n_entries do
    Array.iteri
      (fun i n ->
        if i + 1 >= c then begin
          Bintrie.Node.set_hits tree n c;
          Lthd.observe lthd tree n c
        end)
      nodes
  done;
  let st = Random.State.make [| 3 |] in
  let total = ref 0 and picks = 500 in
  for _ = 1 to picks do
    let v = Lthd.pick_victim lthd tree ~table:Bintrie.L1 st in
    if Bintrie.is_nil v then Alcotest.fail "expected a victim"
    else total := !total + Bintrie.Node.hits tree v
  done;
  (* a uniformly random victim would average ~100 hits; the pipeline's
     victims must sit far below *)
  let mean = float_of_int !total /. float_of_int picks in
  check "victims are unpopular" true (mean < 50.0)

let test_lthd_validates_table () =
  let tree, nodes = make_nodes 4 in
  let lthd = Lthd.create ~stages:2 ~width:4 ~seed:1 in
  Array.iter
    (fun n ->
      Bintrie.Node.set_table tree n Bintrie.L2;
      Lthd.observe lthd tree n 1)
    nodes;
  let st = Random.State.make [| 9 |] in
  check "stale entries rejected" true
    (Bintrie.is_nil (Lthd.pick_victim lthd tree ~table:Bintrie.L1 st));
  check "right table accepted" true
    (not (Bintrie.is_nil (Lthd.pick_victim lthd tree ~table:Bintrie.L2 st)))

let test_lthd_clear_occupancy () =
  let tree, nodes = make_nodes 4 in
  let lthd = Lthd.create ~stages:2 ~width:4 ~seed:1 in
  check_int "empty" 0 (Lthd.occupancy lthd);
  Array.iter (fun n -> Lthd.observe lthd tree n 1) nodes;
  check "occupied" true (Lthd.occupancy lthd > 0);
  Lthd.clear lthd;
  check_int "cleared" 0 (Lthd.occupancy lthd)

(* -- Pipeline ---------------------------------------------------------- *)

let paper_routes =
  [
    (p "129.10.124.0/24", 1);
    (p "129.10.124.0/27", 1);
    (p "129.10.124.64/26", 1);
    (p "129.10.124.192/26", 2);
  ]

let small_cfg =
  {
    Config.default with
    Config.l1_capacity = 2;
    l2_capacity = 3;
    dram_threshold_initial = 1;
    l2_threshold_initial = 2;
    dram_threshold = 1;
    l2_threshold = 2;
  }

let setup () =
  let pl = Pipeline.create small_cfg in
  let rm = Route_manager.create ~sink:(Pipeline.sink pl) ~default_nh:9 () in
  Route_manager.load rm (List.to_seq paper_routes);
  Pipeline.reset_stats pl;
  (pl, rm)

let hit pl rm a =
  let tr = Route_manager.tree rm in
  let n = Bintrie.lookup_in_fib tr (Ipv4.of_string_exn a) in
  if Bintrie.is_nil n then Alcotest.fail "no covering entry"
  else Pipeline.process pl tr n ~now:0.0

let test_promotion_chain () =
  let pl, rm = setup () in
  (* first hit: DRAM; counter reaches the DRAM threshold -> L2 *)
  check "first hit in DRAM" true (hit pl rm "129.10.124.193" = Pipeline.Dram_hit);
  check "second hit in L2" true (hit pl rm "129.10.124.193" = Pipeline.L2_hit);
  (* the L2 threshold is 2 hits: the second L2 hit promotes to L1 *)
  check "third hit in L2" true (hit pl rm "129.10.124.193" = Pipeline.L2_hit);
  check "fourth hit in L1" true (hit pl rm "129.10.124.193" = Pipeline.L1_hit);
  let s = Pipeline.stats pl in
  check_int "l2 installs" 1 s.Pipeline.l2_installs;
  check_int "l1 installs" 1 s.Pipeline.l1_installs;
  check_int "packets" 4 s.Pipeline.packets;
  check_int "l1 misses" 3 s.Pipeline.l1_misses;
  check_int "l2 misses" 1 s.Pipeline.l2_misses

let test_eviction_when_full () =
  let pl, rm = setup () in
  (* warm three distinct entries through to L1 (capacity 2): the third
     promotion must evict one of the first two back to L2 *)
  let warm a =
    for _ = 1 to 4 do
      ignore (hit pl rm a)
    done
  in
  warm "129.10.124.193" (* D region *);
  warm "129.10.124.1" (* E region *);
  check_int "L1 full" 2 (Pipeline.l1_size pl);
  warm "8.8.8.8" (* a default sibling *);
  let s = Pipeline.stats pl in
  check_int "L1 stays at capacity" 2 (Pipeline.l1_size pl);
  check_int "three L1 installs" 3 s.Pipeline.l1_installs;
  check_int "one L1 eviction" 1 s.Pipeline.l1_evictions;
  check "tcam occupancy matches" true
    (Cfca_tcam.Tcam.size (Pipeline.l1_tcam pl) = 2)

let test_window_resets_counters () =
  let pl, rm = setup () in
  let tree = Route_manager.tree rm in
  let node = Bintrie.lookup_in_fib tree (Ipv4.of_string_exn "8.8.8.8") in
  check "found" false (Bintrie.is_nil node);
  ignore (Pipeline.process pl tree node ~now:0.0);
  (* entry promoted to L2 after one hit; its counter restarts *)
  ignore (Pipeline.process pl tree node ~now:1.0);
  check_int "hits in window" 1 (Bintrie.Node.hits tree node);
  (* crossing a 60 s window boundary resets the counter *)
  ignore (Pipeline.process pl tree node ~now:61.0);
  check_int "hits reset at window boundary" 1 (Bintrie.Node.hits tree node)

let test_bgp_ops_update_structures () =
  let pl, rm = setup () in
  (* warm D into L1 *)
  for _ = 1 to 4 do
    ignore (hit pl rm "129.10.124.193")
  done;
  check_int "in L1" 1 (Pipeline.l1_size pl);
  (* withdrawing everything that distinguishes D re-aggregates it away:
     the Remove op must come back through the pipeline and clean L1 *)
  Route_manager.withdraw rm (p "129.10.124.192/26");
  let s = Pipeline.stats pl in
  check "L1 bgp churn counted" true (s.Pipeline.bgp_l1 >= 1);
  check_int "L1 emptied" 0 (Pipeline.l1_size pl);
  check_int "tcam emptied" 0 (Cfca_tcam.Tcam.size (Pipeline.l1_tcam pl));
  match Route_manager.verify rm with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let test_rejects_bad_config () =
  check "zero l1 rejected" true
    (match Pipeline.create { small_cfg with Config.l1_capacity = 0 } with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* the pipeline invariant: every IN_FIB entry is in exactly one table
   and table sizes always match occupancy counters *)
let prop_residency_exclusive =
  QCheck.Test.make ~count:100 ~name:"cache residency stays consistent"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pl, rm = setup () in
      let tr = Route_manager.tree rm in
      for _ = 1 to 500 do
        let a = Ipv4.random st in
        let n = Bintrie.lookup_in_fib tr a in
        if not (Bintrie.is_nil n) then ignore (Pipeline.process pl tr n ~now:0.0)
      done;
      let l1 = ref 0 and l2 = ref 0 in
      Bintrie.iter_in_fib
        (fun n ->
          match Bintrie.Node.table tr n with
          | Bintrie.L1 -> incr l1
          | Bintrie.L2 -> incr l2
          | Bintrie.Dram -> ()
          | Bintrie.No_table -> failwith "IN_FIB entry in no table")
        tr;
      !l1 = Pipeline.l1_size pl
      && !l2 = Pipeline.l2_size pl
      && !l1 = Cfca_tcam.Tcam.size (Pipeline.l1_tcam pl)
      && !l1 <= small_cfg.Config.l1_capacity
      && !l2 <= small_cfg.Config.l2_capacity)

(* -- Fib_snapshot ---------------------------------------------------- *)

let snapshot_fixture seed =
  let snap = Fib_snapshot.create () in
  let rm =
    Route_manager.create
      ~sink:(fun _ _ -> Fib_snapshot.invalidate snap)
      ~default_nh:9 ()
  in
  let st = Random.State.make [| seed; 0x5A9 |] in
  let routes = List.init 200 (fun i -> (Prefix.random st (), (i mod 30) + 1)) in
  Route_manager.load rm (List.to_seq routes);
  Fib_snapshot.refresh snap (Route_manager.tree rm);
  (snap, rm, st)

let assert_agreement label snap rm st n =
  let tree = Route_manager.tree rm in
  for _ = 1 to n do
    let a = Ipv4.random st in
    let node = Bintrie.lookup_in_fib tree a in
    if Bintrie.is_nil node then Alcotest.fail "no IN_FIB coverage"
    else if not (Bintrie.Node.equal node (Fib_snapshot.lookup snap tree a)) then
      Alcotest.failf "%s: snapshot returned a different node for %s" label
        (Ipv4.to_string a)
  done

let test_fib_snapshot_agrees () =
  let snap, rm, st = snapshot_fixture 7 in
  assert_agreement "clean" snap rm st 500;
  let s = Fib_snapshot.stats snap in
  check_int "no fallbacks while clean" 0 s.Fib_snapshot.fallbacks;
  check "every lookup took the compiled path" true
    (s.Fib_snapshot.fast_hits >= 500);
  check_int "initial generation" 1 s.Fib_snapshot.epoch;
  (* dirty protocol: fall back immediately, recompile once the dirty
     budget (64 lookups) is spent, agree throughout *)
  Fib_snapshot.invalidate snap;
  assert_agreement "dirty" snap rm st 64;
  let s = Fib_snapshot.stats snap in
  check_int "fallbacks while dirty" 64 s.Fib_snapshot.fallbacks;
  check_int "not rebuilt inside the budget" 1 s.Fib_snapshot.epoch;
  assert_agreement "after budget" snap rm st 50;
  let s = Fib_snapshot.stats snap in
  check_int "recompiled exactly once" 2 s.Fib_snapshot.epoch;
  check_int "lazy rebuild counted" 1 s.Fib_snapshot.rebuilds;
  check_int "one dirty transition" 1 s.Fib_snapshot.invalidations

let test_fib_snapshot_updates () =
  let snap, rm, st = snapshot_fixture 11 in
  (* churn the FIB through the sink-wrapped control plane; the snapshot
     must keep returning exactly the node the tree walk returns, whether
     it is dirty, freshly recompiled, or untouched by a no-op update *)
  for i = 1 to 20 do
    let u =
      if i mod 4 = 0 then
        { Cfca_bgp.Bgp_update.prefix = Prefix.random st ();
          action = Cfca_bgp.Bgp_update.Withdraw }
      else
        { Cfca_bgp.Bgp_update.prefix = Prefix.random st ();
          action = Cfca_bgp.Bgp_update.Announce ((i mod 30) + 1) }
    in
    Route_manager.apply rm u;
    assert_agreement "under churn" snap rm st 25
  done

(* -- incremental patching -------------------------------------------- *)

(* A snapshot wired for per-prefix invalidation: the sink reports every
   IN_FIB membership flip with its prefix, so refreshes may patch the
   compiled structure in place instead of recompiling it. *)
let patching_fixture ~root_bits ~patch_budget =
  let snap = Fib_snapshot.create ~patch_budget ~root_bits () in
  let rm =
    Route_manager.create ~sink:(Fib_snapshot.sink snap) ~default_nh:9 ()
  in
  (snap, rm)

(* Differential property: a snapshot maintained through per-prefix
   deltas and in-place patching answers exactly like the authoritative
   walk (and therefore like a from-scratch recompile) after every
   burst. Probes are boundary-exhaustive over every prefix a burst
   touched ({!Cfca_check.Oracle.addresses_of}) plus a uniform sample;
   the length mix keeps most bursts within the root stride so the
   patch path genuinely runs, with a long tail exercising the
   stride-refusal fallback. *)
let prop_patch_differential =
  QCheck.Test.make ~count:40 ~name:"patched snapshot = authoritative walk"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xD1F |] in
      let root_bits = 16 in
      let snap, rm = patching_fixture ~root_bits ~patch_budget:4096 in
      let routes =
        List.init 150 (fun i ->
            (Prefix.random st ~min_len:8 ~max_len:24 (), (i mod 30) + 1))
      in
      Route_manager.load rm (List.to_seq routes);
      let tree = Route_manager.tree rm in
      Fib_snapshot.refresh snap tree;
      let ok = ref true in
      for _burst = 1 to 6 do
        let touched = ref [] in
        for _ = 1 to 8 do
          let max_len = if Random.State.int st 4 = 0 then 28 else root_bits in
          let q = Prefix.random st ~min_len:6 ~max_len () in
          touched := q :: !touched;
          Route_manager.apply rm
            (if Random.State.int st 3 = 0 then Cfca_bgp.Bgp_update.withdraw q
             else Cfca_bgp.Bgp_update.announce q (1 + Random.State.int st 30))
        done;
        Fib_snapshot.refresh snap tree;
        let probes =
          List.concat_map
            (fun q -> Cfca_check.Oracle.addresses_of q st)
            !touched
          @ List.init 64 (fun _ -> Ipv4.random st)
        in
        List.iter
          (fun a ->
            let node = Bintrie.lookup_in_fib tree a in
            if
              Bintrie.is_nil node
              || not (Bintrie.Node.equal node (Fib_snapshot.lookup snap tree a))
            then ok := false)
          probes
      done;
      !ok)

(* Deterministic patch coverage + allocation gate: a short-prefix flip
   must take the patch path, rewrite exactly the root cells of the
   prefixes that flipped (the /12's run of 16 cells at a /16 stride,
   not the 2^16-slot root), and allocate O(delta). A patch that
   rewrote every root cell would fail the cell count. *)
let test_patch_path_allocation () =
  let root_bits = 16 in
  let snap, rm = patching_fixture ~root_bits ~patch_budget:4096 in
  let routes =
    List.init 16 (fun i -> (Prefix.make (Ipv4.of_int (i lsl 20)) 12, i + 1))
  in
  Route_manager.load rm (List.to_seq routes);
  let tree = Route_manager.tree rm in
  Fib_snapshot.refresh snap tree;
  (* fragment one /12 with a /14 carrying a new next hop: IN_FIB flips
     at depths within the root stride *)
  Route_manager.announce rm (Prefix.make (Ipv4.of_int (1 lsl 20)) 14) 40;
  let b0 = Gc.allocated_bytes () in
  Fib_snapshot.refresh snap tree;
  let patched_bytes = Gc.allocated_bytes () -. b0 in
  let s = Fib_snapshot.stats snap in
  check_int "refresh took the patch path" 1 s.Fib_snapshot.patches;
  check_int "patch rewrote exactly the /12's run" 16
    s.Fib_snapshot.patched_cells;
  check "patch allocates O(delta)" true (patched_bytes < 100_000.0);
  (* and the patched generation forwards correctly *)
  let st = Random.State.make [| 0xA110C |] in
  for _ = 1 to 2_000 do
    let a = Ipv4.random st in
    check "agreement" true
      (Bintrie.Node.equal
         (Bintrie.lookup_in_fib tree a)
         (Fib_snapshot.lookup snap tree a))
  done

(* A clean snapshot's refresh publishes nothing, so a writer may call
   it after every burst. *)
let test_clean_refresh_publishes_nothing () =
  let snap, rm = patching_fixture ~root_bits:16 ~patch_budget:4096 in
  Route_manager.load rm
    (List.to_seq
       (List.init 16 (fun i -> (Prefix.make (Ipv4.of_int (i lsl 20)) 12, i + 1))));
  let tree = Route_manager.tree rm in
  Fib_snapshot.refresh snap tree;
  let s0 = Fib_snapshot.stats snap in
  Fib_snapshot.refresh snap tree;
  let s1 = Fib_snapshot.stats snap in
  check_int "epoch" s0.Fib_snapshot.epoch s1.Fib_snapshot.epoch;
  check_int "full rebuilds" s0.Fib_snapshot.full_rebuilds
    s1.Fib_snapshot.full_rebuilds;
  check_int "patches" s0.Fib_snapshot.patches s1.Fib_snapshot.patches

(* A next-hop rewrite moves no node-index payload: a change that emits
   only Update ops leaves a snapshot fed by its sink clean, and the
   compiled table still answers like the walk, with the new next hop. *)
let test_update_only_stays_clean () =
  let snap = Fib_snapshot.create () in
  let ops = ref [] in
  let rm =
    Route_manager.create
      ~sink:(fun tr op ->
        ops := op :: !ops;
        Fib_snapshot.sink snap tr op)
      ~default_nh:9 ()
  in
  (* sixteen /12s with distinct next hops: none aggregates *)
  Route_manager.load rm
    (List.to_seq
       (List.init 16 (fun i -> (Prefix.make (Ipv4.of_int (i lsl 20)) 12, i + 1))));
  let tree = Route_manager.tree rm in
  Fib_snapshot.refresh snap tree;
  ops := [];
  let s0 = Fib_snapshot.stats snap in
  let q = Prefix.make (Ipv4.of_int (3 lsl 20)) 12 in
  Route_manager.announce rm q 40;
  check "the change emitted only Update ops" true
    (!ops <> []
    && List.for_all (function Fib_op.Update _ -> true | _ -> false) !ops);
  check_int "no dirty transition" s0.Fib_snapshot.invalidations
    (Fib_snapshot.stats snap).Fib_snapshot.invalidations;
  let st = Random.State.make [| 0xC1EA |] in
  let probes = Cfca_check.Oracle.addresses_of q st in
  List.iter
    (fun a ->
      let nd = Fib_snapshot.lookup snap tree a in
      check "agreement" true
        (Bintrie.Node.equal (Bintrie.lookup_in_fib tree a) nd);
      check_int "the new next hop" 40 (Bintrie.Node.installed_nh tree nd))
    probes;
  let s1 = Fib_snapshot.stats snap in
  check_int "every probe answered compiled" (List.length probes)
    (s1.Fib_snapshot.fast_hits - s0.Fib_snapshot.fast_hits);
  check_int "no refresh" s0.Fib_snapshot.epoch s1.Fib_snapshot.epoch

(* -- typed patch refusals ---------------------------------------- *)

module Plane = Cfca_mt.Plane

(* One control plane feeding both compiled tables, the snapshot at a /16
   root stride and the plane at [root_bits] (default 16), each through
   its own sink: the snapshot's hears every IN_FIB flip, and the
   changed-prefix sink collects the plane's delta. *)
type rig = {
  rm : Route_manager.t;
  snap : Fib_snapshot.t;
  plane : Plane.t;
  take : unit -> Prefix.t list;
}

let refusal_rig ?(root_bits = 16) ~patch_budget routes =
  let snap = Fib_snapshot.create ~patch_budget ~root_bits:16 () in
  let record, take = Fib_op.changes_sink () in
  let rm =
    Route_manager.create
      ~sink:(fun tr op ->
        Fib_snapshot.sink snap tr op;
        record tr op)
      ~default_nh:9 ()
  in
  Route_manager.load rm (List.to_seq routes);
  let tree = Route_manager.tree rm in
  Fib_snapshot.refresh snap tree;
  let plane =
    Plane.create ~patch_budget ~root_bits ~readers:1 ~default_nh:9
      (Fib_snapshot.cover tree)
  in
  ignore (take ());
  { rm; snap; plane; take }

let plane_resolve r = Fib_snapshot.resolve (Route_manager.tree r.rm)

(* Refresh the snapshot and publish the plane from one delta; returns
   how many of the two took the patch path. *)
let publish r delta =
  let tree = Route_manager.tree r.rm in
  let s0 = (Fib_snapshot.stats r.snap).Fib_snapshot.patches
  and p0 = Plane.patched_publishes r.plane in
  Fib_snapshot.refresh r.snap tree;
  ignore
    (Plane.publish_delta r.plane ~changed:delta
       ~resolve:(plane_resolve r) (Fib_snapshot.cover tree));
  (Fib_snapshot.stats r.snap).Fib_snapshot.patches - s0
  + Plane.patched_publishes r.plane - p0

(* Both tables, probed at the boundaries of every changed prefix (and
   just outside them), answer exactly like a fresh build of the
   current cover; the snapshot answers from its compiled table. *)
let check_like_fresh label r delta =
  let tree = Route_manager.tree r.rm in
  let fresh = Flat_lpm.build (Fib_snapshot.cover tree) in
  let st = Random.State.make [| 0xF8E5 |] in
  let probes =
    List.concat_map
      (fun q ->
        let lo = Ipv4.to_int (Prefix.network q)
        and hi = Ipv4.to_int (Prefix.last_address q) in
        List.map Ipv4.of_int
          (List.filter (fun a -> a >= 0 && a <= 0xFFFF_FFFF) [ lo - 1; hi + 1 ])
        @ Cfca_check.Oracle.addresses_of q st)
      delta
  in
  let g = Plane.current r.plane in
  let fast0 = (Fib_snapshot.stats r.snap).Fib_snapshot.fast_hits in
  List.iter
    (fun a ->
      let want = Flat_lpm.lookup fresh a in
      let nd = Fib_snapshot.lookup r.snap tree a in
      if
        Flat_lpm.lookup g.Plane.g_flat a <> want
        || Flat_lpm.encode
             ~value:(Bintrie.Node.installed_nh tree nd)
             ~length:(Bintrie.Node.depth tree nd)
           <> want
      then Alcotest.failf "%s: diverges from a fresh build at %s" label
          (Ipv4.to_string a))
    probes;
  check_int (label ^ ": snapshot answered compiled") (List.length probes)
    ((Fib_snapshot.stats r.snap).Fib_snapshot.fast_hits - fast0)

let check_fallback label r delta =
  let full0 = (Fib_snapshot.stats r.snap).Fib_snapshot.full_rebuilds
  and comp0 = Plane.full_compiles r.plane in
  check_int (label ^ ": neither table patched") 0 (publish r delta);
  check_int (label ^ ": snapshot rebuilt in full") (full0 + 1)
    (Fib_snapshot.stats r.snap).Fib_snapshot.full_rebuilds;
  check_int (label ^ ": plane compiled in full") (comp0 + 1)
    (Plane.full_compiles r.plane);
  check_like_fresh label r delta

let test_refusal_over_budget () =
  (* sixteen /12s tile 0.0.0.0/8; each covers 16 root cells *)
  let r =
    refusal_rig ~patch_budget:8
      (List.init 16 (fun i -> (Prefix.make (Ipv4.of_int (i lsl 20)) 12, i + 1)))
  in
  (* fragmenting a /12 removes it from the FIB: a 16-cell delta *)
  Route_manager.announce r.rm (Prefix.make (Ipv4.of_int (1 lsl 20)) 14) 40;
  let delta = r.take () in
  let table () = Flat_lpm.copy (Plane.current r.plane).Plane.g_flat in
  check "refused as over budget" true
    (Flat_lpm.patch (table ()) ~budget:8 ~resolve:(plane_resolve r) delta
    = Error Flat_lpm.Over_budget);
  check "the same delta patches within a larger budget" true
    (Flat_lpm.patch (table ()) ~budget:4096 ~resolve:(plane_resolve r) delta
    = Ok 16);
  check_fallback "over budget" r delta

let test_refusal_orphaned_spill () =
  (* 4096 /16s, one root cell each, with alternating next hops so none
     aggregate: no spill at build time, and a payload table large
     enough that the snapshot's compaction guard stays quiet *)
  let r =
    refusal_rig ~patch_budget:4096
      (List.init 4096 (fun i ->
           (Prefix.make (Ipv4.of_int (i lsl 16)) 16, 1 + (i land 1))))
  in
  (* a /32 inside a /16 re-pushes that cell into two fresh spill
     blocks, so 129 of them (66048 words) outgrow the 65536-word
     allowance over an empty build-time spill; 43 per burst keeps each
     delta under the snapshot's 1024-prefix cap *)
  let host j = Prefix.make (Ipv4.of_int ((j lsl 16) lor 0x0101)) 32 in
  for b = 0 to 2 do
    for j = 43 * b to (43 * b) + 42 do
      Route_manager.announce r.rm (host j) 3
    done;
    check_int "warm-up burst patched both tables" 2 (publish r (r.take ()))
  done;
  Route_manager.announce r.rm (host 200) 3;
  let delta = r.take () in
  let table = (Plane.current r.plane).Plane.g_flat in
  check "refused as orphaned spill" true
    (Flat_lpm.patch (Flat_lpm.copy table) ~budget:4096
       ~resolve:(plane_resolve r) delta
    = Error Flat_lpm.Orphaned_spill);
  check_fallback "orphaned spill" r delta;
  (* the full build compacted the spill: patching resumes *)
  Route_manager.announce r.rm (host 201) 3;
  check_int "patching resumes after the rebuild" 2 (publish r (r.take ()))

(* -- recycled roots and the shared spill ----------------------------- *)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A snapshot's full rebuild compiles into the root of the table it
   replaces, which never leaves the snapshot. *)
let test_full_refresh_reuses_root () =
  let snap, rm = patching_fixture ~root_bits:16 ~patch_budget:4096 in
  Route_manager.load rm
    (List.to_seq
       (List.init 16 (fun i -> (Prefix.make (Ipv4.of_int (i lsl 20)) 12, i + 1))));
  let tree = Route_manager.tree rm in
  Fib_snapshot.refresh snap tree;
  Route_manager.announce rm (Prefix.make (Ipv4.of_int (1 lsl 20)) 14) 40;
  Fib_snapshot.invalidate snap;
  let w0 = alloc_words () in
  Fib_snapshot.refresh snap tree;
  let words = alloc_words () -. w0 in
  check_int "a full rebuild" 2 (Fib_snapshot.stats snap).Fib_snapshot.full_rebuilds;
  if words >= float_of_int (1 lsl 16) /. 2.0 then
    Alcotest.failf "the rebuild allocated %.0f words, a 2^16-slot root's worth"
      words;
  let st = Random.State.make [| 0x5EC0 |] in
  for _ = 1 to 2_000 do
    let a = Ipv4.random st in
    check "agreement" true
      (Bintrie.Node.equal
         (Bintrie.lookup_in_fib tree a)
         (Fib_snapshot.lookup snap tree a))
  done

(* 600 nested routes of /12 to /28 over next hops 1-7. *)
let recycling_routes st =
  Array.init 600 (fun i ->
      (Prefix.random st ~min_len:12 ~max_len:28 (), 1 + (i mod 7)))

(* [n] route changes: announce a prefix of /16 to /32 inside a loaded
   route with a fresh next hop, or withdraw the latest announcement. *)
let random_burst r st routes announced n =
  for _ = 1 to n do
    match !announced with
    | q :: rest when Random.State.int st 3 = 0 ->
        Route_manager.withdraw r.rm q;
        announced := rest
    | _ ->
        let base, _ = routes.(Random.State.int st (Array.length routes)) in
        let len = max (Prefix.length base) (16 + Random.State.int st 17) in
        let q = Prefix.make (Prefix.random_member st base) len in
        Route_manager.announce r.rm q (1 + Random.State.int st 30);
        announced := q :: !announced
  done

(* A prefix's boundary probes: just outside it, and its own addresses
   (all of them, or its ends plus a sample). *)
let boundary_probes st q =
  let lo = Ipv4.to_int (Prefix.network q)
  and hi = Ipv4.to_int (Prefix.last_address q) in
  List.map Ipv4.of_int
    (List.filter (fun a -> a >= 0 && a <= 0xFFFF_FFFF) [ lo - 1; hi + 1 ])
  @ Cfca_check.Oracle.addresses_of q st

let agrees_with_fresh label flat cover probes =
  let fresh = Flat_lpm.build cover in
  List.iter
    (fun a ->
      if Flat_lpm.lookup flat a <> Flat_lpm.lookup fresh a then
        Alcotest.failf "%s: diverges from a fresh build at %s" label
          (Ipv4.to_string a))
    probes

(* The plane's resolver is the cover's longest match: on random CFCA
   trees, at the boundaries of every cover entry, it answers like a
   fresh build of [cover tree]. *)
let prop_resolve_is_cover_lookup =
  QCheck.Test.make ~count:40 ~name:"resolve = lookup in a build of the cover"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x2E5 |] in
      let rm = Route_manager.create ~default_nh:9 () in
      Route_manager.load rm
        (Seq.init 120 (fun i ->
             (Prefix.random st ~min_len:4 ~max_len:30 (), 1 + (i mod 7))));
      let tree = Route_manager.tree rm in
      let cover = Fib_snapshot.cover tree in
      let fresh = Flat_lpm.build cover in
      List.for_all
        (fun a -> Fib_snapshot.resolve tree a = Flat_lpm.lookup fresh a)
        (List.concat_map (fun (q, _) -> boundary_probes st q) cover))

(* One reader that unpins between publishes: every patched publish
   after the first reuses the root the collect before it freed, so it
   allocates far less than a /24 root, and every generation answers
   like a fresh build on the boundaries of every delta so far. One
   burst is a full compile, after which the freed root is no source of
   the current table and must be brought up to date in full. *)
let test_recycled_root_single_reader () =
  let st = Random.State.make [| 0x5EC1 |] in
  let routes = recycling_routes st in
  let r =
    refusal_rig ~root_bits:24 ~patch_budget:32768 (Array.to_list routes)
  in
  let tree = Route_manager.tree r.rm in
  let reader = Plane.Reader.make r.plane 0 in
  let announced = ref [] and probes = ref [] in
  let copied = ref false and patched = ref 0 and burst = ref 0 in
  while !patched < 50 && !burst < 100 do
    incr burst;
    random_burst r st routes announced 8;
    let delta = r.take () in
    probes := List.concat_map (boundary_probes st) delta @ !probes;
    let cover = Fib_snapshot.cover tree in
    if !burst = 25 then ignore (Plane.publish r.plane cover)
    else begin
      let p0 = Plane.patched_publishes r.plane in
      let w0 = alloc_words () in
      ignore
        (Plane.publish_delta r.plane ~changed:delta ~resolve:(plane_resolve r)
           cover);
      let words = alloc_words () -. w0 in
      if !copied && words >= float_of_int (1 lsl 24) /. 16.0 then
        Alcotest.failf "burst %d: publish_delta allocated %.0f words" !burst
          words;
      if delta <> [] then begin
        copied := true;
        if Plane.patched_publishes r.plane > p0 then incr patched
      end
    end;
    let g = Plane.Reader.pin reader in
    agrees_with_fresh
      (Printf.sprintf "burst %d" !burst)
      g.Plane.g_flat cover !probes;
    Plane.Reader.unpin reader;
    ignore (Plane.collect r.plane)
  done;
  check_int "patched bursts" 50 !patched

(* A plane over [recycling_routes] at a /16 stride, with a helper that
   applies one burst, publishes its delta and collects. *)
let recycling_plane seed =
  let st = Random.State.make [| seed |] in
  let routes = recycling_routes st in
  let r = refusal_rig ~patch_budget:4096 (Array.to_list routes) in
  let announced = ref [] in
  let cover () = Fib_snapshot.cover (Route_manager.tree r.rm) in
  let burst () =
    random_burst r st routes announced 8;
    r.take ()
  in
  let publish_burst () =
    let delta = burst () in
    check "the burst moved the FIB" true (delta <> []);
    ignore
      (Plane.publish_delta r.plane ~changed:delta ~resolve:(plane_resolve r)
         (cover ()));
    ignore (Plane.collect r.plane);
    delta
  in
  let republish () =
    ignore
      (Plane.publish_delta r.plane ~changed:[] ~resolve:(plane_resolve r)
         (cover ()))
  in
  (st, r, cover, burst, publish_burst, republish)

(* A reader pins a generation that shares its table with an older one
   (an empty-delta republish), and holds it across two patched
   publishes and collects: the first collect frees the older
   generation, whose table the pinned one still reads. *)
let test_pinned_generation_kept () =
  let st, r, cover, _, publish_burst, republish = recycling_plane 0x5EC2 in
  let reader = Plane.Reader.make r.plane 0 in
  republish ();
  let g = Plane.Reader.pin reader in
  let pinned_cover = cover () in
  let d1 = publish_burst () in
  let d2 = publish_burst () in
  check "the pinned generation stays live" true (Atomic.get g.Plane.g_live);
  let probes =
    List.concat_map (boundary_probes st) (d1 @ d2)
    @ List.init 1000 (fun _ -> Ipv4.random st)
  in
  agrees_with_fresh "pinned generation" g.Plane.g_flat pinned_cover probes;
  Plane.Reader.unpin reader;
  for i = 1 to 4 do
    let d = publish_burst () in
    agrees_with_fresh
      (Printf.sprintf "publish %d after the unpin" i)
      (Plane.current r.plane).Plane.g_flat (cover ())
      (List.concat_map (boundary_probes st) d @ probes)
  done

(* An empty-delta republish, then a collect that frees the older
   generation: its table is the current one's, so the next patched
   publish must not write into it. The same again with a full compile
   before the patched publish, the generation held by a reader. *)
let test_empty_delta_then_collect () =
  let st, r, cover, burst, publish_burst, republish = recycling_plane 0x5EC3 in
  let reader = Plane.Reader.make r.plane 0 in
  let d1 = publish_burst () in
  republish ();
  check_int "the collect frees the older generation" 1 (Plane.collect r.plane);
  let g = Plane.Reader.pin reader in
  let g_cover = cover () in
  let d3 = publish_burst () in
  let probes =
    List.concat_map (boundary_probes st) (d1 @ d3)
    @ List.init 1000 (fun _ -> Ipv4.random st)
  in
  agrees_with_fresh "current generation at the patched publish" g.Plane.g_flat
    g_cover probes;
  republish ();
  let g = Plane.Reader.pin reader in
  let g_cover = cover () in
  check_int "the collect frees both older generations" 2
    (Plane.collect r.plane);
  let d4 = burst () in
  ignore (Plane.publish r.plane (cover ()));
  ignore (Plane.collect r.plane);
  let d5 = publish_burst () in
  agrees_with_fresh "held generation after a full compile" g.Plane.g_flat
    g_cover
    (List.concat_map (boundary_probes st) (d4 @ d5) @ probes);
  Plane.Reader.unpin reader;
  ignore (Plane.collect r.plane);
  let d6 = publish_burst () in
  agrees_with_fresh "current generation" (Plane.current r.plane).Plane.g_flat
    (cover ())
    (List.concat_map (boundary_probes st) (d4 @ d5 @ d6) @ probes)

let () =
  Alcotest.run "dataplane"
    [
      ( "fib_snapshot",
        [
          Alcotest.test_case "agrees with the authoritative walk" `Quick
            test_fib_snapshot_agrees;
          Alcotest.test_case "stays correct across updates" `Quick
            test_fib_snapshot_updates;
          Alcotest.test_case "patch path + allocation gate" `Quick
            test_patch_path_allocation;
          Alcotest.test_case "full rebuild reuses the root" `Quick
            test_full_refresh_reuses_root;
          Alcotest.test_case "a clean refresh publishes nothing" `Quick
            test_clean_refresh_publishes_nothing;
          Alcotest.test_case "next-hop rewrites leave it clean" `Quick
            test_update_only_stays_clean;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "over budget falls back to a fresh build" `Quick
            test_refusal_over_budget;
          Alcotest.test_case "orphaned spill falls back to a fresh build"
            `Quick test_refusal_orphaned_spill;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "single reader: O(delta) publishes at /24" `Quick
            test_recycled_root_single_reader;
          Alcotest.test_case "a pinned generation is never rewritten" `Quick
            test_pinned_generation_kept;
          Alcotest.test_case "empty-delta republish, collect, publish" `Quick
            test_empty_delta_then_collect;
        ] );
      ( "table_set",
        [
          Alcotest.test_case "basics" `Quick test_table_set_basics;
          Alcotest.test_case "random" `Quick test_table_set_random;
          Alcotest.test_case "clear" `Quick test_table_set_clear;
        ] );
      ( "lthd",
        [
          Alcotest.test_case "retains light hitters" `Quick
            test_lthd_retains_light_hitters;
          Alcotest.test_case "validates table" `Quick test_lthd_validates_table;
          Alcotest.test_case "clear/occupancy" `Quick test_lthd_clear_occupancy;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "promotion chain" `Quick test_promotion_chain;
          Alcotest.test_case "eviction when full" `Quick test_eviction_when_full;
          Alcotest.test_case "window resets" `Quick test_window_resets_counters;
          Alcotest.test_case "bgp ops" `Quick test_bgp_ops_update_structures;
          Alcotest.test_case "bad config" `Quick test_rejects_bad_config;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_residency_exclusive;
          QCheck_alcotest.to_alcotest prop_patch_differential;
          QCheck_alcotest.to_alcotest prop_resolve_is_cover_lookup;
        ] );
    ]
