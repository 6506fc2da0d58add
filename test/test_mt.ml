(* Tests for the multicore lookup plane: the epoch/RCU hub, the
   sharded counters, the compiled-generation plane and the full
   Mt_engine session (concurrent stress with generation retirement).

   The stress tests scale with CFCA_MT_STRESS=<n>: domains and
   iteration counts are multiplied, for soak runs on many-core hosts
   (CI keeps the default). *)

open Cfca_prefix
open Cfca_mt

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let stress_mult =
  match Sys.getenv_opt "CFCA_MT_STRESS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 1)
  | None -> 1

(* -- Epoch hub ------------------------------------------------------ *)

let test_epoch_basic () =
  let h = Epoch.create ~readers:2 "g0" in
  check_int "epoch 0" 0 (Epoch.epoch h);
  check "current" true (Epoch.current h = "g0");
  let r = Epoch.reader h 0 in
  check_int "idle slot" Epoch.idle (Epoch.pinned r);
  let e, v = Epoch.pin r in
  check_int "pinned epoch" 0 e;
  check "pinned value" true (v = "g0");
  check_int "slot advertises" 0 (Epoch.pinned r);
  Epoch.unpin r;
  check_int "idle again" Epoch.idle (Epoch.pinned r)

let test_epoch_grace () =
  let h = Epoch.create ~readers:2 "g0" in
  let r = Epoch.reader h 0 in
  ignore (Epoch.pin r);
  check_int "publish returns next epoch" 1 (Epoch.publish h "g1");
  (* g0 is retired but the reader still advertises epoch 0: no grace *)
  check "pin blocks free" true (Epoch.collect h = []);
  check_int "still retired" 1 (Epoch.retired h);
  (* re-pin moves the slot to epoch 1, releasing g0 *)
  let e, v = Epoch.pin r in
  check_int "moved to 1" 1 e;
  check "new value" true (v = "g1");
  check "re-pin frees the old generation" true (Epoch.collect h = [ "g0" ]);
  check_int "freed count" 1 (Epoch.freed h);
  check_int "nothing retired" 0 (Epoch.retired h);
  (* idle slots never hold anything back *)
  Epoch.unpin r;
  ignore (Epoch.publish h "g2");
  check "idle readers grant grace" true (Epoch.collect h = [ "g1" ])

let test_epoch_accounting () =
  let h = Epoch.create ~readers:3 0 in
  let r = Epoch.reader h 1 in
  for g = 1 to 50 do
    ignore (Epoch.publish h g);
    if g mod 7 = 0 then ignore (Epoch.pin r);
    if g mod 11 = 0 then Epoch.unpin r;
    ignore (Epoch.collect h);
    check_int "epoch = freed + retired" (Epoch.epoch h)
      (Epoch.freed h + Epoch.retired h)
  done;
  Epoch.unpin r;
  ignore (Epoch.collect h);
  check_int "all reclaimed once idle" 0 (Epoch.retired h);
  check_int "everything ever retired was freed" (Epoch.epoch h) (Epoch.freed h)

(* Torn-pair impossibility at the type level is the point of the
   single-cell design, but the handshake still has to hold under real
   concurrency: readers must only ever observe values that were
   current at some point, with epochs matching. *)
let test_epoch_concurrent_handshake () =
  let iters = 20_000 * stress_mult in
  let readers = 2 * stress_mult in
  (* generation i is (i, i): a torn read would pair mismatched halves *)
  let h = Epoch.create ~readers (0, 0) in
  let stop = Atomic.make false in
  let body i () =
    let r = Epoch.reader h i in
    let bad = ref 0 in
    let n = ref 0 in
    while not (Atomic.get stop) do
      let e, (a, b) = Epoch.pin r in
      if a <> b || a <> e then incr bad;
      incr n
    done;
    Epoch.unpin r;
    (!bad, !n)
  in
  let doms = Array.init readers (fun i -> Domain.spawn (body i)) in
  for g = 1 to iters do
    ignore (Epoch.publish h (g, g));
    ignore (Epoch.collect h)
  done;
  Atomic.set stop true;
  let results = Array.map Domain.join doms in
  ignore (Epoch.collect h);
  Array.iter
    (fun (bad, n) ->
      check_int "no torn or mismatched generation observed" 0 bad;
      check "reader made progress" true (n > 0))
    results;
  check_int "final accounting" (Epoch.epoch h) (Epoch.freed h)

(* -- Shard rows ----------------------------------------------------- *)

let test_shard_basic () =
  let s = Shard.create ~domains:3 ~counters:2 in
  check_int "domains" 3 (Shard.domains s);
  check_int "counters" 2 (Shard.counters s);
  let r0 = Shard.row s 0 and r2 = Shard.row s 2 in
  Shard.bump r0 0;
  Shard.bump r0 0;
  Shard.bump r0 1;
  Shard.bump_by r2 1 5;
  check_int "cell 0/0" 2 (Shard.get s ~domain:0 ~counter:0);
  check_int "cell 0/1" 1 (Shard.get s ~domain:0 ~counter:1);
  check_int "cell 1/0 untouched" 0 (Shard.get s ~domain:1 ~counter:0);
  check_int "cell 2/1" 5 (Shard.get s ~domain:2 ~counter:1);
  check_int "total c0" 2 (Shard.total s 0);
  check_int "total c1" 6 (Shard.total s 1);
  check "totals" true (Shard.totals s = [| 2; 6 |])

let test_shard_bounds () =
  let s = Shard.create ~domains:2 ~counters:3 in
  let r = Shard.row s 1 in
  check "row oob" true
    (try
       ignore (Shard.row s 2);
       false
     with Invalid_argument _ -> true);
  check "counter oob" true
    (try
       Shard.bump r 3;
       false
     with Invalid_argument _ -> true);
  check "negative bump_by" true
    (try
       Shard.bump_by r 0 (-1);
       false
     with Invalid_argument _ -> true)

(* Concurrent rows never interfere: each domain hammers only its own
   row, totals must be the exact sum. *)
let test_shard_concurrent_rows () =
  let domains = 4 * stress_mult in
  let per = 100_000 in
  let s = Shard.create ~domains ~counters:2 in
  let body d () =
    let r = Shard.row s d in
    for i = 1 to per do
      Shard.bump r 0;
      if i mod 3 = 0 then Shard.bump r 1
    done
  in
  let doms = Array.init domains (fun d -> Domain.spawn (body d)) in
  Array.iter Domain.join doms;
  for d = 0 to domains - 1 do
    check_int "row c0 exact" per (Shard.get s ~domain:d ~counter:0);
    check_int "row c1 exact" (per / 3) (Shard.get s ~domain:d ~counter:1)
  done;
  check_int "total exact" (domains * per) (Shard.total s 0)

(* -- Plane vs oracle ------------------------------------------------ *)

let default_nh = Nexthop.of_int 77

let random_routes st n =
  (* random prefixes, deduped, random real next-hops *)
  let tbl = Hashtbl.create n in
  while Hashtbl.length tbl < n do
    let p = Prefix.random st ~min_len:4 ~max_len:28 () in
    if not (Hashtbl.mem tbl p) then
      Hashtbl.replace tbl p (Nexthop.of_int (1 + Random.State.int st 200))
  done;
  Hashtbl.fold (fun p nh acc -> (p, nh) :: acc) tbl []

let test_plane_vs_oracle () =
  let st = Random.State.make [| 0xF1A7 |] in
  let routes = random_routes st 400 in
  let plane = Plane.create ~readers:1 ~default_nh routes in
  let oracle = Cfca_check.Oracle.create ~default_nh in
  Cfca_check.Oracle.load oracle routes;
  let r = Plane.Reader.make plane 0 in
  let g = Plane.Reader.pin r in
  check "generation live" true (Atomic.get g.Plane.g_live);
  check_int "routes compiled" 400 g.Plane.g_routes;
  for _ = 1 to 20_000 do
    let a = Ipv4.random st in
    check_int "plane answer = oracle answer"
      (Nexthop.to_int (Cfca_check.Oracle.lookup oracle a))
      (Plane.Reader.lookup r g a)
  done;
  Plane.Reader.unpin r;
  let s = Plane.stats plane in
  check_int "lookups counted" 20_000
    (Shard.get s ~domain:0 ~counter:Plane.c_lookups);
  check_int "hits + defaults = lookups" 20_000
    (Shard.get s ~domain:0 ~counter:Plane.c_hits
    + Shard.get s ~domain:0 ~counter:Plane.c_defaults)

let test_plane_publish_and_telemetry () =
  let st = Random.State.make [| 0xBEEF |] in
  let routes = random_routes st 100 in
  let plane = Plane.create ~readers:2 ~default_nh routes in
  let r = Plane.Reader.make plane 0 in
  let g0 = Plane.Reader.pin r in
  check_int "epoch 0" 0 g0.Plane.g_epoch;
  let routes' = random_routes st 120 in
  check_int "publish bumps epoch" 1 (Plane.publish plane routes');
  (* pinned: g0 must survive collect, and stay live *)
  check_int "no free under pin" 0 (Plane.collect plane);
  check "pinned generation stays live" true (Atomic.get g0.Plane.g_live);
  ignore (Plane.Reader.lookup r g0 (Ipv4.random st));
  let g1 = Plane.Reader.pin r in
  check_int "moved to epoch 1" 1 g1.Plane.g_epoch;
  check_int "old generation freed after re-pin" 1 (Plane.collect plane);
  check "freed generation marked dead" false (Atomic.get g0.Plane.g_live);
  check "current still live" true (Atomic.get g1.Plane.g_live);
  (* telemetry merge: totals land under the documented names, exactly *)
  let m = Cfca_telemetry.Metrics.create () in
  Plane.sync_telemetry plane m;
  let s = Plane.stats plane in
  for c = 0 to Plane.counter_count - 1 do
    check_int (Plane.counter_name c)
      (Shard.total s c)
      (Cfca_telemetry.Metrics.value
         (Cfca_telemetry.Metrics.counter m (Plane.counter_name c)))
  done;
  (* a second sync with no new work adds nothing *)
  Plane.sync_telemetry plane m;
  check_int "sync is delta-based, not additive"
    (Shard.total s Plane.c_lookups)
    (Cfca_telemetry.Metrics.value
       (Cfca_telemetry.Metrics.counter m (Plane.counter_name Plane.c_lookups)))

(* qcheck: partitioning a lookup stream across D domains and merging
   the sharded counters gives exactly the single-domain counts (hit and
   default classification is per-address, so any partition sums to the
   same totals). *)
let prop_merged_counters_equal_sequential =
  QCheck.Test.make ~count:30
    ~name:"merged per-domain counters = sequential single-domain counts"
    QCheck.(make Gen.(pair (int_range 2 6) (int_range 1 10_000)))
    (fun (domains, seed) ->
      let st = Random.State.make [| seed; 0x5EA2 |] in
      let routes = random_routes st 150 in
      let addrs = Array.init 4_000 (fun _ -> Ipv4.random st) in
      (* sequential reference: one domain answers everything *)
      let p1 = Plane.create ~readers:1 ~default_nh routes in
      let r1 = Plane.Reader.make p1 0 in
      let g1 = Plane.Reader.pin r1 in
      Array.iter (fun a -> ignore (Plane.Reader.lookup r1 g1 a)) addrs;
      Plane.Reader.unpin r1;
      let s1 = Plane.stats p1 in
      (* partitioned: domain d answers indices congruent to d *)
      let pn = Plane.create ~readers:domains ~default_nh routes in
      let bodies =
        Array.init domains (fun d ->
            Domain.spawn (fun () ->
                let r = Plane.Reader.make pn d in
                let g = Plane.Reader.pin r in
                Array.iteri
                  (fun i a ->
                    if i mod domains = d then
                      ignore (Plane.Reader.lookup r g a))
                  addrs;
                Plane.Reader.unpin r))
      in
      Array.iter Domain.join bodies;
      let sn = Plane.stats pn in
      Shard.total sn Plane.c_lookups = Shard.total s1 Plane.c_lookups
      && Shard.total sn Plane.c_hits = Shard.total s1 Plane.c_hits
      && Shard.total sn Plane.c_defaults = Shard.total s1 Plane.c_defaults)

(* -- Mt_engine: concurrent stress with retirement ------------------- *)

let stress_rib seed n =
  Cfca_rib.Rib_gen.generate
    { Cfca_rib.Rib_gen.size = n; peers = 8; locality = 0.90; seed }

let run_stress mode =
  let module M = Cfca_sim.Mt_engine in
  let telemetry = Cfca_telemetry.Metrics.create () in
  let cfg =
    {
      M.domains = 3 * stress_mult;
      lookups = 30_000 * stress_mult;
      batch = 64;
      updates = 150;
      publish_every = 1;
      mode;
      seed = 0xD00D;
      sample_every = 23;
      verify_publish = true;
    }
  in
  let r = M.run ~telemetry cfg (stress_rib 0xD00D 800) in
  check "audit ran" true (r.M.mt_audit_samples > 0);
  check_int "zero divergences from per-epoch oracles" 0
    r.M.mt_audit_divergences;
  check "publish gate ran" true (r.M.mt_publish_checks > 0);
  check_int "zero patched-vs-fresh publish divergences" 0
    r.M.mt_publish_divergences;
  check "patched + full = publishes" true
    (r.M.mt_patched_publishes + r.M.mt_full_compiles = r.M.mt_published - 1);
  check_int "no pin of a freed generation" 0 r.M.mt_live_violations;
  check "counters exact" true r.M.mt_counters_exact;
  check_int "all updates applied" 150 r.M.mt_updates_applied;
  check_int "every update republished (+ initial)" 151 r.M.mt_published;
  check_int "all non-current generations reclaimed" (r.M.mt_published - 1)
    r.M.mt_freed;
  Array.iter
    (fun d ->
      check "epochs within published range" true
        (d.M.d_min_epoch >= 0 && d.M.d_max_epoch < r.M.mt_published);
      check_int "hits + defaults = lookups" d.M.d_lookups
        (d.M.d_hits + d.M.d_defaults))
    r.M.mt_domains

let test_mt_engine_stress_warm () = run_stress Cfca_sim.Mt_engine.Warm

let test_mt_engine_stress_cold () = run_stress Cfca_sim.Mt_engine.Cold

let test_mt_engine_determinism_single_domain () =
  (* one domain, no concurrency: the whole result must be reproducible
     field-for-field (rates aside) *)
  let module M = Cfca_sim.Mt_engine in
  let cfg =
    {
      M.default_config with
      M.domains = 1;
      lookups = 20_000;
      updates = 40;
      publish_every = 4;
    }
  in
  let rib = stress_rib 0xCAFE 500 in
  let r1 = M.run cfg rib and r2 = M.run cfg rib in
  check_int "published" r1.M.mt_published r2.M.mt_published;
  check_int "samples" r1.M.mt_audit_samples r2.M.mt_audit_samples;
  check_int "hits" r1.M.mt_domains.(0).M.d_hits r2.M.mt_domains.(0).M.d_hits;
  check_int "defaults" r1.M.mt_domains.(0).M.d_defaults
    r2.M.mt_domains.(0).M.d_defaults;
  check_int "no divergences" 0 r1.M.mt_audit_divergences

(* -- Fib_snapshot: cover ------------------------------------------ *)

let test_fib_snapshot_cover () =
  let module RM = Cfca_core.Route_manager in
  let st = Random.State.make [| 0xC0FE |] in
  let routes = random_routes st 300 in
  let rm = RM.create ~default_nh () in
  RM.load rm (List.to_seq routes) ;
  let cover = Cfca_dataplane.Fib_snapshot.cover (RM.tree rm) in
  check "cover is non-empty" true (cover <> []);
  (* non-overlapping: no cover prefix contains another *)
  List.iter
    (fun (p, _) ->
      List.iter
        (fun (q, _) ->
          if not (Prefix.equal p q) then
            check "cover prefixes do not nest" false (Prefix.contains p q))
        cover)
    cover;
  (* forwarding-equivalent to the authoritative control plane *)
  let oracle = Cfca_check.Oracle.create ~default_nh in
  Cfca_check.Oracle.load oracle cover;
  for _ = 1 to 5_000 do
    let a = Ipv4.random st in
    check_int "cover forwards like the control plane"
      (Nexthop.to_int (RM.lookup rm a))
      (Nexthop.to_int (Cfca_check.Oracle.lookup oracle a))
  done

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mt"
    [
      ( "epoch",
        [
          Alcotest.test_case "pin/unpin basics" `Quick test_epoch_basic;
          Alcotest.test_case "grace period" `Quick test_epoch_grace;
          Alcotest.test_case "accounting invariant" `Quick
            test_epoch_accounting;
          Alcotest.test_case "concurrent handshake" `Quick
            test_epoch_concurrent_handshake;
        ] );
      ( "shard",
        [
          Alcotest.test_case "rows and totals" `Quick test_shard_basic;
          Alcotest.test_case "bounds" `Quick test_shard_bounds;
          Alcotest.test_case "concurrent rows exact" `Quick
            test_shard_concurrent_rows;
        ] );
      ( "plane",
        [
          Alcotest.test_case "lookups = oracle" `Quick test_plane_vs_oracle;
          Alcotest.test_case "publish, reclaim, telemetry" `Quick
            test_plane_publish_and_telemetry;
        ] );
      ("plane-properties", qt [ prop_merged_counters_equal_sequential ]);
      ( "mt-engine",
        [
          Alcotest.test_case "stress warm (rapid retirement)" `Quick
            test_mt_engine_stress_warm;
          Alcotest.test_case "stress cold (rapid retirement)" `Quick
            test_mt_engine_stress_cold;
          Alcotest.test_case "single-domain determinism" `Quick
            test_mt_engine_determinism_single_domain;
        ] );
      ( "fib-snapshot",
        [
          Alcotest.test_case "cover: non-overlapping, equivalent" `Quick
            test_fib_snapshot_cover;
        ] );
    ]
