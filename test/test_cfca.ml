(* Tests for the CFCA aggregation algorithms and Route Manager, built
   around the paper's own worked examples (Table 1, Fig. 4, Fig. 6) plus
   randomized forwarding-equivalence properties against a reference LPM
   table. *)

open Cfca_prefix
open Cfca_trie
open Cfca_core

let p = Prefix.v
let addr = Ipv4.of_string_exn
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let default_nh = 9

(* Table 1(a): the paper's running example. *)
let paper_routes =
  [
    ("129.10.124.0/24", 1);
    ("129.10.124.0/27", 1);
    ("129.10.124.64/26", 1);
    ("129.10.124.192/26", 2);
  ]

let load_rm ?sink routes =
  let rm = Route_manager.create ?sink ~default_nh () in
  Route_manager.load rm
    (List.to_seq (List.map (fun (q, nh) -> (p q, nh)) routes));
  rm

let status rm q =
  let tr = Route_manager.tree rm in
  let n = Bintrie.find tr (p q) in
  if Bintrie.is_nil n then Alcotest.failf "node %s missing" q
  else Bintrie.Node.status tr n

let installed rm q =
  let tr = Route_manager.tree rm in
  let n = Bintrie.find tr (p q) in
  if Bintrie.is_nil n then Alcotest.failf "node %s missing" q
  else Bintrie.Node.installed_nh tr n

let expect_verify rm =
  match Route_manager.verify rm with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "verify failed: %s" msg

(* -- the paper's initial aggregation example ------------------------ *)

let test_paper_initial_aggregation () =
  let rm = load_rm paper_routes in
  expect_verify rm;
  (* Fig. 4(b): E, I and D are the points of aggregation under the /24. *)
  check "E in fib" true (status rm "129.10.124.0/25" = Bintrie.In_fib);
  check "I in fib" true (status rm "129.10.124.128/26" = Bintrie.In_fib);
  check "D in fib" true (status rm "129.10.124.192/26" = Bintrie.In_fib);
  check_int "E nh" 1 (installed rm "129.10.124.0/25");
  check_int "I nh" 1 (installed rm "129.10.124.128/26");
  check_int "D nh" 2 (installed rm "129.10.124.192/26");
  (* the extension leaves B, G, C, F, A, H are all out of the FIB *)
  List.iter
    (fun q -> check (q ^ " non-fib") true (status rm q = Bintrie.Non_fib))
    [
      "129.10.124.0/27"; "129.10.124.32/27"; "129.10.124.64/26";
      "129.10.124.0/26"; "129.10.124.0/24"; "129.10.124.128/25";
    ];
  (* 3 entries under the /24 plus one default-inheriting sibling per
     level of the path from the root to the /24 *)
  check_int "fib size" (3 + 24) (Route_manager.fib_size rm)

let test_paper_forwarding () =
  let rm = load_rm paper_routes in
  let nh a = Route_manager.lookup rm (addr a) in
  check_int "B region" 1 (nh "129.10.124.1");
  check_int "G region" 1 (nh "129.10.124.33");
  check_int "C region" 1 (nh "129.10.124.65");
  check_int "I region" 1 (nh "129.10.124.129");
  check_int "D region" 2 (nh "129.10.124.193");
  check_int "D network addr (paper's cache-hiding example)" 2
    (nh "129.10.124.192");
  check_int "outside" default_nh (nh "8.8.8.8")

(* -- Fig. 6: next-hop update for C, announcement at H --------------- *)

let test_paper_update_c () =
  let ops = ref [] in
  let rm = load_rm paper_routes in
  Route_manager.set_sink rm (fun _ op -> ops := op :: !ops);
  Route_manager.announce rm (p "129.10.124.64/26") 2;
  expect_verify rm;
  (* E de-aggregates: F and C enter the FIB, E leaves it. *)
  check "E out" true (status rm "129.10.124.0/25" = Bintrie.Non_fib);
  check "F in" true (status rm "129.10.124.0/26" = Bintrie.In_fib);
  check "C in" true (status rm "129.10.124.64/26" = Bintrie.In_fib);
  check_int "F nh" 1 (installed rm "129.10.124.0/26");
  check_int "C nh" 2 (installed rm "129.10.124.64/26");
  check_int "three FIB changes" 3 (List.length !ops);
  check_int "lookup C region" 2 (Route_manager.lookup rm (addr "129.10.124.70"))

let test_paper_announce_h () =
  let rm = load_rm paper_routes in
  Route_manager.announce rm (p "129.10.124.64/26") 2;
  (* Fig. 6: announcing 129.10.124.128/25 with D's next-hop makes I and D
     aggregate into H. *)
  Route_manager.announce rm (p "129.10.124.128/25") 2;
  expect_verify rm;
  check "H in" true (status rm "129.10.124.128/25" = Bintrie.In_fib);
  check "I out" true (status rm "129.10.124.128/26" = Bintrie.Non_fib);
  check "D out" true (status rm "129.10.124.192/26" = Bintrie.Non_fib);
  check_int "H nh" 2 (installed rm "129.10.124.128/25");
  check_int "lookup I region now 2" 2
    (Route_manager.lookup rm (addr "129.10.124.130"));
  (* H flipped FAKE -> REAL in place: no new nodes *)
  let tr = Route_manager.tree rm in
  let n = Bintrie.find tr (p "129.10.124.128/25") in
  if Bintrie.is_nil n then Alcotest.fail "H missing"
  else check "H real" true (Bintrie.Node.kind tr n = Bintrie.Real)

let test_withdraw_reaggregates () =
  let rm = load_rm paper_routes in
  Route_manager.announce rm (p "129.10.124.64/26") 2;
  (* withdrawing C restores next-hop 1 over its region (inherited from
     the covering /24) and re-aggregates F and C back into E *)
  Route_manager.withdraw rm (p "129.10.124.64/26");
  expect_verify rm;
  check "E back in" true (status rm "129.10.124.0/25" = Bintrie.In_fib);
  check "F out" true (status rm "129.10.124.0/26" = Bintrie.Non_fib);
  check "C out" true (status rm "129.10.124.64/26" = Bintrie.Non_fib);
  check_int "C region back to 1" 1
    (Route_manager.lookup rm (addr "129.10.124.70"))

let test_withdraw_unknown_is_noop () =
  let ops = ref 0 in
  let rm = load_rm paper_routes in
  Route_manager.set_sink rm (fun _ _ -> incr ops);
  Route_manager.withdraw rm (p "1.2.3.0/24");
  (* withdrawing a FAKE (extension-generated) prefix is also a no-op *)
  Route_manager.withdraw rm (p "129.10.124.32/27");
  expect_verify rm;
  check_int "no data-plane churn" 0 !ops

let test_announce_same_nh_is_noop () =
  let ops = ref 0 in
  let rm = load_rm paper_routes in
  Route_manager.set_sink rm (fun _ _ -> incr ops);
  Route_manager.announce rm (p "129.10.124.0/24") 1;
  check_int "re-announce same nh: no churn" 0 !ops;
  (* flipping a FAKE node REAL with its inherited next-hop changes no
     forwarding and no FIB entry *)
  Route_manager.announce rm (p "129.10.124.32/27") 1;
  check_int "fake->real same nh: no churn" 0 !ops;
  expect_verify rm

let test_announce_new_fragment () =
  let rm = load_rm paper_routes in
  Route_manager.announce rm (p "129.10.124.144/28") 5;
  expect_verify rm;
  check_int "new region" 5 (Route_manager.lookup rm (addr "129.10.124.150"));
  check_int "around it unchanged" 1
    (Route_manager.lookup rm (addr "129.10.124.129"));
  (* withdrawing it again compacts the fragmentation away *)
  let nodes_with = Route_manager.node_count rm in
  Route_manager.withdraw rm (p "129.10.124.144/28");
  expect_verify rm;
  check_int "region reverts" 1 (Route_manager.lookup rm (addr "129.10.124.150"));
  check "nodes compacted" true (Route_manager.node_count rm < nodes_with)

let test_default_route_update () =
  let rm = load_rm paper_routes in
  Route_manager.announce rm Prefix.default 7;
  expect_verify rm;
  check_int "default regions re-point" 7
    (Route_manager.lookup rm (addr "8.8.8.8"));
  check_int "covered regions unaffected" 2
    (Route_manager.lookup rm (addr "129.10.124.193"));
  Route_manager.withdraw rm Prefix.default;
  expect_verify rm;
  check_int "withdraw restores default" default_nh
    (Route_manager.lookup rm (addr "8.8.8.8"))

let test_aggregation_to_single_default () =
  (* A FIB whose routes all share the default next-hop collapses into
     the root alone. *)
  let rm = load_rm [ ("10.0.0.0/8", 9); ("10.1.0.0/16", 9); ("192.168.0.0/16", 9) ] in
  expect_verify rm;
  check_int "one entry" 1 (Route_manager.fib_size rm);
  let root_status rm =
    let tr = Route_manager.tree rm in
    Bintrie.Node.status tr (Bintrie.root tr)
  in
  check "root in fib" true (root_status rm = Bintrie.In_fib);
  (* a single differing announcement de-aggregates the root *)
  Route_manager.announce rm (p "10.0.0.0/8") 3;
  expect_verify rm;
  check "root out" true (root_status rm = Bintrie.Non_fib);
  check_int "new nh" 3 (Route_manager.lookup rm (addr "10.5.5.5"));
  check_int "rest keeps default" 9 (Route_manager.lookup rm (addr "11.0.0.1"))

let test_compression_vs_extension () =
  (* Invariant 4 of DESIGN.md: aggregation never enlarges the FIB
     relative to the extended leaf set. *)
  let rm = load_rm paper_routes in
  let leaves = Bintrie.leaf_count (Route_manager.tree rm) in
  check "fib <= leaves" true (Route_manager.fib_size rm <= leaves)

let test_burst_counting () =
  let ops = ref [] in
  let rm = load_rm paper_routes in
  Route_manager.set_sink rm (fun _ op -> ops := op :: !ops);
  Route_manager.announce rm (p "129.10.124.64/26") 2;
  let tables = List.map Fib_op.table !ops in
  check "all pushed to DRAM initially" true
    (List.for_all (fun t -> t = Bintrie.Dram) tables)

(* -- randomized forwarding equivalence ------------------------------ *)

type op = Ann of Prefix.t * int | Wd of Prefix.t

let pp_op = function
  | Ann (q, nh) -> Printf.sprintf "A(%s,%d)" (Prefix.to_string q) nh
  | Wd q -> Printf.sprintf "W(%s)" (Prefix.to_string q)

(* Prefixes confined to 10.0.0.0/8 so that random updates collide and
   overlap frequently. *)
let gen_scoped_prefix =
  QCheck.Gen.(
    map2
      (fun a l ->
        let base = Ipv4.of_octets 10 ((a lsr 16) land 0xFF) ((a lsr 8) land 0xFF) (a land 0xFF) in
        Prefix.make base l)
      (int_bound 0xFFFFFF)
      (int_range 9 32))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun q nh -> Ann (q, nh)) gen_scoped_prefix (int_range 1 8));
        (1, map (fun q -> Wd q) gen_scoped_prefix);
      ])

let gen_scenario = QCheck.Gen.(pair (list_size (int_bound 40) (pair gen_scoped_prefix (int_range 1 8))) (list_size (int_bound 60) gen_op))

let arb_scenario =
  QCheck.make
    ~print:(fun (routes, ops) ->
      Printf.sprintf "routes=[%s] ops=[%s]"
        (String.concat ";"
           (List.map
              (fun (q, nh) -> Prefix.to_string q ^ "=" ^ string_of_int nh)
              routes))
        (String.concat ";" (List.map pp_op ops)))
    gen_scenario

let sample_addresses (routes, ops) st =
  let prefixes =
    List.map fst routes
    @ List.filter_map (function Ann (q, _) -> Some q | Wd q -> Some q) ops
  in
  let samples = ref [] in
  List.iter
    (fun q ->
      samples := Prefix.network q :: Prefix.last_address q
                 :: Prefix.random_member st q :: !samples)
    prefixes;
  for _ = 1 to 32 do
    samples := Ipv4.random st :: !samples
  done;
  !samples

let equivalent rm model samples =
  List.for_all
    (fun a ->
      let got = Route_manager.lookup rm a in
      let want = match Lpm.lookup model a with Some (_, nh) -> nh | None -> default_nh in
      got = want)
    samples

let prop_equivalence_after_load =
  QCheck.Test.make ~count:300 ~name:"load: CFCA forwards like the raw RIB"
    arb_scenario (fun ((routes, _) as sc) ->
      let rm = load_rm (List.map (fun (q, nh) -> (Prefix.to_string q, nh)) routes) in
      let model = Lpm.create () in
      Lpm.add model Prefix.default default_nh;
      (* last write wins, mirroring Bintrie.add_route *)
      List.iter (fun (q, nh) -> Lpm.add model q nh) routes;
      let st = Random.State.make [| List.length routes; 7 |] in
      (match Route_manager.verify rm with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      equivalent rm model (sample_addresses sc st))

let prop_equivalence_after_updates =
  QCheck.Test.make ~count:300
    ~name:"updates: CFCA stays forwarding-equivalent and well-formed"
    arb_scenario (fun ((routes, ops) as sc) ->
      let rm = load_rm (List.map (fun (q, nh) -> (Prefix.to_string q, nh)) routes) in
      let model = Lpm.create () in
      Lpm.add model Prefix.default default_nh;
      List.iter (fun (q, nh) -> Lpm.add model q nh) routes;
      List.iter
        (fun op ->
          match op with
          | Ann (q, nh) ->
              Route_manager.announce rm q nh;
              Lpm.add model q nh
          | Wd q ->
              Route_manager.withdraw rm q;
              (* the model only forgets routes that were really present,
                 mirroring the RM's no-op on unknown/FAKE prefixes *)
              Lpm.remove model q)
        ops;
      (match Route_manager.verify rm with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      let st = Random.State.make [| List.length ops; 13 |] in
      equivalent rm model (sample_addresses sc st))

let prop_withdraw_all_returns_to_default =
  QCheck.Test.make ~count:200
    ~name:"announce-then-withdraw-everything collapses back to one entry"
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map Prefix.to_string l))
       QCheck.Gen.(list_size (int_bound 30) gen_scoped_prefix))
    (fun prefixes ->
      let rm = Route_manager.create ~default_nh () in
      Route_manager.load rm Seq.empty;
      List.iteri (fun i q -> Route_manager.announce rm q (1 + (i mod 8))) prefixes;
      List.iter (fun q -> Route_manager.withdraw rm q) prefixes;
      (match Route_manager.verify rm with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      Route_manager.fib_size rm = 1 && Route_manager.node_count rm = 1)

(* Differential test against the naive oracle from lib/check: apply a
   random RIB plus ~200 random updates to both CFCA and the assoc-list
   oracle, then rebuild a standalone LPM trie from the oracle's final
   route set and require exact forwarding agreement. Unlike the
   incremental-model properties above, the reference state here is
   reconstructed from scratch, so an update mis-handled by *both*
   incremental paths would still be caught. *)
let gen_many_ops = QCheck.Gen.(list_size (int_range 150 220) gen_op)

let arb_oracle_scenario =
  QCheck.make
    ~print:(fun (routes, ops) ->
      Printf.sprintf "routes=%d ops=[%s]" (List.length routes)
        (String.concat ";" (List.map pp_op ops)))
    QCheck.Gen.(
      pair (list_size (int_bound 40) (pair gen_scoped_prefix (int_range 1 8)))
        gen_many_ops)

let prop_differential_oracle =
  QCheck.Test.make ~count:60
    ~name:"~200 updates: CFCA lookup agrees with LPM of the oracle's routes"
    arb_oracle_scenario
    (fun ((routes, ops) as sc) ->
      let rm = load_rm (List.map (fun (q, nh) -> (Prefix.to_string q, nh)) routes) in
      let oracle = Cfca_check.Oracle.create ~default_nh in
      Cfca_check.Oracle.load oracle routes;
      List.iter
        (fun op ->
          match op with
          | Ann (q, nh) ->
              Route_manager.announce rm q nh;
              Cfca_check.Oracle.announce oracle q nh
          | Wd q ->
              Route_manager.withdraw rm q;
              Cfca_check.Oracle.withdraw oracle q)
        ops;
      (* reference: a fresh LPM trie over the oracle's final route set *)
      let model = Lpm.create () in
      Lpm.add model Prefix.default default_nh;
      List.iter
        (fun (q, nh) -> Lpm.add model q nh)
        (List.rev (Cfca_check.Oracle.routes oracle));
      let st = Random.State.make [| List.length ops; 29 |] in
      equivalent rm model (sample_addresses sc st))

let prop_churn_accounting =
  QCheck.Test.make ~count:250
    ~name:"data-plane ops account exactly for FIB size changes" arb_scenario
    (fun (routes, ops) ->
      let installs = ref 0 and removes = ref 0 and updates_ = ref 0 in
      let sink _ = function
        | Fib_op.Install _ -> incr installs
        | Fib_op.Remove _ -> incr removes
        | Fib_op.Update _ -> incr updates_
      in
      let rm = Route_manager.create ~sink ~default_nh () in
      Route_manager.load rm (List.to_seq routes);
      let ok = ref (Route_manager.fib_size rm = !installs - !removes) in
      List.iter
        (fun op ->
          (match op with
          | Ann (q, nh) -> Route_manager.announce rm q nh
          | Wd q -> Route_manager.withdraw rm q);
          if Route_manager.fib_size rm <> !installs - !removes then ok := false)
        ops;
      (* in-place next-hop rewrites never change the size *)
      !ok && !updates_ >= 0)

(* The changed-prefix sink over random op streams on twelve /24 nodes:
   each distinct prefix once, the most recent first occurrence first,
   nothing left after a take, and a second stream recorded afresh. *)
let prop_changes_sink =
  QCheck.Test.make ~count:200
    ~name:"changes sink: distinct, most recent first occurrence first"
    QCheck.(list (pair (int_bound 11) (int_bound 2)))
    (fun ops ->
      let tree = Bintrie.create ~default_nh in
      let nodes =
        Array.init 12 (fun i ->
            Bintrie.add_route tree (Prefix.make (Ipv4.of_int (i lsl 8)) 24) 1)
      in
      let sink, take = Fib_op.changes_sink () in
      let feed () =
        List.iter
          (fun (i, kind) ->
            let n = nodes.(i) in
            sink tree
              (match kind with
              | 0 -> Fib_op.Install (n, Bintrie.Dram)
              | 1 -> Fib_op.Remove (n, Bintrie.Dram)
              | _ -> Fib_op.Update (n, Bintrie.Dram, 2)))
          ops
      in
      let prefix i = Bintrie.Node.prefix tree nodes.(i) in
      let expect =
        List.fold_left
          (fun acc (i, _) ->
            if List.exists (Prefix.equal (prefix i)) acc then acc
            else prefix i :: acc)
          [] ops
      in
      let same = List.equal Prefix.equal in
      feed ();
      let first = take () in
      let empty = take () in
      feed ();
      same first expect && empty = [] && same (take ()) expect)

(* -- Coalesce: burst folding into net per-prefix deltas -------------- *)

let test_coalesce_algebra () =
  let a = p "10.0.0.0/24" and b = p "10.1.0.0/24" and c = p "10.2.0.0/24" in
  let co = Coalesce.create () in
  Coalesce.add co (Cfca_bgp.Bgp_update.announce a 1);
  Coalesce.add co (Cfca_bgp.Bgp_update.announce a 2);
  Coalesce.add co (Cfca_bgp.Bgp_update.announce b 3);
  Coalesce.add co (Cfca_bgp.Bgp_update.withdraw b);
  Coalesce.add co (Cfca_bgp.Bgp_update.withdraw c);
  Coalesce.add co (Cfca_bgp.Bgp_update.announce c 4);
  check_int "three prefixes pending" 3 (Coalesce.pending co);
  (* b is absent from the table, so its net withdraw cancels outright *)
  let net = Coalesce.flush ~known:(fun q -> not (Prefix.equal q b)) co in
  (match net with
  | [ u1; u2 ] ->
      check "last announce wins" true
        (Prefix.equal u1.Cfca_bgp.Bgp_update.prefix a
        && u1.Cfca_bgp.Bgp_update.action = Cfca_bgp.Bgp_update.Announce 2);
      check "withdraw-then-announce nets to the final announce" true
        (Prefix.equal u2.Cfca_bgp.Bgp_update.prefix c
        && u2.Cfca_bgp.Bgp_update.action = Cfca_bgp.Bgp_update.Announce 4)
  | l -> Alcotest.failf "expected 2 net updates, got %d" (List.length l));
  check_int "seen counts raw updates" 6 (Coalesce.seen co);
  check_int "emitted counts survivors" 2 (Coalesce.emitted co);
  check_int "flush resets the burst" 0 (Coalesce.pending co)

let test_coalesce_known_withdraw_kept () =
  let a = p "10.0.0.0/24" in
  let co = Coalesce.create () in
  Coalesce.add co (Cfca_bgp.Bgp_update.announce a 7);
  Coalesce.add co (Cfca_bgp.Bgp_update.withdraw a);
  (match Coalesce.flush ~known:(fun _ -> true) co with
  | [ u ] ->
      check "announce-then-withdraw of an installed prefix nets to withdraw"
        true
        (u.Cfca_bgp.Bgp_update.action = Cfca_bgp.Bgp_update.Withdraw)
  | l -> Alcotest.failf "expected 1 net update, got %d" (List.length l));
  (* without membership knowledge the net withdraw must survive *)
  Coalesce.add co (Cfca_bgp.Bgp_update.announce a 7);
  Coalesce.add co (Cfca_bgp.Bgp_update.withdraw a);
  check_int "unknown membership keeps the withdraw" 1
    (List.length (Coalesce.flush co))

let prop_coalesce_preserves_final_fib =
  QCheck.Test.make ~count:50
    ~name:"coalesced burst reaches the same installed FIB"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xC0A |] in
      let routes =
        List.init 60 (fun i ->
            (Prefix.random st ~min_len:8 ~max_len:24 (), (i mod 9) + 1))
      in
      (* a small prefix pool so the burst repeatedly touches the same
         prefixes — the case coalescing exists for *)
      let pool =
        Array.init 12 (fun _ -> Prefix.random st ~min_len:8 ~max_len:26 ())
      in
      let burst =
        List.init 120 (fun _ ->
            let q = pool.(Random.State.int st 12) in
            if Random.State.int st 3 = 0 then Cfca_bgp.Bgp_update.withdraw q
            else Cfca_bgp.Bgp_update.announce q (1 + Random.State.int st 9))
      in
      let run updates =
        let rm = Route_manager.create ~default_nh () in
        Route_manager.load rm (List.to_seq routes);
        List.iter (Route_manager.apply rm) updates;
        Route_manager.entries rm
      in
      run burst = run (Coalesce.run burst))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cfca"
    [
      ( "paper examples",
        [
          Alcotest.test_case "initial aggregation (Table 1 / Fig 4)" `Quick
            test_paper_initial_aggregation;
          Alcotest.test_case "forwarding" `Quick test_paper_forwarding;
          Alcotest.test_case "update C (Fig 6)" `Quick test_paper_update_c;
          Alcotest.test_case "announce H (Fig 6)" `Quick test_paper_announce_h;
          Alcotest.test_case "withdraw re-aggregates" `Quick
            test_withdraw_reaggregates;
        ] );
      ( "update handling",
        [
          Alcotest.test_case "withdraw unknown is no-op" `Quick
            test_withdraw_unknown_is_noop;
          Alcotest.test_case "announce same nh is no-op" `Quick
            test_announce_same_nh_is_noop;
          Alcotest.test_case "announce new fragments" `Quick
            test_announce_new_fragment;
          Alcotest.test_case "default route update" `Quick
            test_default_route_update;
          Alcotest.test_case "aggregation to single default" `Quick
            test_aggregation_to_single_default;
          Alcotest.test_case "compression vs extension" `Quick
            test_compression_vs_extension;
          Alcotest.test_case "control-plane installs target DRAM" `Quick
            test_burst_counting;
        ] );
      ( "properties",
        qt
          [
            prop_equivalence_after_load;
            prop_equivalence_after_updates;
            prop_differential_oracle;
            prop_withdraw_all_returns_to_default;
            prop_churn_accounting;
            prop_coalesce_preserves_final_fib;
            prop_changes_sink;
          ] );
      ( "coalesce",
        [
          Alcotest.test_case "net-delta algebra" `Quick test_coalesce_algebra;
          Alcotest.test_case "withdraw membership" `Quick
            test_coalesce_known_withdraw_kept;
        ] );
    ]
