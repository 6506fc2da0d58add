(* Scenario packs and readiness gates (lib/scenario).

   - Determinism: the same pack replayed twice yields byte-identical
     event streams (digests) and byte-identical deterministic score
     JSON, with every machine-checkable oracle clean.
   - Baseline tolerance logic: pass/warn/fail boundaries of the gate.
   - The thrash adversary actually adverses: its hit ratio collapses
     well below plain Zipf traffic over the same RIB and caches.
   - qcheck generator soundness: packet destinations are covered by
     the pack's RIB, withdraw streams are well-formed, event counts
     and phase labels match the pack metadata.
   - Golden pin of the committed SCENARIO_BASELINES.json schema. *)

open Cfca_prefix
open Cfca_traffic
open Cfca_scenario

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

(* small but non-trivial packs: floors keep every phase meaningful *)
let scale = 0.05

(* -- determinism and oracle cleanliness ------------------------------ *)

let test_pack_determinism () =
  List.iter
    (fun (p : Pack.t) ->
      let name = p.Pack.meta.Pack.m_name in
      let o1 = Runner.run_pack p in
      let o2 = Runner.run_pack p in
      check_str (name ^ ": digests equal across replays") o1.Runner.o_digest
        o2.Runner.o_digest;
      check_str
        (name ^ ": deterministic score JSON equal across replays")
        (Score.deterministic_json o1.Runner.o_score)
        (Score.deterministic_json o2.Runner.o_score);
      check (name ^ ": clean (" ^ String.concat "; " (Runner.failures o1) ^ ")")
        true (Runner.clean o1))
    (Pack.all ~scale ())

let test_distinct_seeds_distinct_streams () =
  let d seed =
    (Runner.run_pack (Pack.thrash ~scale ~seed ())).Runner.o_digest
  in
  check "different workload seeds give different streams" false
    (String.equal (d 1) (d 2))

(* -- baseline tolerance boundaries ----------------------------------- *)

let test_tolerance_boundaries () =
  let tol =
    { Baseline.t_metric = "m"; t_expected = 100.0; t_abs = 10.0; t_rel = 0.0 }
  in
  let v x = Baseline.check tol x in
  check "allowed = tol_abs when rel is 0" true (Baseline.allowed tol = 10.0);
  check "exact match passes" true (v 100.0 = Baseline.Pass);
  check "half the allowance passes (inclusive)" true (v 105.0 = Baseline.Pass);
  check "just past half warns" true (v 105.01 = Baseline.Warn);
  check "the full allowance warns (inclusive)" true (v 110.0 = Baseline.Warn);
  check "past the allowance fails" true (v 110.01 = Baseline.Fail);
  check "symmetric below" true
    (v 95.0 = Baseline.Pass && v 106.0 = Baseline.Warn && v 89.9 = Baseline.Fail);
  let rel =
    { Baseline.t_metric = "m"; t_expected = -200.0; t_abs = 1.0; t_rel = 0.1 }
  in
  check "relative allowance uses |expected|" true (Baseline.allowed rel = 20.0);
  check "relative pass" true (Baseline.check rel (-190.0) = Baseline.Pass);
  check "relative fail" true (Baseline.check rel (-221.0) = Baseline.Fail)

(* -- the bench perf gate (Perf) -------------------------------------- *)

let test_perf_classifier () =
  let k = Perf.classify in
  check "counts are exact" true (k "update.gate.divergences" = Perf.Exact);
  check "patch counts are exact" true (k "patch.patched" = Perf.Exact);
  check "hit ratios are banded" true (k "lookup.l1_hit_ratio" = Perf.Ratio);
  check "arena words are memory" true
    (k "memory.heap_words_per_route" = Perf.Mem);
  check "process heap is memory" true (k "memory.heap_mb_peak" = Perf.Mem);
  check "rates are timing" true (k "plane.per_sec" = Perf.Timing);
  check "latencies are timing" true (k "republish.patched_us" = Perf.Timing);
  check "wall clock is timing" true (k "rib.load_seconds" = Perf.Timing);
  (* exact metrics pin with zero allowance: any drift fails *)
  let t = Perf.default_tol "patch.patched" 15.0 in
  check "exact allowance is zero" true (Baseline.allowed t = 0.0);
  check "exact: equal passes" true (Baseline.check t 15.0 = Baseline.Pass);
  check "exact: off by one fails" true (Baseline.check t 14.0 = Baseline.Fail)

(* For every non-exact kind the documented boundaries must hold at any
   magnitude: pass inside half the allowance, warn inside it, fail
   beyond — in both directions. Probe points sit at 45/95/150% of the
   allowance so float rounding cannot cross a boundary. *)
let qcheck_perf_boundaries =
  QCheck.Test.make ~count:200
    ~name:"perf tolerances gate at the documented boundaries"
    QCheck.(
      make Gen.(pair (int_range 0 3) (float_range 0.5 1_000_000.0)))
    (fun (which, expected) ->
      let path =
        List.nth
          [
            "lookup.l1_hit_ratio";
            "memory.heap_words_per_route";
            "memory.heap_mb_peak";
            "plane.per_sec";
          ]
          which
      in
      let tol = Perf.default_tol path expected in
      let a = Baseline.allowed tol in
      let dev d = Baseline.check tol (expected +. d) in
      a > 0.0
      && dev 0.0 = Baseline.Pass
      && dev (0.45 *. a) = Baseline.Pass
      && dev (-0.45 *. a) = Baseline.Pass
      && dev (0.95 *. a) = Baseline.Warn
      && dev (-0.95 *. a) = Baseline.Warn
      && dev (1.5 *. a) = Baseline.Fail
      && dev (-1.5 *. a) = Baseline.Fail)

let test_perf_reject_garbage () =
  let bad s = Result.is_error (Perf.of_string s) in
  check "malformed JSON rejected" true (bad "{ not json");
  check "wrong discriminator rejected" true
    (bad "{\"baselines\": \"other\", \"version\": 1, \"benches\": []}");
  (* the scenario gate's magic must not satisfy the bench gate *)
  check "scenario baselines rejected" true
    (bad "{\"baselines\": \"cfca-scenarios\", \"version\": 1, \"benches\": []}");
  check "missing fields rejected" true (bad "{\"baselines\": \"cfca-bench\"}");
  check "unknown metric kind rejected" true
    (bad
       ("{\"baselines\": \"cfca-bench\", \"version\": 1, \"benches\": "
      ^ "[{\"bench\": \"x\", \"file\": \"x.json\", \"metrics\": "
      ^ "[{\"metric\": \"m\", \"kind\": \"bogus\", \"expected\": 1, "
      ^ "\"tol_abs\": 0, \"tol_rel\": 0}]}]}"))

(* A toy report exercising every value shape the flattener handles:
   numbers, a boolean, a ratio and a timing metric. *)
let toy_report counts_events per_sec =
  Printf.sprintf
    "{\"bench\": \"toy\", \"counts\": {\"events\": %d, \"clean\": true}, \
     \"lookup\": {\"l1_hit_ratio\": 0.9, \"per_sec\": %d}}"
    counts_events per_sec

let test_perf_pin_roundtrip () =
  match
    Perf.pin_document ~bench:"toy" ~file:"BENCH_toy.json"
      (toy_report 42 1_000_000)
  with
  | Error msg -> Alcotest.failf "pin failed: %s" msg
  | Ok b -> (
      check_int "all four numeric metrics pinned" 4
        (List.length b.Perf.pb_metrics);
      let t = { Perf.p_version = 1; p_benches = [ b ] } in
      match Perf.of_string (Perf.to_json t) with
      | Error msg -> Alcotest.failf "writer output does not re-parse: %s" msg
      | Ok t' -> check "writer round-trips" true (t = t'))

let test_perf_diff_gates () =
  let b =
    Result.get_ok
      (Perf.pin_document ~bench:"toy" ~file:"f" (toy_report 42 1_000_000))
  in
  let verdicts ?gate_timing text =
    match Perf.diff b text with
    | Error msg -> Alcotest.failf "diff failed: %s" msg
    | Ok os ->
        List.map
          (fun o -> (o.Perf.o_tol.Baseline.t_metric, Perf.gate ?gate_timing o))
          os
  in
  (* identical report: everything passes *)
  check "identical report is clean" true
    (List.for_all (fun (_, v) -> v = Baseline.Pass)
       (verdicts (toy_report 42 1_000_000)));
  (* injected regression on an exact count: hard fail *)
  check "exact-count regression fails" true
    (List.assoc "counts.events" (verdicts (toy_report 43 1_000_000))
    = Baseline.Fail);
  (* a timing collapse only warns unless the caller opts in *)
  check "timing collapse warns by default" true
    (List.assoc "lookup.per_sec" (verdicts (toy_report 42 10))
    = Baseline.Warn);
  check "timing collapse fails when gated" true
    (List.assoc "lookup.per_sec"
       (verdicts ~gate_timing:true (toy_report 42 10))
    = Baseline.Fail);
  (* a pinned metric vanishing from the report is a schema break *)
  let dropped = "{\"bench\": \"toy\", \"counts\": {\"events\": 42}}" in
  let os = Result.get_ok (Perf.diff b dropped) in
  List.iter
    (fun o ->
      let m = o.Perf.o_tol.Baseline.t_metric in
      if m <> "counts.events" then (
        check (m ^ " reported missing") true (o.Perf.o_got = None);
        (* missing timing metrics must NOT be demoted to warnings *)
        check (m ^ " fails even ungated") true
          (Perf.gate o = Baseline.Fail)))
    os;
  (* and a brand-new metric shows up as unpinned schema drift *)
  let grown =
    Baseline.parse_json
      "{\"counts\": {\"events\": 42, \"clean\": true, \"extra\": 7}, \
       \"lookup\": {\"l1_hit_ratio\": 0.9, \"per_sec\": 1}}"
  in
  Alcotest.(check (list string))
    "unpinned drift detected" [ "counts.extra" ] (Perf.unpinned b grown)

(* The committed BENCH_BASELINES.json (a declared test dep, like the
   scenario baselines) must parse and pin every catalog target. *)
let test_perf_committed_baselines () =
  match
    Perf.of_string
      (In_channel.with_open_text "../BENCH_BASELINES.json"
         In_channel.input_all)
  with
  | Error msg -> Alcotest.failf "committed bench baselines: %s" msg
  | Ok t ->
      check_int "version" 1 t.Perf.p_version;
      List.iter
        (fun (name, file) ->
          match Perf.find t name with
          | None -> Alcotest.failf "catalog target %s not pinned" name
          | Some b ->
              check_str (name ^ " pins its report file") file b.Perf.pb_file;
              check (name ^ " pins at least one metric") true
                (b.Perf.pb_metrics <> []);
              check (name ^ " pins some deterministic metric") true
                (List.exists
                   (fun m -> m.Perf.m_kind = Perf.Exact)
                   b.Perf.pb_metrics))
        Perf.catalog

(* -- the adversary adverses ------------------------------------------ *)

let test_thrash_collapses_below_zipf () =
  let p = Pack.thrash ~scale () in
  let o = Runner.run_pack p in
  (* plain Zipf traffic, same RIB, same caches, same packet volume *)
  let spec =
    Trace.make ~packets:p.Pack.meta.Pack.m_packets ~updates:[||] ()
  in
  let module E = Cfca_sim.Engine in
  let r =
    E.run E.Cfca p.Pack.config ~default_nh:p.Pack.default_nh p.Pack.rib spec
  in
  let open Cfca_dataplane in
  let st = r.E.r_totals in
  let zipf_hit =
    float_of_int (st.Pipeline.packets - st.Pipeline.l1_misses)
    /. float_of_int st.Pipeline.packets
  in
  let thrash_hit = o.Runner.o_score.Score.s_hit_ratio in
  check
    (Printf.sprintf "thrash hit ratio %.4f collapses below zipf %.4f"
       thrash_hit zipf_hit)
    true
    (thrash_hit +. 0.05 < zipf_hit)

(* -- qcheck: generator soundness ------------------------------------- *)

(* Replay a pack's raw stream (no engine) and audit it. *)
let audit (p : Pack.t) =
  let meta = p.Pack.meta in
  let rib_prefixes = Cfca_rib.Rib.prefixes p.Pack.rib in
  let known = Hashtbl.create 256 in
  Array.iter (fun q -> Hashtbl.replace known q ()) rib_prefixes;
  let packets = ref 0 and updates = ref 0 in
  let marks = ref [] in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  p.Pack.iter (fun ~time:_ ev ->
      match ev with
      | Trace.Packet dst ->
          incr packets;
          if
            not
              (Array.exists (fun q -> Prefix.mem dst q) rib_prefixes)
          then err "packet %s not covered by the RIB" (Ipv4.to_string dst)
      | Trace.Update u ->
          incr updates;
          let q = u.Cfca_bgp.Bgp_update.prefix in
          (match u.Cfca_bgp.Bgp_update.action with
          | Cfca_bgp.Bgp_update.Announce nh ->
              if not (Nexthop.is_real nh) then
                err "announce of %s with unreal next-hop" (Prefix.to_string q);
              Hashtbl.replace known q ()
          | Cfca_bgp.Bgp_update.Withdraw ->
              if
                (not meta.Pack.m_blind_withdrawals)
                && not (Hashtbl.mem known q)
              then
                err "withdraw of never-announced prefix %s"
                  (Prefix.to_string q))
      | Trace.Mark label -> marks := label :: !marks);
  if !packets <> meta.Pack.m_packets then
    err "packet count %d, meta says %d" !packets meta.Pack.m_packets;
  if !updates <> meta.Pack.m_updates then
    err "update count %d, meta says %d" !updates meta.Pack.m_updates;
  if List.rev !marks <> meta.Pack.m_phases then
    err "mark labels [%s], meta says [%s]"
      (String.concat "; " (List.rev !marks))
      (String.concat "; " meta.Pack.m_phases);
  List.rev !errors

let qcheck_generator_soundness =
  QCheck.Test.make ~count:20 ~name:"pack streams are sound for any seed"
    QCheck.(make Gen.(pair (int_range 0 4) (int_range 1 100_000)))
    (fun (which, seed) ->
      let name = List.nth Pack.names which in
      let p = Option.get (Pack.find ~scale ~seed name) in
      match audit p with
      | [] -> true
      | es ->
          QCheck.Test.fail_report
            (Printf.sprintf "%s seed %d: %s" name seed (String.concat "; " es)))

(* -- SCENARIO_BASELINES.json schema pin ------------------------------ *)

(* The committed file is a declared test dep (see dune), staged next to
   the test's _build directory. *)
let baselines_path = "../SCENARIO_BASELINES.json"

let baselines_text () =
  In_channel.with_open_text baselines_path In_channel.input_all

let test_baselines_schema_golden () =
  let open Json_min in
  let j = parse_json (baselines_text ()) in
  check "discriminator" true (field "baselines" j = J_str "cfca-scenarios");
  check "version" true (field "version" j = J_num 1.0);
  (match field "scale" j with
  | J_num s -> check "pinned at the smoke scale" true (s = 0.05)
  | _ -> Alcotest.fail "scale must be a number");
  (match field "seed" j with
  | J_num _ -> ()
  | _ -> Alcotest.fail "seed must be a number");
  match field "packs" j with
  | J_arr packs ->
      check_int "all five packs pinned" 5 (List.length packs);
      let names =
        List.map
          (fun p ->
            match field "pack" p with
            | J_str s -> s
            | _ -> Alcotest.fail "pack name must be a string")
          packs
      in
      Alcotest.(check (list string)) "canonical pack order" Pack.names names;
      List.iter
        (fun p ->
          match field "metrics" p with
          | J_arr ms ->
              check "every pack pins every gated metric" true
                (List.for_all
                   (fun g -> List.exists (fun m -> field "metric" m = J_str g) ms)
                   Score.gated_metrics);
              List.iter
                (fun m ->
                  (match field "metric" m with
                  | J_str name ->
                      check ("gated metric " ^ name) true
                        (List.mem name Score.gated_metrics)
                  | _ -> Alcotest.fail "metric must be a string");
                  List.iter
                    (fun key ->
                      match field key m with
                      | J_num _ -> ()
                      | _ -> Alcotest.failf "%s must be a number" key)
                    [ "expected"; "tol_abs"; "tol_rel" ])
                ms
          | _ -> Alcotest.fail "metrics must be an array")
        packs
  | _ -> Alcotest.fail "packs must be an array"

let test_baselines_parse_and_roundtrip () =
  match Baseline.of_string (baselines_text ()) with
  | Error msg -> Alcotest.failf "committed baselines do not parse: %s" msg
  | Ok b -> (
      check_int "five pack entries" 5 (List.length b.Baseline.b_packs);
      (* the writer's output re-parses to the same structure *)
      match Baseline.of_string (Baseline.to_json b) with
      | Error msg -> Alcotest.failf "writer output does not re-parse: %s" msg
      | Ok b' -> check "writer round-trips" true (b = b'))

let test_baselines_reject_garbage () =
  check "wrong discriminator rejected" true
    (Result.is_error (Baseline.of_string "{\"baselines\": \"other\"}"));
  check "trailing garbage rejected" true
    (Result.is_error (Baseline.of_string "{} junk"));
  check "missing fields rejected" true
    (Result.is_error
       (Baseline.of_string "{\"baselines\": \"cfca-scenarios\", \"version\": 1}"));
  (* a pack that leaves any gated metric unpinned fails the gate: the
     committed file with that one entry dropped no longer parses *)
  match Baseline.of_string (baselines_text ()) with
  | Error msg -> Alcotest.failf "committed baselines do not parse: %s" msg
  | Ok b ->
      List.iter
        (fun (pb : Baseline.pack_baseline) ->
          List.iter
            (fun m ->
              let drop (q : Baseline.pack_baseline) =
                if q.pb_pack <> pb.pb_pack then q
                else
                  {
                    q with
                    pb_metrics =
                      List.filter
                        (fun (t : Baseline.tol) -> t.t_metric <> m)
                        q.pb_metrics;
                  }
              in
              let b' = { b with b_packs = List.map drop b.b_packs } in
              check
                (Printf.sprintf "%s without %s rejected" pb.pb_pack m)
                true
                (Result.is_error (Baseline.of_string (Baseline.to_json b'))))
            Score.gated_metrics)
        b.b_packs

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "scenario"
    [
      ( "determinism",
        [
          Alcotest.test_case "all packs replay byte-identically" `Quick
            test_pack_determinism;
          Alcotest.test_case "seeds matter" `Quick
            test_distinct_seeds_distinct_streams;
        ] );
      ( "baseline gate",
        [
          Alcotest.test_case "pass/warn/fail boundaries" `Quick
            test_tolerance_boundaries;
          Alcotest.test_case "committed schema golden" `Quick
            test_baselines_schema_golden;
          Alcotest.test_case "committed file parses and round-trips" `Quick
            test_baselines_parse_and_roundtrip;
          Alcotest.test_case "malformed baselines rejected" `Quick
            test_baselines_reject_garbage;
        ] );
      ( "perf gate",
        [
          Alcotest.test_case "metric classifier" `Quick test_perf_classifier;
          Alcotest.test_case "garbage rejected" `Quick
            test_perf_reject_garbage;
          Alcotest.test_case "pin/write/parse round-trip" `Quick
            test_perf_pin_roundtrip;
          Alcotest.test_case "regressions gate, timings warn" `Quick
            test_perf_diff_gates;
          Alcotest.test_case "committed bench baselines parse" `Quick
            test_perf_committed_baselines;
        ]
        @ qt [ qcheck_perf_boundaries ] );
      ( "adversaries",
        [
          Alcotest.test_case "thrash collapses the hit ratio" `Quick
            test_thrash_collapses_below_zipf;
        ] );
      ("generator soundness", qt [ qcheck_generator_soundness ]);
    ]
