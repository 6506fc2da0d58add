(* cfca_verify: correctness tooling.

   - [verify equiv FILES...]: VeriTable-style forwarding-equivalence
     check of two or more FIB snapshot files (the original CLI).
   - [verify fuzz]: seeded scenario fuzzer — random RIBs + interleaved
     BGP updates and packets driven through CFCA/PFCA with invariants
     and a differential oracle checked after every event; failures are
     shrunk to minimal replayable reproducers.
   - [verify replay FILE]: re-run a reproducer script emitted by the
     fuzzer. *)

open Cmdliner
open Cfca_rib
open Cfca_check

(* -- equiv ----------------------------------------------------------- *)

let files =
  let doc = "FIB snapshots (text format) to compare." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)

let limit =
  let doc = "Maximum divergent regions to report." in
  Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc)

let equiv files limit =
  if List.length files < 2 then begin
    prerr_endline "need at least two tables";
    exit 2
  end;
  let load path =
    match Rib_io.load path with
    | Ok (rib, _) -> Array.to_list (Rib.entries rib)
    | Error e ->
        Printf.eprintf "%s: %s\n" path (Cfca_resilience.Errors.to_string e);
        exit 2
  in
  let tables = List.map load files in
  match Cfca_veritable.Veritable.divergences ~limit tables with
  | [] ->
      Printf.printf "equivalent: %s\n" (String.concat ", " files);
      exit 0
  | ds ->
      List.iter
        (fun d ->
          Format.printf "%a@." Cfca_veritable.Veritable.pp_divergence d)
        ds;
      exit 1

let equiv_cmd =
  let doc = "verify forwarding equivalence of FIB snapshots (VeriTable)" in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const equiv $ files $ limit)

(* -- fuzz ------------------------------------------------------------ *)

type target = Cfca_only | Pfca_only | Both

let target_conv =
  Arg.enum [ ("cfca", Cfca_only); ("pfca", Pfca_only); ("both", Both) ]

let system_arg =
  let doc = "System(s) to fuzz: cfca, pfca or both." in
  Arg.(value & opt target_conv Both & info [ "system" ] ~docv:"SYS" ~doc)

let seeds_arg =
  let doc = "Number of consecutive seeds to fuzz." in
  Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc)

let first_seed_arg =
  let doc = "First seed (each seed derives one whole scenario)." in
  Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"SEED" ~doc)

let one_seed_arg =
  let doc = "Run exactly this one seed (overrides --seeds/--first-seed)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let events_arg =
  let doc = "Events (updates + packets) per scenario." in
  Arg.(value & opt int 150 & info [ "events" ] ~docv:"M" ~doc)

let routes_arg =
  let doc = "Maximum initial routes per scenario." in
  Arg.(value & opt int 40 & info [ "routes" ] ~docv:"R" ~doc)

let default_nh = Cfca_prefix.Nexthop.of_int 9

let makers = function
  | Cfca_only -> [ ("cfca", fun seed -> Fuzz.cfca ~default_nh ~seed ()) ]
  | Pfca_only -> [ ("pfca", fun seed -> Fuzz.pfca ~default_nh ~seed ()) ]
  | Both ->
      [
        ("cfca", fun seed -> Fuzz.cfca ~default_nh ~seed ());
        ("pfca", fun seed -> Fuzz.pfca ~default_nh ~seed ());
      ]

let fuzz target seeds first_seed one_seed events routes =
  let seeds, first_seed =
    match one_seed with None -> (seeds, first_seed) | Some s -> (1, s)
  in
  let cfg = { Fuzz.default_config with Fuzz.events; max_routes = routes } in
  let failed = ref false in
  List.iter
    (fun (name, make) ->
      let failures = Fuzz.run ~cfg ~first_seed ~make ~seeds () in
      if failures = [] then
        Printf.printf "%s: %d seeds x %d events clean\n%!" name seeds events
      else begin
        failed := true;
        List.iter
          (fun f -> Format.printf "%s: %a@." name Fuzz.pp_failure f)
          failures
      end)
    (makers target);
  exit (if !failed then 1 else 0)

let fuzz_cmd =
  let doc =
    "fuzz CFCA/PFCA with random scenarios, checking invariants and \
     oracle equivalence after every event"
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ system_arg $ seeds_arg $ first_seed_arg $ one_seed_arg
      $ events_arg $ routes_arg)

(* -- replay ---------------------------------------------------------- *)

let script_arg =
  let doc = "Reproducer script written by $(b,verify fuzz)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT" ~doc)

let replay target path =
  let script = In_channel.with_open_text path In_channel.input_all in
  match Fuzz.scenario_of_script script with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | Ok sc ->
      let failed = ref false in
      List.iter
        (fun (name, make) ->
          match Fuzz.run_scenario ~make:(fun () -> make (max sc.Fuzz.seed 0)) sc with
          | None -> Printf.printf "%s: scenario passes\n%!" name
          | Some (step, err) ->
              failed := true;
              Printf.printf "%s: step %d: %s\n%!" name step err)
        (makers target);
      exit (if !failed then 1 else 0)

let replay_cmd =
  let doc = "replay a fuzzer reproducer script" in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay $ system_arg $ script_arg)

(* -- timeseries ------------------------------------------------------ *)

(* Golden consistency check of the telemetry subsystem: instrumented
   CFCA and PFCA runs whose windowed series must agree EXACTLY with the
   engine's scalar totals (Delta columns sum to the [r_totals] fields,
   final Level samples equal the end-of-run scalars), plus ratio-range
   and byte-level determinism checks. The packet count is deliberately
   not a multiple of the window so the trailing flush is exercised. *)

let ts_interval_arg =
  let doc = "Telemetry window size in events." in
  Arg.(value & opt int 10_000 & info [ "interval" ] ~docv:"N" ~doc)

let timeseries interval =
  let module E = Cfca_sim.Engine in
  let module X = Cfca_sim.Experiments in
  let module T = Cfca_telemetry.Timeseries in
  let module P = Cfca_dataplane.Pipeline in
  let scale =
    X.with_size X.standard_scale ~rib_size:3_000 ~packets:45_500 ~updates:300
  in
  let workload = X.build_workload scale in
  let cfg = X.config_for workload X.cache_ratios.(2) in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "FAIL %s\n" m)
      fmt
  in
  let run kind =
    let tel = E.telemetry ~interval () in
    let r =
      E.run ~telemetry:tel kind cfg ~default_nh:workload.X.default_nh
        workload.X.rib workload.X.spec
    in
    (r, tel)
  in
  let check kind =
    let name = E.kind_name kind in
    let r, tel = run kind in
    let ts = tel.E.t_series in
    let sum col = Array.fold_left ( +. ) 0.0 (T.get ts col) in
    let last col =
      let a = T.get ts col in
      a.(Array.length a - 1)
    in
    let chk_sum col expected =
      let got = sum col in
      if got <> float_of_int expected then
        fail "%s: sum(%s) = %g, run total says %d" name col got expected
    in
    let chk_last col expected =
      let got = last col in
      if got <> float_of_int expected then
        fail "%s: final %s sample = %g, run result says %d" name col got
          expected
    in
    let st = r.E.r_totals in
    chk_sum "packets" st.P.packets;
    chk_sum "l1_misses" st.P.l1_misses;
    chk_sum "l2_misses" st.P.l2_misses;
    chk_sum "l1_installs" st.P.l1_installs;
    chk_sum "l1_evictions" st.P.l1_evictions;
    chk_sum "l2_installs" st.P.l2_installs;
    chk_sum "l2_evictions" st.P.l2_evictions;
    chk_sum "bgp_l1" st.P.bgp_l1;
    chk_sum "victims_lthd" st.P.victims_lthd;
    chk_sum "victims_fallback" st.P.victims_fallback;
    chk_sum "updates" r.E.r_updates;
    chk_sum "updates_l1" r.E.r_updates_l1;
    chk_sum "fastpath_hits" r.E.r_fastpath.Cfca_dataplane.Fib_snapshot.fast_hits;
    chk_sum "fastpath_fallbacks"
      r.E.r_fastpath.Cfca_dataplane.Fib_snapshot.fallbacks;
    chk_sum "fastpath_patches"
      r.E.r_fastpath.Cfca_dataplane.Fib_snapshot.patches;
    (* the eager initial compile precedes column registration, so the
       delta column's sum excludes exactly that one full rebuild *)
    chk_sum "fastpath_full_rebuilds"
      (r.E.r_fastpath.Cfca_dataplane.Fib_snapshot.full_rebuilds - 1);
    chk_sum "watchdog_checks" r.E.r_watchdog_checks;
    chk_sum "watchdog_recoveries" r.E.r_recoveries;
    (match
       List.assoc_opt "fib_ops"
         (Cfca_telemetry.Metrics.snapshot tel.E.t_metrics).s_counters
     with
    | Some total -> chk_sum "fib_ops" total
    | None -> fail "%s: fib_ops counter missing from the registry" name);
    chk_last "fib_size" r.E.r_fib_final;
    chk_last "arena_live" r.E.r_arena_live;
    chk_last "arena_free" r.E.r_arena_free;
    List.iter
      (fun col ->
        Array.iteri
          (fun i v ->
            if v < 0.0 || v > 1.0 then
              fail "%s: %s window %d = %g out of [0, 1]" name col i v)
          (T.get ts col))
      [ "l1_hit_ratio"; "l2_hit_ratio"; "real_node_ratio" ];
    let events = T.window_events ts in
    let total_events = Array.fold_left ( + ) 0 events in
    if total_events <> st.P.packets + r.E.r_updates then
      fail "%s: window events sum to %d, trace had %d" name total_events
        (st.P.packets + r.E.r_updates);
    let tail = events.(Array.length events - 1) in
    if (st.P.packets + r.E.r_updates) mod interval <> 0 && tail >= interval
    then fail "%s: trailing partial window holds %d >= interval" name tail;
    Printf.printf
      "%s: %d windows x %d columns consistent with run totals\n%!" name
      (T.windows ts)
      (List.length (T.columns ts))
  in
  check E.Cfca;
  check E.Pfca;
  (* byte-level determinism: same seed, same artifact *)
  let _, tel1 = run E.Cfca in
  let _, tel2 = run E.Cfca in
  let csv tel = Cfca_telemetry.Export.series_csv tel.E.t_series in
  if csv tel1 <> csv tel2 then
    fail "cfca: two identically seeded runs exported different series CSVs"
  else Printf.printf "cfca: telemetry export is deterministic\n%!";
  exit (if !failures > 0 then 1 else 0)

let timeseries_cmd =
  let doc =
    "run instrumented CFCA/PFCA replays and verify the telemetry series \
     agree exactly with the engine's scalar totals"
  in
  Cmd.v (Cmd.info "timeseries" ~doc) Term.(const timeseries $ ts_interval_arg)

(* -- scenarios ------------------------------------------------------- *)

(* Readiness gates over the adversarial scenario packs, ADR-0027 style:
   G1 replayability (each pack run twice, digests and deterministic
   score JSON byte-identical), G2 oracle/invariant cleanliness (zero
   forwarding divergences, clean invariant sweeps at every phase mark,
   zero watchdog recoveries, counts matching metadata), G3 baseline
   conformance (scores diffed against the committed pins within
   per-metric tolerances). Any failure exits non-zero. *)

let sc_scale_arg =
  let doc = "Workload scale factor (1.0 = full-size packs)." in
  Arg.(value & opt float 0.05 & info [ "scale" ] ~docv:"S" ~doc)

let sc_seed_arg =
  let doc = "Workload seed shared by every pack generator." in
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc)

let sc_packs_arg =
  let doc = "Comma-separated pack names to run (default: all five)." in
  Arg.(value & opt (some string) None & info [ "packs" ] ~docv:"NAMES" ~doc)

let sc_baselines_arg =
  let doc = "Baseline file the scores are diffed against." in
  Arg.(
    value
    & opt string "SCENARIO_BASELINES.json"
    & info [ "baselines" ] ~docv:"FILE" ~doc)

let sc_out_arg =
  let doc = "Write the scores (plus digests) as a JSON artifact." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let sc_write_arg =
  let doc =
    "Re-pin: write $(b,--baselines) from this run's scores with the default \
     tolerances. Determinism and oracle gates still apply."
  in
  Arg.(value & flag & info [ "write-baselines" ] ~doc)

let scenarios scale seed packs_opt baselines_path out write_baselines =
  let module P = Cfca_scenario.Pack in
  let module R = Cfca_scenario.Runner in
  let module Sc = Cfca_scenario.Score in
  let module B = Cfca_scenario.Baseline in
  let failed = ref false and warned = ref false in
  let names =
    match packs_opt with
    | None -> P.names
    | Some s ->
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
  in
  let packs =
    List.map
      (fun name ->
        match P.find ~scale ~seed name with
        | Some p -> p
        | None ->
            Printf.eprintf "unknown pack %S (known: %s)\n" name
              (String.concat ", " P.names);
            exit 2)
      names
  in
  let results =
    List.map
      (fun (p : P.t) ->
        let o1 = R.run_pack p in
        let o2 = R.run_pack p in
        (p, o1, o2))
      packs
  in
  List.iter
    (fun ((p : P.t), o1, o2) ->
      let name = p.P.meta.P.m_name in
      let s = o1.R.o_score in
      Printf.printf
        "%-11s rib %5d  packets %6d  updates %5d  hit %.4f  l2 %.4f  \
         miss-p99 %g  churn %d  digest %s\n"
        name p.P.meta.P.m_rib_size s.Sc.s_packets s.Sc.s_updates
        s.Sc.s_hit_ratio s.Sc.s_l2_hit_ratio s.Sc.s_miss_p99 s.Sc.s_churn_ops
        o1.R.o_digest;
      (* G1: byte-identical determinism across two full replays *)
      let replayable =
        String.equal o1.R.o_digest o2.R.o_digest
        && String.equal
             (Sc.deterministic_json o1.R.o_score)
             (Sc.deterministic_json o2.R.o_score)
      in
      if not replayable then begin
        failed := true;
        Printf.printf
          "FAIL %s: two replays diverged (digest %s vs %s)\n" name
          o1.R.o_digest o2.R.o_digest
      end;
      (* G2: every machine-checkable oracle clean *)
      List.iter
        (fun msg ->
          failed := true;
          Printf.printf "FAIL %s: %s\n" name msg)
        (R.failures o1))
    results;
  let scores = List.map (fun (_, o1, _) -> o1.R.o_score) results in
  (* G3: baseline conformance (or re-pinning) *)
  if write_baselines then begin
    let b = B.of_scores ~scale ~seed scores in
    (* atomic: a crash mid-pin must not leave a torn baseline file *)
    Cfca_wire.Atomic_file.write baselines_path (B.to_json b);
    Printf.printf "pinned %d packs to %s\n" (List.length scores) baselines_path
  end
  else begin
    match B.of_file baselines_path with
    | Error msg ->
        failed := true;
        Printf.printf "FAIL baselines: %s: %s\n" baselines_path msg
    | Ok b ->
        if b.B.b_scale <> scale || b.B.b_seed <> seed then begin
          warned := true;
          Printf.printf
            "WARN baselines are pinned at scale %g seed %d but this run is \
             scale %g seed %d — baseline diff skipped\n"
            b.B.b_scale b.B.b_seed scale seed
        end
        else
          List.iter
            (fun (s : Sc.t) ->
              let name = s.Sc.s_pack in
              match B.pack b name with
              | None ->
                  failed := true;
                  Printf.printf "FAIL %s: no baseline entry\n" name
              | Some pb ->
                  List.iter
                    (fun (tol : B.tol) ->
                      match Sc.metric s tol.B.t_metric with
                      | None ->
                          failed := true;
                          Printf.printf
                            "FAIL %s: baseline pins unknown metric %s\n" name
                            tol.B.t_metric
                      | Some got -> (
                          match B.check tol got with
                          | B.Pass -> ()
                          | B.Warn ->
                              warned := true;
                              Printf.printf
                                "WARN %s/%s: %g drifted from pinned %g \
                                 (allowed ±%g) — consider re-pinning\n"
                                name tol.B.t_metric got tol.B.t_expected
                                (B.allowed tol)
                          | B.Fail ->
                              failed := true;
                              Printf.printf
                                "FAIL %s/%s: %g outside pinned %g ±%g\n" name
                                tol.B.t_metric got tol.B.t_expected
                                (B.allowed tol)))
                    pb.B.pb_metrics)
            scores
  end;
  (match out with
  | None -> ()
  | Some path ->
      let entry ((p : P.t), o1, _) =
        Printf.sprintf
          "    { \"digest\": %s,\n      \"phases\": [%s],\n      \"score\": %s }"
          (Cfca_telemetry.Export.json_string o1.R.o_digest)
          (String.concat ", "
             (List.map Cfca_telemetry.Export.json_string p.P.meta.P.m_phases))
          (Sc.to_json o1.R.o_score)
      in
      let doc =
        Printf.sprintf
          "{\n\
          \  \"scenario_scores\": \"cfca\",\n\
          \  \"version\": 1,\n\
          \  \"scale\": %s,\n\
          \  \"seed\": %d,\n\
          \  \"packs\": [\n\
           %s\n\
          \  ]\n\
           }\n"
          (Cfca_telemetry.Export.json_number scale)
          seed
          (String.concat ",\n" (List.map entry results))
      in
      Cfca_wire.Atomic_file.write path doc;
      Printf.printf "scores written to %s\n" path);
  Printf.printf "scenarios: %d packs x 2 replays — %s\n" (List.length results)
    (if !failed then "GATE FAILED"
     else if !warned then "clean (with warnings)"
     else "clean");
  exit (if !failed then 1 else 0)

let scenarios_cmd =
  let doc =
    "replay the adversarial scenario packs twice each, assert byte-identical \
     determinism, check every per-pack oracle, and diff scores against the \
     committed baselines"
  in
  Cmd.v (Cmd.info "scenarios" ~doc)
    Term.(
      const scenarios $ sc_scale_arg $ sc_seed_arg $ sc_packs_arg
      $ sc_baselines_arg $ sc_out_arg $ sc_write_arg)

(* -- perf: bench perf-regression gate -------------------------------- *)

(* Diff every committed BENCH_*.json against the pinned baselines
   (BENCH_BASELINES.json) with per-kind tolerances — see
   Cfca_scenario.Perf and BENCHMARKS.md. Deterministic metrics gate
   hard; timing metrics warn unless --gate-timing. *)

let perf_baselines_arg =
  let doc = "Baseline file the reports are diffed against." in
  Arg.(
    value
    & opt string "BENCH_BASELINES.json"
    & info [ "baselines" ] ~docv:"FILE" ~doc)

let perf_dir_arg =
  let doc = "Directory holding the $(b,BENCH_*.json) reports." in
  Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc)

let perf_bench_arg =
  let doc = "Comma-separated bench names to diff (default: all pinned)." in
  Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAMES" ~doc)

let perf_gate_timing_arg =
  let doc =
    "Enforce timing-kind failures too (off by default: wall-clock rates \
     are machine-dependent, so on foreign hardware they only warn)."
  in
  Arg.(value & flag & info [ "gate-timing" ] ~doc)

let perf_write_arg =
  let doc =
    "Re-pin: write $(b,--baselines) from the reports currently on disk, \
     every metric at its default per-kind tolerance."
  in
  Arg.(value & flag & info [ "write-baselines" ] ~doc)

let perf baselines_path dir bench_opt gate_timing write_baselines =
  let module P = Cfca_scenario.Perf in
  let module B = Cfca_scenario.Baseline in
  let failed = ref false and warned = ref false in
  let wanted =
    match bench_opt with
    | None -> None
    | Some s ->
        Some
          (String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun x -> x <> ""))
  in
  let selected name =
    match wanted with None -> true | Some ns -> List.mem name ns
  in
  let read path =
    try Some (In_channel.with_open_text path In_channel.input_all)
    with Sys_error _ -> None
  in
  if write_baselines then begin
    let benches =
      List.filter_map
        (fun (name, file) ->
          if not (selected name) then None
          else
            let path = Filename.concat dir file in
            match read path with
            | None ->
                Printf.printf "SKIP %s: %s not found (run `bench %s` first)\n"
                  name path name;
                None
            | Some text -> (
                match P.pin_document ~bench:name ~file text with
                | Ok b ->
                    Printf.printf "pin  %s: %d metrics from %s\n" name
                      (List.length b.P.pb_metrics)
                      file;
                    Some b
                | Error msg ->
                    failed := true;
                    Printf.printf "FAIL %s: %s: %s\n" name path msg;
                    None))
        P.catalog
    in
    if benches = [] then begin
      prerr_endline "perf: no reports to pin";
      exit 2
    end;
    if !failed then exit 1;
    (* atomic: a crash mid-pin must not leave a torn baseline file *)
    Cfca_wire.Atomic_file.write baselines_path
      (P.to_json { P.p_version = 1; p_benches = benches });
    Printf.printf "pinned %d benches to %s\n" (List.length benches)
      baselines_path;
    exit 0
  end;
  match P.of_file baselines_path with
  | Error msg ->
      Printf.printf "FAIL baselines: %s: %s\n" baselines_path msg;
      exit 1
  | Ok t ->
      let diff_bench (b : P.bench) =
        let name = b.P.pb_bench in
        let path = Filename.concat dir b.P.pb_file in
        match read path with
        | None ->
            failed := true;
            Printf.printf "FAIL %s: %s not found (run `bench %s --json`)\n"
              name path name
        | Some text -> (
            match P.diff b text with
            | Error msg ->
                failed := true;
                Printf.printf "FAIL %s: %s: %s\n" name path msg
            | Ok outcomes ->
                let pass = ref 0 and warn = ref 0 and fail = ref 0 in
                List.iter
                  (fun (o : P.outcome) ->
                    let tol = o.P.o_tol in
                    match (P.gate ~gate_timing o, o.P.o_got) with
                    | B.Pass, _ -> incr pass
                    | _, None ->
                        incr fail;
                        failed := true;
                        Printf.printf
                          "FAIL %s/%s: pinned metric missing from the \
                           report (schema change — re-pin deliberately)\n"
                          name tol.B.t_metric
                    | B.Warn, Some got ->
                        incr warn;
                        warned := true;
                        Printf.printf
                          "WARN %s/%s (%s): %g drifted from pinned %g \
                           (allowed ±%g)\n"
                          name tol.B.t_metric
                          (P.kind_name o.P.o_kind)
                          got tol.B.t_expected (B.allowed tol)
                    | B.Fail, Some got ->
                        incr fail;
                        failed := true;
                        Printf.printf "FAIL %s/%s (%s): %g outside pinned %g ±%g\n"
                          name tol.B.t_metric
                          (P.kind_name o.P.o_kind)
                          got tol.B.t_expected (B.allowed tol))
                  outcomes;
                (match B.parse_json text with
                | json ->
                    List.iter
                      (fun m ->
                        warned := true;
                        Printf.printf
                          "WARN %s/%s: unpinned metric (re-pin to adopt)\n"
                          name m)
                      (P.unpinned b json)
                | exception B.Parse_error _ -> ());
                Printf.printf
                  "%-9s %s: %d metrics — %d pass, %d warn, %d fail\n" name
                  b.P.pb_file
                  (List.length outcomes)
                  !pass !warn !fail)
      in
      let benches = List.filter (fun b -> selected b.P.pb_bench) t.P.p_benches in
      if benches = [] then begin
        prerr_endline "perf: no pinned benches selected";
        exit 2
      end;
      List.iter diff_bench benches;
      List.iter
        (fun (name, _) ->
          if selected name && P.find t name = None then begin
            warned := true;
            Printf.printf "WARN %s: known bench target has no pins\n" name
          end)
        P.catalog;
      Printf.printf "perf: %d benches diffed against %s — %s\n"
        (List.length benches) baselines_path
        (if !failed then "GATE FAILED"
         else if !warned then "clean (with warnings)"
         else "clean");
      exit (if !failed then 1 else 0)

let perf_cmd =
  let doc =
    "diff the bench reports (BENCH_*.json) against the committed \
     perf baselines with per-kind tolerances; deterministic metrics \
     gate hard, timing metrics warn unless $(b,--gate-timing)"
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(
      const perf $ perf_baselines_arg $ perf_dir_arg $ perf_bench_arg
      $ perf_gate_timing_arg $ perf_write_arg)

(* -- inject ---------------------------------------------------------- *)

let inject_seeds_arg =
  let doc = "Number of consecutive seeds to sweep." in
  Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"N" ~doc)

let inject_first_seed_arg =
  let doc = "First seed of the sweep." in
  Arg.(value & opt int 0 & info [ "first-seed" ] ~docv:"SEED" ~doc)

let inject seeds first_seed =
  let open Cfca_inject in
  match Inject.sweep ~first_seed ~seeds () with
  | Error msg ->
      prerr_endline msg;
      exit 1
  | Ok trials -> (
      let dropped =
        List.fold_left (fun a t -> a + t.Inject.t_dropped) 0 trials
      in
      Printf.printf
        "inject: %d seeds, %d corruption trials clean (%d damaged records \
         dropped and accounted)\n"
        seeds (List.length trials) dropped;
      match Inject.store_sweep ~first_seed ~seeds () with
      | Error msg ->
          prerr_endline msg;
          exit 1
      | Ok trials ->
          let dropped =
            List.fold_left (fun a t -> a + t.Inject.t_dropped) 0 trials
          in
          Printf.printf
            "inject: %d seeds, %d journal/checkpoint trials clean (%d \
             damaged records dropped and accounted)\n"
            seeds (List.length trials) dropped;
          exit 0)

let inject_cmd =
  let doc =
    "corrupt well-formed MRT/pcap corpora (bit flips, truncations, lying \
     lengths, garbage records, mid-stream EOF) plus journal/checkpoint \
     stores (torn tails, length-field flips, duplicated records, \
     stale-checkpoint skew) and assert the resilient decoders and crash \
     recovery never break and account for every byte"
  in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(const inject $ inject_seeds_arg $ inject_first_seed_arg)

(* -- crash ------------------------------------------------------------ *)

(* Kill-point recovery gate. A seeded churn run drives a real on-disk
   durability store (write-ahead journal + periodic checkpoints); the
   gate then simulates a crash at EVERY journal-record boundary — the
   exact byte prefixes a kill between two appends leaves behind — plus,
   at each kill point, a torn write of the next record, a bit-flip in
   the last record, and a corrupt newest checkpoint. Each recovery must
   rebuild a control plane dump-identical (Differential.arena_dump) to
   a clean incremental rebuild at that point, agree with the linear
   oracle, and pass the full invariant suite. *)

let crash_routes_arg =
  let doc = "Initial RIB size of the churn workload." in
  Arg.(value & opt int 400 & info [ "routes" ] ~docv:"R" ~doc)

let crash_updates_arg =
  let doc = "BGP updates journaled (one kill point per record boundary)." in
  Arg.(value & opt int 120 & info [ "updates" ] ~docv:"N" ~doc)

let crash_seed_arg =
  let doc = "Workload seed." in
  Arg.(value & opt int 0xC4A5 & info [ "seed" ] ~docv:"SEED" ~doc)

let crash_ckpt_arg =
  let doc = "Checkpoint cadence in journal records." in
  Arg.(value & opt int 32 & info [ "checkpoint-every" ] ~docv:"C" ~doc)

let crash_sample_arg =
  let doc =
    "Test every $(docv)-th kill point (1 = all; CI smoke uses a stride)."
  in
  Arg.(value & opt int 1 & info [ "sample" ] ~docv:"K" ~doc)

let crash_report_arg =
  let doc = "Write a JSON recovery report artifact." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let crash routes updates seed checkpoint_every sample report_path =
  let module D = Cfca_durability in
  let module RM = Cfca_core.Route_manager in
  let module P = Cfca_dataplane.Pipeline in
  let module Cfg = Cfca_dataplane.Config in
  let module Rib_gen = Cfca_rib.Rib_gen in
  let module Flow_gen = Cfca_traffic.Flow_gen in
  let module Update_gen = Cfca_traffic.Update_gen in
  let module E = Cfca_resilience.Errors in
  if sample < 1 then begin
    prerr_endline "crash: --sample must be >= 1";
    exit 2
  end;
  let rib =
    Rib_gen.generate { Rib_gen.size = routes; peers = 6; locality = 0.8; seed }
  in
  let flow =
    Flow_gen.create { Flow_gen.default_params with Flow_gen.seed } rib
  in
  let stream =
    Update_gen.generate
      {
        Update_gen.default_params with
        Update_gen.count = updates;
        seed = seed + 1;
      }
      flow
  in
  let n = Array.length stream in
  (* the authoritative mirror the engine keeps, and the per-kill-point
     reference states (route sets after k updates, sorted) *)
  let tbl = Hashtbl.create (max 16 routes) in
  Seq.iter (fun (p, nh) -> Hashtbl.replace tbl p nh) (Rib.to_seq rib);
  let sorted_routes () =
    Hashtbl.fold (fun p nh acc -> (p, nh) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Cfca_prefix.Prefix.compare a b)
  in
  let states = Array.make (n + 1) [] in
  states.(0) <- sorted_routes ();
  (* drive a REAL store on disk, recording each record boundary *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cfca-crash-gate" in
  let store = D.Store.open_ ~checkpoint_every ~dir () in
  D.Store.arm store ~routes:states.(0) ~summary:D.Checkpoint.empty_summary;
  let boundaries = Array.make (n + 1) (String.length D.Journal.magic) in
  Array.iteri
    (fun i u ->
      let s = D.Store.append store u in
      assert (s = i + 1);
      boundaries.(i + 1) <-
        boundaries.(i)
        + String.length (D.Journal.encode_record { D.Journal.seq = s; update = u });
      let p = Cfca_bgp.Bgp_update.prefix u in
      (match u.Cfca_bgp.Bgp_update.action with
      | Cfca_bgp.Bgp_update.Announce nh -> Hashtbl.replace tbl p nh
      | Cfca_bgp.Bgp_update.Withdraw -> Hashtbl.remove tbl p);
      states.(i + 1) <- sorted_routes ();
      if D.Store.checkpoint_due store then
        D.Store.checkpoint store ~routes:states.(i + 1)
          ~summary:D.Checkpoint.empty_summary)
    stream;
  let jstats = D.Store.stats store in
  D.Store.close store;
  let read_file path =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let journal_full = read_file (Filename.concat dir D.Store.journal_file) in
  if String.length journal_full <> boundaries.(n) then begin
    Printf.eprintf "crash: journal is %d bytes, boundaries say %d\n"
      (String.length journal_full) boundaries.(n);
    exit 2
  end;
  let ckpts =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match D.Checkpoint.seq_of_filename name with
           | Some s -> Some (s, read_file (Filename.concat dir name))
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  (* reference control planes: one RM driven incrementally (clean
     rebuild at every k), dumped per kill point *)
  let ref_rm = RM.create ~default_nh () in
  RM.load ref_rm (Rib.to_seq rib);
  let ref_dumps = Array.make (n + 1) [] in
  ref_dumps.(0) <- Differential.arena_dump (RM.tree ref_rm);
  Array.iteri
    (fun i u ->
      RM.apply ref_rm u;
      ref_dumps.(i + 1) <- Differential.arena_dump (RM.tree ref_rm))
    stream;
  let trials = ref 0 and failures = ref [] in
  let fail_trial k variant fmt =
    Printf.ksprintf
      (fun msg ->
        let m = Printf.sprintf "kill point %d, %s: %s" k variant msg in
        failures := m :: !failures;
        Printf.printf "FAIL %s\n%!" m)
      fmt
  in
  let latest_ckpt_seq k =
    match List.find_opt (fun (s, _) -> s <= k) ckpts with
    | Some (s, _) -> s
    | None -> -1
  in
  (* one simulated recovery: the on-disk images a crash at kill point k
     (with [variant] damage) leaves, replayed and audited against the
     clean rebuild at [expect] *)
  let recover_and_audit k variant ~checkpoints ~journal ~expect ~min_skipped =
    incr trials;
    match D.Store.replay ~checkpoints ~journal with
    | Error e -> fail_trial k variant "recovery failed: %s" (E.to_string e)
    | exception e ->
        fail_trial k variant "recovery raised %s" (Printexc.to_string e)
    | Ok rc ->
        if rc.D.Store.rc_skipped_checkpoints < min_skipped then
          fail_trial k variant "expected a checkpoint fallback, got none";
        let pl = P.create ~seed Cfg.default in
        let rm = RM.create ~sink:(P.sink pl) ~default_nh () in
        RM.load rm (List.to_seq rc.D.Store.rc_routes);
        let dump = Differential.arena_dump (RM.tree rm) in
        if dump <> ref_dumps.(expect) then
          fail_trial k variant
            "recovered tree differs from the clean rebuild at update %d \
             (%d vs %d dump lines)"
            expect (List.length dump)
            (List.length ref_dumps.(expect))
        else begin
          (match Invariants.check ~mode:Invariants.Cfca_mode ~pipeline:pl
                   (RM.tree rm)
           with
          | Ok () -> ()
          | Error msg -> fail_trial k variant "invariants: %s" msg);
          (match
             Invariants.quick_check ~samples:32
               ~rng:(Random.State.make [| seed; k |])
               (RM.tree rm) pl
           with
          | Ok () -> ()
          | Error msg -> fail_trial k variant "quick_check: %s" msg);
          let o = Oracle.create ~default_nh in
          Oracle.load o states.(expect);
          let touched =
            if expect = 0 then []
            else [ Cfca_bgp.Bgp_update.prefix stream.(expect - 1) ]
          in
          let probes =
            Oracle.probes o ~touched (Random.State.make [| seed; k; 7 |])
          in
          match Oracle.equiv o ~lookup:(RM.lookup rm) probes with
          | Ok () -> ()
          | Error msg -> fail_trial k variant "oracle: %s" msg
        end
  in
  let kill_points = ref 0 in
  for k = 0 to n do
    if k mod sample = 0 || k = n then begin
      incr kill_points;
      let checkpoints =
        List.filter_map
          (fun (s, img) -> if s <= k then Some img else None)
          ckpts
      in
      let prefix = String.sub journal_full 0 boundaries.(k) in
      (* 1. clean cut exactly at the record boundary *)
      recover_and_audit k "clean-cut" ~checkpoints ~journal:prefix ~expect:k
        ~min_skipped:0;
      (* 2. torn write: the crash lands inside the next record *)
      if k < n then begin
        let next = boundaries.(k + 1) - boundaries.(k) in
        let torn =
          String.sub journal_full 0 (boundaries.(k) + 1 + ((next - 2) / 2))
        in
        recover_and_audit k "torn-write" ~checkpoints ~journal:torn ~expect:k
          ~min_skipped:0
      end;
      (* 3. bit flip inside the last appended record: it must drop,
         unless a checkpoint already covers it *)
      if k >= 1 then begin
        let lo = boundaries.(k - 1) and hi = boundaries.(k) in
        let st = Random.State.make [| seed; k; 13 |] in
        let i = lo + Random.State.int st (hi - lo) in
        let b = Bytes.of_string prefix in
        Bytes.set b i
          (Char.chr (Char.code prefix.[i] lxor (1 lsl Random.State.int st 8)));
        let expect = max (k - 1) (latest_ckpt_seq k) in
        recover_and_audit k "bit-flip" ~checkpoints
          ~journal:(Bytes.to_string b) ~expect ~min_skipped:0
      end;
      (* 4. newest checkpoint corrupt: fall back to an older one and
         replay further *)
      (match checkpoints with
      | newest :: (_ :: _ as older) ->
          let b = Bytes.of_string newest in
          let i = String.length newest - 3 in
          Bytes.set b i (Char.chr (Char.code newest.[i] lxor 0x20));
          recover_and_audit k "ckpt-corrupt"
            ~checkpoints:(Bytes.to_string b :: older)
            ~journal:prefix ~expect:k ~min_skipped:1
      | _ -> ())
    end
  done;
  (* end-to-end: recovery straight from the directory equals the final
     clean state *)
  incr trials;
  (match D.Store.recover ~dir with
  | Error e -> fail_trial n "dir-recover" "failed: %s" (E.to_string e)
  | Ok rc ->
      let rm = RM.create ~default_nh () in
      RM.load rm (List.to_seq rc.D.Store.rc_routes);
      if Differential.arena_dump (RM.tree rm) <> ref_dumps.(n) then
        fail_trial n "dir-recover" "final recovered tree differs");
  (* clean the gate's scratch directory *)
  Array.iter
    (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  let failed = !failures <> [] in
  (match report_path with
  | None -> ()
  | Some path ->
      let json =
        Printf.sprintf
          "{\n\
          \  \"crash_gate\": \"cfca\",\n\
          \  \"version\": 1,\n\
          \  \"seed\": %d,\n\
          \  \"routes\": %d,\n\
          \  \"updates\": %d,\n\
          \  \"checkpoint_every\": %d,\n\
          \  \"sample\": %d,\n\
          \  \"kill_points\": %d,\n\
          \  \"trials\": %d,\n\
          \  \"journal_records\": %d,\n\
          \  \"checkpoints\": %d,\n\
          \  \"failures\": [%s]\n\
           }\n"
          seed routes updates checkpoint_every sample !kill_points !trials
          jstats.D.Store.st_appended jstats.D.Store.st_checkpoints
          (String.concat ", "
             (List.rev_map Cfca_telemetry.Export.json_string !failures))
      in
      Cfca_wire.Atomic_file.write path json;
      Printf.printf "recovery report written to %s\n" path);
  Printf.printf
    "crash: %d kill points (stride %d), %d recoveries audited, %d journal \
     records, %d checkpoints — %s\n"
    !kill_points sample !trials jstats.D.Store.st_appended
    jstats.D.Store.st_checkpoints
    (if failed then "GATE FAILED" else "clean");
  exit (if failed then 1 else 0)

let crash_cmd =
  let doc =
    "replay seeded BGP churn through the write-ahead journal, simulate a \
     crash at every record boundary (plus torn writes, bit flips and \
     corrupt checkpoints), and require every recovery to rebuild a state \
     dump-identical to a clean rebuild, oracle-equivalent and \
     invariant-clean"
  in
  Cmd.v (Cmd.info "crash" ~doc)
    Term.(
      const crash $ crash_routes_arg $ crash_updates_arg $ crash_seed_arg
      $ crash_ckpt_arg $ crash_sample_arg $ crash_report_arg)

(* -- mt: multicore lookup-plane stress gate -------------------------- *)

(* Worst case for the publication protocol, not the throughput case:
   every single update republishes (publish_every=1), pins are short
   (small batch) and the audit samples densely, so generations retire
   as fast as the grace period allows while every domain is answering
   from them. *)

let mt_domains_arg =
  let doc = "Reader domains to spawn." in
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"D" ~doc)

let mt_routes_arg =
  let doc = "Initial RIB size." in
  Arg.(value & opt int 1_500 & info [ "routes" ] ~docv:"R" ~doc)

let mt_lookups_arg =
  let doc = "Lookups per domain." in
  Arg.(value & opt int 60_000 & info [ "lookups" ] ~docv:"N" ~doc)

let mt_updates_arg =
  let doc = "BGP churn budget (every update republishes a generation)." in
  Arg.(value & opt int 400 & info [ "updates" ] ~docv:"U" ~doc)

let mt_seed_arg =
  let doc = "Workload seed." in
  Arg.(value & opt int 0x3A7 & info [ "seed" ] ~docv:"SEED" ~doc)

let mt domains routes lookups updates seed =
  let module M = Cfca_sim.Mt_engine in
  let rib =
    Cfca_rib.Rib_gen.generate
      { Cfca_rib.Rib_gen.size = routes; peers = 8; locality = 0.90; seed }
  in
  let telemetry = Cfca_telemetry.Metrics.create () in
  let cfg =
    {
      M.domains;
      lookups;
      batch = 32;
      updates;
      publish_every = 1;
      mode = M.Warm;
      seed;
      sample_every = 17;
      verify_publish = true;
    }
  in
  let r = M.run ~telemetry cfg rib in
  Printf.printf
    "mt stress: %d domains x %d lookups, %d updates applied, %d generations \
     published (%d freed, retired backlog peak %d)\n"
    domains lookups r.M.mt_updates_applied r.M.mt_published r.M.mt_freed
    r.M.mt_retired_peak;
  Printf.printf "audit: %d samples, %d divergences, %d live violations\n"
    r.M.mt_audit_samples r.M.mt_audit_divergences r.M.mt_live_violations;
  Printf.printf
    "incremental: %d patched publishes / %d full compiles; coalesced %d -> \
     %d ops; publish gate: %d probes, %d divergences\n"
    r.M.mt_patched_publishes r.M.mt_full_compiles r.M.mt_coalesced_seen
    r.M.mt_coalesced_emitted r.M.mt_publish_checks r.M.mt_publish_divergences;
  let reclaimed = r.M.mt_freed = r.M.mt_published - 1 in
  Printf.printf "counters: %s; reclamation: %s\n"
    (if r.M.mt_counters_exact then "exact" else "INEXACT")
    (if reclaimed then "complete (all non-current generations freed)"
     else "INCOMPLETE");
  let epochs_span =
    Array.for_all
      (fun d -> d.M.d_min_epoch >= 0 && d.M.d_max_epoch <= r.M.mt_published - 1)
      r.M.mt_domains
  in
  if not epochs_span then
    print_endline "FAILED: a domain answered from an out-of-range epoch";
  if r.M.mt_publish_divergences > 0 then
    print_endline "FAILED: a patched publication diverged from a fresh compile";
  let ok =
    r.M.mt_audit_divergences = 0
    && r.M.mt_live_violations = 0
    && r.M.mt_counters_exact && reclaimed && epochs_span
    && r.M.mt_audit_samples > 0
    && r.M.mt_publish_divergences = 0
    && r.M.mt_publish_checks > 0
    && r.M.mt_patched_publishes > 0
  in
  print_endline (if ok then "mt stress gate: PASS" else "mt stress gate: FAIL");
  exit (if ok then 0 else 1)

let mt_cmd =
  let doc =
    "hammer the multicore lookup plane: N reader domains against a writer \
     republishing on every update, with per-epoch oracle audit of sampled \
     answers, freed-generation pin detection, exact sharded-counter \
     reconciliation and complete grace-period reclamation required"
  in
  Cmd.v (Cmd.info "mt" ~doc)
    Term.(
      const mt $ mt_domains_arg $ mt_routes_arg $ mt_lookups_arg
      $ mt_updates_arg $ mt_seed_arg)

let () =
  let doc =
    "CFCA correctness tooling: equivalence, fuzzing, replay, fault injection"
  in
  let info = Cmd.info "cfca_verify" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            equiv_cmd;
            fuzz_cmd;
            replay_cmd;
            timeseries_cmd;
            perf_cmd;
            inject_cmd;
            scenarios_cmd;
            crash_cmd;
            mt_cmd;
          ]))
