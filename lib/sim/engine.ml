open Cfca_prefix
open Cfca_bgp
open Cfca_trie
open Cfca_core
open Cfca_rib
open Cfca_traffic
open Cfca_dataplane
open Cfca_tcam
open Cfca_resilience

type kind = Cfca | Pfca

let kind_name = function Cfca -> "CFCA" | Pfca -> "PFCA"

(* One bundle per instrumented run: a registry for scalar instruments
   and the update-latency histogram, the windowed series, and the
   structured event log. [Cfca_traffic] is opened below, so the
   telemetry Trace module is always referred to fully qualified. *)
type telemetry = {
  t_metrics : Cfca_telemetry.Metrics.t;
  t_series : Cfca_telemetry.Timeseries.t;
  t_trace : Cfca_telemetry.Trace.t;
}

let telemetry ?(interval = 100_000) ?series_capacity ?trace_capacity () =
  {
    t_metrics = Cfca_telemetry.Metrics.create ();
    t_series =
      Cfca_telemetry.Timeseries.create ?capacity:series_capacity ~interval ();
    t_trace = Cfca_telemetry.Trace.create ?capacity:trace_capacity ();
  }

type window = {
  w_packets : int;
  w_l1_misses : int;
  w_l2_misses : int;
  w_l1_installs : int;
  w_l1_evictions : int;
  w_l2_installs : int;
  w_l2_evictions : int;
  w_updates : int;
  w_updates_l1 : int;
}

type access = {
  a_tree : unit -> Bintrie.t;
  a_pipeline : Pipeline.t;
  a_lookup : Ipv4.t -> Nexthop.t;
  a_fib_size : unit -> int;
}

type run_result = {
  r_name : string;
  r_config : Config.t;
  r_windows : window array;
  r_totals : Pipeline.stats;
  r_rib_size : int;
  r_fib_initial : int;
  r_fib_final : int;
  r_updates : int;
  r_updates_l1 : int;
  r_burst_l1 : int;
  r_update_seconds : float;
  r_tcam : Tcam.stats;
  r_lookup : Ipv4.t -> Nexthop.t;
  r_recoveries : int;
  r_memory_rebuilds : int;
  r_journal_rebuilds : int;
  r_watchdog_checks : int;
  r_journal : Cfca_durability.Store.stats option;
  r_ingest : (string * Errors.report) list;
  r_fastpath : Fib_snapshot.stats;
  r_arena_live : int;
  r_arena_free : int;
}

(* A uniform handle over the two cached control planes. [c_tree] is a
   thunk because full-reset recovery swaps the live tree; the CFCA
   Route Manager rebuilds in place, PFCA is recreated behind a ref. *)
type cached = {
  c_tree : unit -> Bintrie.t;
  c_apply : Bgp_update.t -> unit;
  c_fib_size : unit -> int;
  c_lookup : Ipv4.t -> Nexthop.t;
  c_rebuild : (Prefix.t * Nexthop.t) Seq.t -> unit;
}

let make_cached kind ~sink ~default_nh rib =
  match kind with
  | Cfca ->
      let rm = Route_manager.create ~sink ~default_nh () in
      Route_manager.load rm (Rib.to_seq rib);
      {
        c_tree = (fun () -> Route_manager.tree rm);
        c_apply = Route_manager.apply rm;
        c_fib_size = (fun () -> Route_manager.fib_size rm);
        c_lookup = Route_manager.lookup rm;
        c_rebuild = Route_manager.rebuild rm;
      }
  | Pfca ->
      let pf = ref (Cfca_pfca.Pfca.create ~sink ~default_nh ()) in
      Cfca_pfca.Pfca.load !pf (Rib.to_seq rib);
      {
        c_tree = (fun () -> Cfca_pfca.Pfca.tree !pf);
        c_apply = (fun u -> Cfca_pfca.Pfca.apply !pf u);
        c_fib_size = (fun () -> Cfca_pfca.Pfca.fib_size !pf);
        c_lookup = (fun a -> Cfca_pfca.Pfca.lookup !pf a);
        c_rebuild =
          (fun routes ->
            pf := Cfca_pfca.Pfca.create ~sink ~default_nh ();
            Cfca_pfca.Pfca.load !pf routes);
      }

let run_events ?(window = 100_000) ?(seed = 0x5EED)
    ?(watchdog = Watchdog.default_config) ?telemetry ?journal ?on_mark kind cfg
    ~default_nh rib iter_events =
  let pipeline = Pipeline.create ~seed cfg in
  (* Scalar instruments live from the start, but stay dormant until
     [tel_armed] flips after the initial RIB load: the bulk
     installation is not churn and must not skew the series. *)
  let tel_instruments =
    match telemetry with
    | None -> None
    | Some tel ->
        Some
          ( tel,
            Cfca_telemetry.Metrics.counter tel.t_metrics "fib_ops",
            Cfca_telemetry.Metrics.histogram tel.t_metrics "update_ns" )
  in
  let tel_armed = ref false in
  let tel_time = ref 0.0 in
  (* Like the initial bulk load, a watchdog recovery's from-scratch
     reinstall is not churn: its ops stay out of the fib_ops counter so
     a recovered run scores like an undisturbed one. *)
  let in_recovery = ref false in
  (* Per-packet fast path: the IN_FIB set compiled into a flat LPM,
     fed by its own sink so the next refresh can patch instead of
     recompile. *)
  let snapshot = Fib_snapshot.create () in
  let sink tr op =
    (match tel_instruments with
    | Some (tel, fib_ops, _) when !tel_armed && not !in_recovery ->
        Cfca_telemetry.Metrics.incr fib_ops;
        let dirty_before =
          (Fib_snapshot.stats snapshot).Fib_snapshot.invalidations
        in
        Fib_snapshot.sink snapshot tr op;
        (* invalidations count dirty transitions, not ops: a bump here
           means this op started a new dirty burst *)
        if
          (Fib_snapshot.stats snapshot).Fib_snapshot.invalidations
          > dirty_before
        then
          Cfca_telemetry.Trace.emit tel.t_trace ~time:!tel_time
            ~kind:"snapshot_invalidate" ""
    | _ -> Fib_snapshot.sink snapshot tr op);
    Pipeline.sink pipeline tr op
  in
  let system = make_cached kind ~sink ~default_nh rib in
  (* The authoritative route set: RIB snapshot + replayed updates,
     independent of the (corruptible) tree — what recovery rebuilds
     from. *)
  let authoritative = Hashtbl.create (max 16 (Rib.size rib)) in
  Seq.iter
    (fun (p, nh) -> Hashtbl.replace authoritative p nh)
    (Rib.to_seq rib);
  let wd = Watchdog.create ~config:watchdog () in
  (* Control-plane only — never touched per packet. The sorted order
     makes checkpoint images (and thus their checksums) deterministic
     for a given route set. *)
  let authoritative_routes () =
    Hashtbl.fold (fun p nh acc -> (p, nh) :: acc) authoritative []
    |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
  in
  let journal_summary () =
    let lthd_l1, lthd_l2 = Pipeline.lthd_occupancy pipeline in
    {
      Cfca_durability.Checkpoint.ck_fib_size = system.c_fib_size ();
      ck_l1_resident = Pipeline.l1_size pipeline;
      ck_l2_resident = Pipeline.l2_size pipeline;
      ck_lthd_l1 = lthd_l1;
      ck_lthd_l2 = lthd_l2;
    }
  in
  let rebuild_from routes =
    (* scrub residency state out of the old tree before it is replaced:
       afterwards its handles may be dead (arena) or unreachable *)
    Pipeline.clear pipeline (system.c_tree ());
    Fib_snapshot.invalidate snapshot;
    in_recovery := true;
    Fun.protect
      ~finally:(fun () -> in_recovery := false)
      (fun () -> system.c_rebuild (List.to_seq routes))
  in
  let recover ~violation ~tier =
    let emit k detail =
      match telemetry with
      | Some tel ->
          Cfca_telemetry.Trace.emit tel.t_trace ~time:!tel_time ~kind:k detail
      | None -> ()
    in
    match tier with
    | Watchdog.Rebuild_memory ->
        emit "watchdog_recovery" violation;
        rebuild_from (authoritative_routes ());
        true
    | Watchdog.Rebuild_journal -> (
        match journal with
        | None -> false
        | Some store -> (
            match Cfca_durability.Store.recover_live store with
            | Error _ -> false
            | Ok rc ->
                emit "journal_recovery"
                  (Printf.sprintf "%s: checkpoint %d + %d replayed" violation
                     rc.Cfca_durability.Store.rc_checkpoint_seq
                     (List.length rc.Cfca_durability.Store.rc_applied));
                (* the in-memory set itself is suspect: re-derive it
                   from the recovered durable state *)
                Hashtbl.reset authoritative;
                List.iter
                  (fun (p, nh) -> Hashtbl.replace authoritative p nh)
                  rc.Cfca_durability.Store.rc_routes;
                rebuild_from rc.Cfca_durability.Store.rc_routes;
                true))
  in
  let observe () =
    Watchdog.observe wd ~tree:system.c_tree ~pipeline ~recover
  in
  let fib_initial = system.c_fib_size () in
  (* the initial bulk installation is not churn *)
  Pipeline.reset_stats pipeline;
  Tcam.reset_stats (Pipeline.l1_tcam pipeline);
  (* compile the initial generation so the first packets are fast *)
  Fib_snapshot.refresh snapshot (system.c_tree ());
  (* Journaling arms only now: the bulk RIB installation is covered by
     checkpoint 0, not by per-route journal records. *)
  (match journal with
  | Some store ->
      Cfca_durability.Store.arm store ~routes:(authoritative_routes ())
        ~summary:(journal_summary ())
  | None -> ());
  let windows = ref [] in
  let prev = ref (Pipeline.stats pipeline) in
  let win_updates = ref 0 and win_updates_l1 = ref 0 in
  let updates = ref 0 and updates_l1 = ref 0 and burst = ref 0 in
  let update_seconds = ref 0.0 in
  let in_window = ref 0 in
  (* Register the series columns only now: every Delta/ratio column
     baselines at registration time, so registering after the
     stats reset (and after the eager refresh) makes each column sum
     exactly to the corresponding end-of-run total — the property
     [verify timeseries] pins. *)
  (match tel_instruments with
  | None -> ()
  | Some (tel, fib_ops, _) ->
      tel_armed := true;
      Pipeline.set_tracer pipeline
        (Some
           (fun ~kind ~detail ->
             Cfca_telemetry.Trace.emit tel.t_trace ~time:!tel_time ~kind
               detail));
      let ts = tel.t_series in
      let module T = Cfca_telemetry.Timeseries in
      let stat read () = read (Pipeline.stats pipeline) in
      let fp read () = read (Fib_snapshot.stats snapshot) in
      let count_real () =
        let tr = system.c_tree () in
        Bintrie.fold_nodes
          (fun acc n ->
            match Bintrie.Node.kind tr n with
            | Bintrie.Real -> acc + 1
            | Bintrie.Fake -> acc)
          0 tr
      in
      let live () = Bintrie.live_slots (system.c_tree ()) in
      T.track_ratio ts "l1_hit_ratio"
        ~num:(stat (fun s -> s.Pipeline.packets - s.Pipeline.l1_misses))
        ~den:(stat (fun s -> s.Pipeline.packets));
      T.track_ratio ts "l2_hit_ratio"
        ~num:(stat (fun s -> s.Pipeline.packets - s.Pipeline.l2_misses))
        ~den:(stat (fun s -> s.Pipeline.packets));
      T.track ts "packets" (stat (fun s -> s.Pipeline.packets));
      T.track ts "l1_misses" (stat (fun s -> s.Pipeline.l1_misses));
      T.track ts "l2_misses" (stat (fun s -> s.Pipeline.l2_misses));
      T.track ts "l1_installs" (stat (fun s -> s.Pipeline.l1_installs));
      T.track ts "l1_evictions" (stat (fun s -> s.Pipeline.l1_evictions));
      T.track ts "l2_installs" (stat (fun s -> s.Pipeline.l2_installs));
      T.track ts "l2_evictions" (stat (fun s -> s.Pipeline.l2_evictions));
      T.track ts "bgp_l1" (stat (fun s -> s.Pipeline.bgp_l1));
      T.track ts "victims_lthd" (stat (fun s -> s.Pipeline.victims_lthd));
      T.track ts "victims_fallback"
        (stat (fun s -> s.Pipeline.victims_fallback));
      T.track ts "fib_ops" (fun () -> Cfca_telemetry.Metrics.value fib_ops);
      T.track ts "updates" (fun () -> !updates);
      T.track ts "updates_l1" (fun () -> !updates_l1);
      T.track ts "fastpath_hits" (fp (fun s -> s.Fib_snapshot.fast_hits));
      T.track ts "fastpath_fallbacks" (fp (fun s -> s.Fib_snapshot.fallbacks));
      T.track ts "fastpath_patches" (fp (fun s -> s.Fib_snapshot.patches));
      T.track ts "fastpath_full_rebuilds"
        (fp (fun s -> s.Fib_snapshot.full_rebuilds));
      T.track ts "watchdog_checks" (fun () -> Watchdog.checks wd);
      T.track ts "watchdog_recoveries" (fun () -> Watchdog.recoveries wd);
      T.track ~mode:`Level ts "tcam_occupancy" (fun () ->
          Tcam.size (Pipeline.l1_tcam pipeline));
      T.track ~mode:`Level ts "tcam_limit" (fun () ->
          Tcam.capacity (Pipeline.l1_tcam pipeline));
      T.track ~mode:`Level ts "l1_resident" (fun () ->
          Pipeline.l1_size pipeline);
      T.track ~mode:`Level ts "l2_resident" (fun () ->
          Pipeline.l2_size pipeline);
      T.track ~mode:`Level ts "lthd_l1_occupancy" (fun () ->
          fst (Pipeline.lthd_occupancy pipeline));
      T.track ~mode:`Level ts "lthd_l2_occupancy" (fun () ->
          snd (Pipeline.lthd_occupancy pipeline));
      T.track ~mode:`Level ts "fib_size" (fun () -> system.c_fib_size ());
      T.track ~mode:`Level ts "arena_live" live;
      T.track ~mode:`Level ts "arena_free" (fun () ->
          Bintrie.free_slots (system.c_tree ()));
      T.track ~mode:`Level ts "real_nodes" count_real;
      T.track_level_ratio ts "real_node_ratio" ~num:count_real ~den:live);
  let close_window () =
    let s = Pipeline.stats pipeline in
    let p = !prev in
    windows :=
      {
        w_packets = s.Pipeline.packets - p.Pipeline.packets;
        w_l1_misses = s.Pipeline.l1_misses - p.Pipeline.l1_misses;
        w_l2_misses = s.Pipeline.l2_misses - p.Pipeline.l2_misses;
        w_l1_installs = s.Pipeline.l1_installs - p.Pipeline.l1_installs;
        w_l1_evictions = s.Pipeline.l1_evictions - p.Pipeline.l1_evictions;
        w_l2_installs = s.Pipeline.l2_installs - p.Pipeline.l2_installs;
        w_l2_evictions = s.Pipeline.l2_evictions - p.Pipeline.l2_evictions;
        w_updates = !win_updates;
        w_updates_l1 = !win_updates_l1;
      }
      :: !windows;
    prev := s;
    win_updates := 0;
    win_updates_l1 := 0;
    in_window := 0
  in
  iter_events (fun ~time event ->
      tel_time := time;
      match event with
      | Trace.Mark label -> (
          (* phase boundary: no traffic, no routing change. Runs no
             telemetry tick and no watchdog observation so a marked
             stream yields byte-identical counters to an unmarked one. *)
          match on_mark with
          | None -> ()
          | Some f ->
              f label
                {
                  a_tree = system.c_tree;
                  a_pipeline = pipeline;
                  a_lookup = system.c_lookup;
                  a_fib_size = system.c_fib_size;
                })
      | (Trace.Packet _ | Trace.Update _) as event ->
      (match event with
      | Trace.Mark _ -> assert false
      | Trace.Packet dst -> (
          match Fib_snapshot.lookup snapshot (system.c_tree ()) dst with
          | node ->
              ignore (Pipeline.process pipeline (system.c_tree ()) node ~now:time);
              incr in_window;
              if !in_window >= window then close_window ()
          | exception Not_found ->
              (* total coverage is a system invariant *)
              assert false)
      | Trace.Update u ->
          (* write-ahead: the record is durable before any state —
             in-memory or tree — reflects the update *)
          (match journal with
          | Some store -> ignore (Cfca_durability.Store.append store u)
          | None -> ());
          (match u.Bgp_update.action with
          | Bgp_update.Announce nh ->
              Hashtbl.replace authoritative u.Bgp_update.prefix nh
          | Bgp_update.Withdraw ->
              Hashtbl.remove authoritative u.Bgp_update.prefix);
          let l1_before = (Pipeline.stats pipeline).Pipeline.bgp_l1 in
          let t0 = Unix.gettimeofday () in
          system.c_apply u;
          let dt = Unix.gettimeofday () -. t0 in
          update_seconds := !update_seconds +. dt;
          (match tel_instruments with
          | Some (_, _, update_ns) ->
              Cfca_telemetry.Metrics.observe update_ns
                (int_of_float (dt *. 1e9))
          | None -> ());
          let l1_delta =
            (Pipeline.stats pipeline).Pipeline.bgp_l1 - l1_before
          in
          incr updates;
          incr win_updates;
          if l1_delta > 0 then begin
            incr updates_l1;
            incr win_updates_l1
          end;
          if l1_delta > !burst then burst := l1_delta;
          match journal with
          | Some store when Cfca_durability.Store.checkpoint_due store ->
              Cfca_durability.Store.checkpoint store
                ~routes:(authoritative_routes ())
                ~summary:(journal_summary ());
              (match telemetry with
              | Some tel ->
                  Cfca_telemetry.Trace.emit tel.t_trace ~time:!tel_time
                    ~kind:"journal_checkpoint"
                    (string_of_int (Cfca_durability.Store.seq store))
              | None -> ())
          | _ -> ());
      (match telemetry with
      | Some tel -> Cfca_telemetry.Timeseries.tick tel.t_series
      | None -> ());
      observe ());
  if !in_window > 0 then close_window ();
  (* close a trailing partial sample window so final Level samples see
     the end-of-run state and Delta columns sum to the run totals *)
  (match telemetry with
  | Some tel -> Cfca_telemetry.Timeseries.flush tel.t_series
  | None -> ());
  {
    r_name = kind_name kind;
    r_config = cfg;
    r_windows = Array.of_list (List.rev !windows);
    r_totals = Pipeline.stats pipeline;
    r_rib_size = Rib.size rib;
    r_fib_initial = fib_initial;
    r_fib_final = system.c_fib_size ();
    r_updates = !updates;
    r_updates_l1 = !updates_l1;
    r_burst_l1 = !burst;
    r_update_seconds = !update_seconds;
    r_tcam = Tcam.stats (Pipeline.l1_tcam pipeline);
    r_lookup = system.c_lookup;
    r_recoveries = Watchdog.recoveries wd;
    r_memory_rebuilds = Watchdog.memory_rebuilds wd;
    r_journal_rebuilds = Watchdog.journal_rebuilds wd;
    r_watchdog_checks = Watchdog.checks wd;
    r_journal = Option.map Cfca_durability.Store.stats journal;
    r_ingest = [];
    r_fastpath = Fib_snapshot.stats snapshot;
    r_arena_live = Bintrie.live_slots (system.c_tree ());
    r_arena_free = Bintrie.free_slots (system.c_tree ());
  }

let run ?window ?seed ?watchdog ?telemetry ?journal kind cfg ~default_nh rib
    spec =
  run_events ?window ?seed ?watchdog ?telemetry ?journal kind cfg ~default_nh
    rib (fun f -> Trace.iter spec rib f)

let run_capture ?window ?seed ?watchdog ?telemetry ?journal ?policy kind cfg
    ~default_nh rib ~pcap ~updates =
  let fail e = Error (pcap ^ ": " ^ Errors.to_string e) in
  match Cfca_pcap.Pcap.count_file ?policy pcap with
  | Error e -> fail e
  | Ok (total, _) -> (
      let n_updates = Array.length updates in
      let gap = if n_updates = 0 then max_int else max 1 (total / (n_updates + 1)) in
      let ingest = ref [] in
      try
        let result =
          run_events ?window ?seed ?watchdog ?telemetry ?journal kind cfg
            ~default_nh rib (fun f ->
              let i = ref 0 in
              let next_update = ref 0 in
              let last_time = ref 0.0 in
              (match
                 Cfca_pcap.Pcap.fold_file ?policy pcap ~init:() ~f:(fun () p ->
                     last_time := p.Cfca_pcap.Pcap.ts;
                     if
                       !next_update < n_updates
                       && !i > 0
                       && !i mod gap = 0
                       && (!i / gap) - 1 = !next_update
                     then begin
                       f ~time:p.Cfca_pcap.Pcap.ts
                         (Trace.Update updates.(!next_update));
                       incr next_update
                     end;
                     f ~time:p.Cfca_pcap.Pcap.ts (Trace.Packet p.Cfca_pcap.Pcap.dst);
                     incr i)
               with
              | Ok ((), report) -> ingest := [ (pcap, report) ]
              | Error e -> raise (Errors.Fault e));
              while !next_update < n_updates do
                f ~time:!last_time (Trace.Update updates.(!next_update));
                incr next_update
              done)
        in
        Ok { result with r_ingest = !ingest }
      with Errors.Fault e -> fail e)

type aggr_result = {
  a_name : string;
  a_rib_size : int;
  a_fib_initial : int;
  a_fib_final : int;
  a_compression : float;
  a_updates : int;
  a_churn : int;
  a_burst : int;
  a_update_seconds : float;
  a_lookup : Ipv4.t -> Nexthop.t;
}

let run_aggr policy ~default_nh rib updates =
  let open Cfca_aggr in
  let churn = ref 0 in
  let t = Aggr.create ~policy ~default_nh () in
  Aggr.load t (Rib.to_seq rib);
  let fib_initial = Aggr.fib_size t in
  Aggr.set_sink t (fun _ _ -> incr churn);
  let burst = ref 0 in
  let seconds = ref 0.0 in
  Array.iter
    (fun u ->
      let before = !churn in
      let t0 = Unix.gettimeofday () in
      Aggr.apply t u;
      seconds := !seconds +. (Unix.gettimeofday () -. t0);
      let delta = !churn - before in
      if delta > !burst then burst := delta)
    updates;
  {
    a_name = Aggr.policy_name policy;
    a_rib_size = Rib.size rib;
    a_fib_initial = fib_initial;
    a_fib_final = Aggr.fib_size t;
    a_compression = float_of_int fib_initial /. float_of_int (Rib.size rib);
    a_updates = Array.length updates;
    a_churn = !churn;
    a_burst = !burst;
    a_update_seconds = !seconds;
    a_lookup = Aggr.lookup t;
  }

type timing = { t_name : string; t_checkpoints : (int * float) list }

let time_updates ?(checkpoints = 4) target ~default_nh rib updates =
  let name, apply =
    match target with
    | `Cached kind ->
        let system = make_cached kind ~sink:Fib_op.null_sink ~default_nh rib in
        (kind_name kind, system.c_apply)
    | `Aggr policy ->
        let t = Cfca_aggr.Aggr.create ~policy ~default_nh () in
        Cfca_aggr.Aggr.load t (Rib.to_seq rib);
        (Cfca_aggr.Aggr.policy_name policy, Cfca_aggr.Aggr.apply t)
  in
  let n = Array.length updates in
  let step = max 1 (n / max 1 checkpoints) in
  let marks = ref [] in
  let elapsed = ref 0.0 in
  Array.iteri
    (fun i u ->
      let t0 = Unix.gettimeofday () in
      apply u;
      elapsed := !elapsed +. (Unix.gettimeofday () -. t0);
      if (i + 1) mod step = 0 || i + 1 = n then
        marks := (i + 1, !elapsed) :: !marks)
    updates;
  (* keep only the distinct marks, ascending *)
  let marks =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) !marks
  in
  { t_name = name; t_checkpoints = marks }
