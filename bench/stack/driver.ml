(* The stack benchmark driver: one workload, one domain, a closed loop
   of churn bursts and packet batches through the whole CFCA stack,
   timed from outside with the same wiring as [Cfca_sim.Replay]. *)

open Cfca_prefix
module Bt = Cfca_trie.Bintrie
module Rm = Cfca_core.Route_manager
module Co = Cfca_core.Coalesce
module Fs = Cfca_dataplane.Fib_snapshot
module Pl = Cfca_dataplane.Pipeline
module Plane = Cfca_mt.Plane
module Fg = Cfca_traffic.Flow_gen
module Ug = Cfca_traffic.Update_gen
module Replay = Cfca_sim.Replay

type purpose = Forwarding | Patched_publication | Delta_overflow

type workload = {
  name : string;
  stack : Replay.config;
  flow : Fg.params;
  churn : Ug.params;
  burst : int;
  bursts : int;
  packets : int;
  purpose : purpose;
}

let steady =
  {
    name = "steady";
    stack = Replay.full_config;
    flow = Fg.default_params;
    churn = Ug.default_params;
    burst = 8;
    bursts = 60;
    packets = 100_000;
    purpose = Forwarding;
  }

let spread =
  {
    steady with
    name = "spread";
    flow =
      {
        Fg.default_params with
        zipf_exponent = 0.6;
        mean_train = 400.0;
        flow_slots = 16384;
      };
  }

let churn =
  {
    steady with
    name = "churn";
    burst = 64;
    packets = 10_000;
    purpose = Patched_publication;
  }

let storm =
  {
    steady with
    name = "storm";
    stack = { Replay.full_config with routes = 200_000 };
    churn =
      {
        Ug.default_params with
        nh_change_frac = 0.2;
        new_announce_frac = 0.4;
        popular_frac = 0.5;
      };
    burst = 1024;
    bursts = 50;
    packets = 10_000;
    purpose = Delta_overflow;
  }

let workloads = [ steady; spread; churn; storm ]

(* Set-ups timed per run, about 2M routes loaded in all (the median is
   reported); the most packets per path sent before measuring; the
   audit stride. *)
let setups routes = max 3 (min 10 (2_000_000 / routes))
let max_warmup = 20_000_000
let audit_every = 10

(* span kinds, indices into [span_names] *)
let k_burst = 0
let k_flush = 1
let k_apply = 2
let k_sink = 3
let k_invalidate = 4
let k_pipeline_apply = 5
let k_refresh = 6
let k_cover = 7
let k_publish = 8
let k_collect = 9
let k_gen = 10
let k_lookup = 11
let k_process = 12
let k_plane_lookup = 13

let span_names =
  [|
    "burst";
    "core.coalesce.flush";
    "core.route_manager.apply";
    "sink";
    "sink.invalidate";
    "sink.pipeline_apply";
    "dataplane.fib_snapshot.refresh";
    "dataplane.fib_snapshot.cover";
    "mt.plane.publish_delta";
    "mt.plane.collect";
    "traffic.gen";
    "dataplane.fib_snapshot.lookup";
    "dataplane.pipeline.process";
    "mt.plane.lookup";
  |]

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

type stack = {
  rm : Rm.t;
  tree : Bt.t;
  snap : Fs.t;
  pipeline : Pl.t;
  plane : Plane.t;
}

let default_nh (cfg : Replay.config) = Nexthop.of_int (min 62 (cfg.peers + 1))

(* Everything [setup_s] times: the control plane loaded, the caches,
   the first compiled snapshot and generation 0 of the plane. *)
let build (cfg : Replay.config) rib ~seed =
  let routes = Cfca_rib.Rib.size rib in
  let rm = Rm.create ~default_nh:(default_nh cfg) () in
  Bt.reserve (Rm.tree rm) (29 * routes / 10);
  Rm.load rm (Cfca_rib.Rib.to_seq rib);
  let tree = Rm.tree rm in
  let of_pct pct = max 64 (int_of_float (pct /. 100.0 *. float_of_int routes)) in
  let pipeline =
    Pl.create ~seed
      (Cfca_dataplane.Config.make ~l1_capacity:(of_pct cfg.l1_pct)
         ~l2_capacity:(of_pct cfg.l2_pct) ())
  in
  let snap =
    Fs.create ~patch_budget:cfg.patch_budget ~root_bits:cfg.root_bits ()
  in
  Fs.refresh snap tree;
  let plane =
    Plane.create ~patch_budget:cfg.patch_budget ~root_bits:cfg.root_bits
      ~readers:1 ~default_nh:(default_nh cfg) (Fs.cover tree)
  in
  { rm; tree; snap; pipeline; plane }

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Audit probes for one prefix: its first and last address and the
   addresses just outside them. *)
let boundaries acc p =
  let lo = Ipv4.to_int (Prefix.network p)
  and hi = Ipv4.to_int (Prefix.last_address p) in
  let acc = Ipv4.of_int lo :: Ipv4.of_int hi :: acc in
  let acc = if lo > 0 then Ipv4.of_int (lo - 1) :: acc else acc in
  if hi < 0xFFFF_FFFF then Ipv4.of_int (hi + 1) :: acc else acc

(* Nanoseconds per [enter]/[leave] pair and per [alloc_words] call, so
   the traced run can state what its own instrumentation cost. *)
let calibrate () =
  let reps = 100_000 in
  let recorder = Span.create ~names:[| "calibration" |] in
  let t0 = Span.now () in
  for _ = 1 to reps do
    Span.leave recorder (Span.enter recorder 0)
  done;
  let t1 = Span.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (alloc_words ()))
  done;
  let t2 = Span.now () in
  ( float_of_int (t1 - t0) /. float_of_int reps,
    float_of_int (t2 - t1) /. float_of_int reps )

let run ?trace w ~seed ~seconds =
  let cfg = w.stack in
  let tracing = Option.is_some trace in
  let tr = if tracing then Span.create ~names:span_names else Span.disabled in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* -- inputs, generated from the seed before any clock starts ------- *)
  let rib =
    Cfca_rib.Rib_gen.generate
      {
        Cfca_rib.Rib_gen.size = cfg.routes;
        peers = cfg.peers;
        locality = 0.90;
        seed;
      }
  in
  let flow = Fg.create { w.flow with Fg.seed = seed + 1 } rib in
  let churn =
    Ug.generate { w.churn with Ug.count = w.burst * w.bursts; seed = seed + 2 } flow
  in
  let shadow = Shadow.create ~default_nh:(default_nh cfg) in
  Seq.iter
    (fun (p, nh) -> Shadow.announce shadow p nh)
    (Cfca_rib.Rib.to_seq rib);
  let audit_rng = Random.State.make [| seed; 0x5EED |] in
  (* -- set-up, timed [setups] times; the last one is kept ------------ *)
  let setup_s = Array.make (setups cfg.routes) 0.0 in
  let kept = ref None in
  for i = 0 to Array.length setup_s - 1 do
    kept := None;
    Gc.full_major ();
    let t0 = Span.now () in
    let s = build cfg rib ~seed in
    setup_s.(i) <- float_of_int (Span.now () - t0) /. 1e9;
    kept := Some s
  done;
  let { rm; tree; snap; pipeline; plane } = Option.get !kept in
  kept := None;
  let reader = Plane.Reader.make plane 0 in
  (* -- the FIB-op fan-out, wired as Replay wires it ------------------ *)
  let changed_tbl = Hashtbl.create 4096 in
  let changed = ref [] in
  let dirtied = ref false in
  let fib_ops = ref 0 in
  let invalidations = ref 0 in
  Rm.set_sink rm (fun t op ->
      let s = Span.enter tr k_sink in
      incr fib_ops;
      let nd, structural =
        match op with
        | Cfca_core.Fib_op.Install (nd, _) | Cfca_core.Fib_op.Remove (nd, _) ->
            (nd, true)
        | Cfca_core.Fib_op.Update (nd, _, _) -> (nd, false)
      in
      let p = Bt.Node.prefix t nd in
      (* the snapshot's payloads are node indices, so only IN_FIB
         membership flips dirty it; the plane's are next-hops, so
         [changed] records rewrites too *)
      if structural then begin
        incr invalidations;
        let si = Span.enter tr k_invalidate in
        Fs.invalidate_prefix snap p;
        Span.leave tr si;
        dirtied := true
      end;
      if not (Hashtbl.mem changed_tbl p) then begin
        Hashtbl.add changed_tbl p ();
        changed := p :: !changed
      end;
      let sp = Span.enter tr k_pipeline_apply in
      Pl.sink pipeline t op;
      Span.leave tr sp;
      Span.leave tr s);
  let resolve addr =
    let nd = Bt.lookup_in_fib tree addr in
    if Bt.is_nil nd then Cfca_trie.Flat_lpm.miss
    else
      Cfca_trie.Flat_lpm.encode
        ~value:(Nexthop.to_int (Bt.Node.installed_nh tree nd))
        ~length:(Bt.Node.depth tree nd)
  in
  (* -- packet batches ------------------------------------------------- *)
  let n = w.packets in
  let addrs = Array.make n Ipv4.zero in
  let nodes = Array.make n Bt.nil in
  let sent = ref 0 in
  let fill tr =
    let s = Span.enter tr k_gen in
    for i = 0 to n - 1 do
      addrs.(i) <- Fg.next flow
    done;
    Span.leave tr s
  in
  (* Pushes the forwarding rate (Mpkt/s) of one batch onto [rates]. A
     traced batch runs snapshot lookup and pipeline as two timed loops
     over a node array; this is equivalent because [Pipeline.process]
     never changes what the snapshot answers. *)
  let mpps ns = float_of_int n *. 1e3 /. float_of_int ns in
  let forward tr rates =
    fill tr;
    let base = !sent in
    sent := base + n;
    if Span.enabled tr then begin
      let sl = Span.enter tr k_lookup in
      for i = 0 to n - 1 do
        nodes.(i) <- Fs.lookup snap tree addrs.(i)
      done;
      Span.leave tr sl;
      let sp = Span.enter tr k_process in
      for i = 0 to n - 1 do
        ignore
          (Pl.process pipeline tree nodes.(i)
             ~now:(float_of_int (base + i) *. 1e-6))
      done;
      Span.leave tr sp;
      rates := mpps (Span.duration tr sl + Span.duration tr sp) :: !rates
    end
    else begin
      let t0 = Span.now () in
      for i = 0 to n - 1 do
        let nd = Fs.lookup snap tree addrs.(i) in
        ignore (Pl.process pipeline tree nd ~now:(float_of_int (base + i) *. 1e-6))
      done;
      rates := mpps (Span.now () - t0) :: !rates
    end
  in
  (* the same through a pinned plane generation *)
  let plane_batch tr rates =
    fill tr;
    let t0 = Span.now () in
    let s = Span.enter tr k_plane_lookup in
    let g = Plane.Reader.pin reader in
    for i = 0 to n - 1 do
      ignore (Plane.Reader.lookup reader g addrs.(i))
    done;
    Plane.Reader.unpin reader;
    Span.leave tr s;
    rates := mpps (Span.now () - t0) :: !rates
  in
  let discard = ref [] in
  (* warm up until both caches are full, so the measured loop runs
     under the steady-state promotion thresholds *)
  let warm = ref 0 in
  while !warm < max_warmup && not (Pl.caches_full pipeline) do
    forward Span.disabled discard;
    plane_batch Span.disabled discard;
    discard := [];
    warm := !warm + n
  done;
  Pl.reset_stats pipeline;
  let span_cost, alloc_cost = if tracing then calibrate () else (0.0, 0.0) in
  (* -- output audit (never inside a timed region) -------------------- *)
  let probes = ref 0 in
  let divergences = ref 0 in
  (* counter movements caused by audit probes, subtracted later so the
     per-layer ratios describe packet traffic only *)
  let audit_snap = ref 0 and audit_plane = ref 0 and audit_plane_hits = ref 0 in
  let audit touched =
    let fast0 = (Fs.stats snap).Fs.fast_hits in
    let sh = Plane.stats plane in
    let look0 = Cfca_mt.Shard.total sh Plane.c_lookups
    and hits0 = Cfca_mt.Shard.total sh Plane.c_hits in
    let g = Plane.Reader.pin reader in
    let check a =
      incr probes;
      let want = Shadow.lookup shadow a in
      let via_snap = Bt.Node.installed_nh tree (Fs.lookup snap tree a) in
      let via_plane = Nexthop.of_int (Plane.Reader.lookup reader g a) in
      if not (Nexthop.equal want via_snap && Nexthop.equal want via_plane)
      then begin
        incr divergences;
        if !divergences <= 5 then
          Printf.eprintf "divergence at %s: shadow %s, snapshot %s, plane %s\n%!"
            (Ipv4.to_string a) (Nexthop.to_string want)
            (Nexthop.to_string via_snap) (Nexthop.to_string via_plane)
      end
    in
    List.iter check (List.fold_left boundaries [] touched);
    for _ = 1 to 64 do
      check (Ipv4.random audit_rng)
    done;
    Plane.Reader.unpin reader;
    audit_snap := !audit_snap + (Fs.stats snap).Fs.fast_hits - fast0;
    audit_plane := !audit_plane + Cfca_mt.Shard.total sh Plane.c_lookups - look0;
    audit_plane_hits :=
      !audit_plane_hits + Cfca_mt.Shard.total sh Plane.c_hits - hits0
  in
  (* -- the measured closed loop -------------------------------------- *)
  let fs0 = Fs.stats snap in
  let plane_lookups0, plane_hits0 =
    let sh = Plane.stats plane in
    (Cfca_mt.Shard.total sh Plane.c_lookups, Cfca_mt.Shard.total sh Plane.c_hits)
  in
  let patched0 = Plane.patched_publishes plane
  and compiles0 = Plane.full_compiles plane
  and freed0 = Plane.freed plane in
  let co = Co.create ~expect:w.burst () in
  let raw_updates = ref 0 in
  let burst_ns = ref [] and fwd_rates = ref [] and plane_rates = ref [] in
  let apply_alloc = ref 0.0
  and refresh_alloc = ref 0.0
  and cover_alloc = ref 0.0
  and publish_alloc = ref 0.0 in
  let alloc_calls = ref 0 in
  let cover_entries = ref 0 in
  let majors = ref 0 in
  let retired_peak = ref 0 in
  (* one layer call as a span; a traced run also adds the words it
     allocated to [alloc] *)
  let timed ?alloc k f =
    let count = tracing && Option.is_some alloc in
    let a0 = if count then alloc_words () else 0.0 in
    let s = Span.enter tr k in
    let r = f () in
    Span.leave tr s;
    if count then begin
      Option.iter (fun a -> a := !a +. (alloc_words () -. a0)) alloc;
      alloc_calls := !alloc_calls + 2
    end;
    r
  in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let b = ref 0 in
  while !b < w.bursts && Span.now () < deadline do
    for i = !b * w.burst to ((!b + 1) * w.burst) - 1 do
      Co.add co churn.(i)
    done;
    raw_updates := !raw_updates + w.burst;
    changed := [];
    Hashtbl.reset changed_tbl;
    Span.set_request tr !b;
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    (* one burst: from flush to the return of collect *)
    let t0 = Span.now () in
    let sb = Span.enter tr k_burst in
    let net = timed k_flush (fun () -> Co.flush co) in
    timed k_apply ~alloc:apply_alloc (fun () -> List.iter (Rm.apply rm) net);
    if !dirtied then begin
      timed k_refresh ~alloc:refresh_alloc (fun () -> Fs.refresh snap tree);
      dirtied := false
    end;
    let cover =
      if !changed = [] then []
      else begin
        let cover = timed k_cover ~alloc:cover_alloc (fun () -> Fs.cover tree) in
        ignore
          (timed k_publish ~alloc:publish_alloc (fun () ->
               Plane.publish_delta plane ~changed:!changed ~resolve cover));
        retired_peak := max !retired_peak (Plane.retired plane);
        ignore (timed k_collect (fun () -> Plane.collect plane));
        cover
      end
    in
    Span.leave tr sb;
    burst_ns := float_of_int (Span.now () - t0) :: !burst_ns;
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - majors0;
    if tracing then cover_entries := !cover_entries + List.length cover;
    List.iter (Shadow.apply shadow) net;
    forward tr fwd_rates;
    plane_batch tr plane_rates;
    if (!b + 1) mod audit_every = 0 then
      audit (List.rev_append (List.map Cfca_bgp.Bgp_update.prefix net) !changed);
    incr b
  done;
  ignore (Plane.collect plane);
  let invariant_failures =
    match Rm.verify rm with
    | Ok () -> 0
    | Error msg ->
        Printf.eprintf "route-manager invariant violated: %s\n%!" msg;
        1
  in
  Option.iter (Span.write tr) trace;
  (* -- metrics --------------------------------------------------------- *)
  let bursts = !b in
  let fb = float_of_int bursts in
  let packets = float_of_int (bursts * n) in
  let burst_ms = Array.of_list (List.rev_map (fun ns -> ns /. 1e6) !burst_ns) in
  let fwd = Array.of_list !fwd_rates and plane_rate = Array.of_list !plane_rates in
  let pct name xs p =
    match Stats.percentile xs p with
    | Some v -> v
    | None ->
        problem "%s: %d samples cannot support a p%d" name (Array.length xs) p;
        Float.nan
  in
  let update_rate =
    float_of_int !raw_updates /. (Array.fold_left ( +. ) 0.0 burst_ms /. 1e3)
  in
  let ps = Pl.stats pipeline in
  let share num den = float_of_int num /. float_of_int (max 1 den) in
  let fs1 = Fs.stats snap in
  let m name unit_ value = { name; value; unit_ } in
  let metrics =
    if not tracing then
      [
        m "setup_s" "s" (Stats.median setup_s);
        m "fwd_mpps" "Mpkt/s" (Stats.median fwd);
        m "plane_mpps" "Mpkt/s" (Stats.median plane_rate);
        m "l1_miss_pct" "%" (100.0 *. share ps.Pl.l1_misses ps.Pl.packets);
        m "l2_miss_pct" "%" (100.0 *. share ps.Pl.l2_misses ps.Pl.packets);
        m "update_rate" "upd/s" update_rate;
        m "burst_ms_p50" "ms" (Stats.median burst_ms);
        m "burst_ms_p80" "ms" (pct "burst_ms" burst_ms 80);
        m "heap_peak_mb" "MB"
          (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
          /. 1e6);
        m "fib_ratio" "%" (100.0 *. share (Rm.fib_size rm) (Rm.route_count rm));
      ]
    else begin
      let ms ?self k = Span.total ?self tr k /. fb /. 1e6 in
      let p80_ms name k =
        pct name (Array.map (fun ns -> ns /. 1e6) (Span.by_request tr k ~requests:bursts)) 80
      in
      let per_burst x = float_of_int x /. fb in
      let per_kpkt x = 1000.0 *. float_of_int x /. packets in
      let burst_total = Span.total tr k_burst in
      let coverage = 100.0 *. (burst_total -. Span.total ~self:true tr k_burst) /. burst_total in
      if coverage < 95.0 then
        problem "trace: child spans cover %.1f%% of burst time, below 95%%" coverage;
      let timed_ns =
        List.fold_left
          (fun acc k -> acc +. Span.total tr k)
          burst_total
          [ k_gen; k_lookup; k_process; k_plane_lookup ]
      in
      let overhead =
        (float_of_int (Span.length tr) *. span_cost
        +. float_of_int !alloc_calls *. alloc_cost)
        /. timed_ns
      in
      let sh = Plane.stats plane in
      let plane_lookups =
        Cfca_mt.Shard.total sh Plane.c_lookups - plane_lookups0 - !audit_plane
      and plane_hits =
        Cfca_mt.Shard.total sh Plane.c_hits - plane_hits0 - !audit_plane_hits
      in
      let fast = fs1.Fs.fast_hits - fs0.Fs.fast_hits - !audit_snap
      and slow = fs1.Fs.fallbacks - fs0.Fs.fallbacks in
      [
        m "core.coalesce.flush_ms" "ms" (ms k_flush);
        m "core.coalesce.net_ratio" "ratio" (share (Co.emitted co) (Co.seen co));
        m "core.route_manager.apply_ms" "ms" (ms ~self:true k_apply);
        m "core.route_manager.apply_alloc_mw" "Mw" (!apply_alloc /. fb /. 1e6);
        m "core.route_manager.fib_ops" "1/burst" (per_burst !fib_ops);
        m "sink.invalidate_ms" "ms" (ms k_invalidate);
        m "sink.pipeline_apply_ms" "ms" (ms k_pipeline_apply);
        m "sink.invalidations" "1/burst" (per_burst !invalidations);
        m "dataplane.fib_snapshot.refresh_ms" "ms" (ms k_refresh);
        m "dataplane.fib_snapshot.refresh_ms_p80" "ms" (p80_ms "refresh_ms" k_refresh);
        m "dataplane.fib_snapshot.refresh_alloc_mw" "Mw" (!refresh_alloc /. fb /. 1e6);
        m "dataplane.fib_snapshot.patches" "1/burst"
          (per_burst (fs1.Fs.patches - fs0.Fs.patches));
        m "dataplane.fib_snapshot.full_rebuilds" "1/burst"
          (per_burst (fs1.Fs.full_rebuilds - fs0.Fs.full_rebuilds));
        m "dataplane.fib_snapshot.patched_cells" "1/burst"
          (per_burst (fs1.Fs.patched_cells - fs0.Fs.patched_cells));
        m "dataplane.fib_snapshot.cover_ms" "ms" (ms k_cover);
        m "dataplane.fib_snapshot.cover_alloc_mw" "Mw" (!cover_alloc /. fb /. 1e6);
        m "dataplane.fib_snapshot.cover_entries" "1/burst" (per_burst !cover_entries);
        m "mt.plane.publish_delta_ms" "ms" (ms k_publish);
        m "mt.plane.publish_delta_ms_p80" "ms" (p80_ms "publish_delta_ms" k_publish);
        m "mt.plane.publish_delta_alloc_mw" "Mw" (!publish_alloc /. fb /. 1e6);
        m "mt.plane.patched_publishes" "1/burst"
          (per_burst (Plane.patched_publishes plane - patched0));
        m "mt.plane.full_compiles" "1/burst"
          (per_burst (Plane.full_compiles plane - compiles0));
        m "mt.plane.collect_ms" "ms" (ms k_collect);
        m "mt.plane.freed" "1/burst" (per_burst (Plane.freed plane - freed0));
        m "mt.plane.retired_peak" "count" (float_of_int !retired_peak);
        m "dataplane.fib_snapshot.lookup_ns" "ns" (Span.total tr k_lookup /. packets);
        m "dataplane.fib_snapshot.fastpath_ratio" "ratio" (share fast (fast + slow));
        m "dataplane.pipeline.process_ns" "ns" (Span.total tr k_process /. packets);
        m "dataplane.pipeline.l1_installs" "1/kpkt" (per_kpkt ps.Pl.l1_installs);
        m "dataplane.pipeline.l1_evictions" "1/kpkt" (per_kpkt ps.Pl.l1_evictions);
        m "dataplane.pipeline.l2_evictions" "1/kpkt" (per_kpkt ps.Pl.l2_evictions);
        m "dataplane.pipeline.tcam_writes_per_kupd" "count"
          (1000.0 *. share ps.Pl.bgp_l1 !raw_updates);
        m "dataplane.pipeline.lthd_victim_ratio" "ratio"
          (share ps.Pl.victims_lthd (ps.Pl.victims_lthd + ps.Pl.victims_fallback));
        m "mt.plane.lookup_ns" "ns" (Span.total tr k_plane_lookup /. packets);
        m "mt.plane.hit_ratio" "ratio" (share plane_hits plane_lookups);
        m "mem.trie_words_per_route" "words"
          (float_of_int (Bt.approx_heap_words tree) /. float_of_int (Rm.route_count rm));
        m "mem.plane_gen_mwords" "Mw"
          (float_of_int
             (Cfca_trie.Flat_lpm.memory_words (Plane.current plane).Plane.g_flat)
          /. 1e6);
        m "gc.major_collections" "1/burst" (per_burst !majors);
        m "traffic.gen_ns" "ns" (Span.total tr k_gen /. (2.0 *. packets));
        m "trace.burst_ms" "ms" (ms k_burst);
        m "trace.burst_coverage_pct" "%" coverage;
        m "trace.overhead_pct" "%" (100.0 *. overhead);
        m "trace.update_rate" "upd/s" update_rate;
        m "trace.fwd_mpps" "Mpkt/s" (Stats.median fwd);
      ]
    end
  in
  (* -- is this run the workload it claims to be? --------------------- *)
  (match w.purpose with
  | Forwarding -> ()
  | Patched_publication ->
      if Plane.patched_publishes plane = patched0 then
        problem "%s: no burst took the patched publication path" w.name
  | Delta_overflow ->
      let full = fs1.Fs.full_rebuilds - fs0.Fs.full_rebuilds in
      if 2 * full < bursts then
        problem "%s: only %d of %d bursts overflowed into a full rebuild" w.name
          full bursts);
  if bursts < w.bursts then
    Printf.eprintf "%s: stopped at the time cap after %d of %d bursts\n%!" w.name
      bursts w.bursts;
  Printf.eprintf "%s: %d bursts, %d raw updates, %.0f packets per path%s\n%!"
    w.name bursts !raw_updates packets
    (match Stats.tail burst_ms with
    | Some (p, v) -> Printf.sprintf ", burst p%d %.3f ms" p v
    | None -> "");
  {
    metrics;
    attempted = !probes + 1;
    failed = !divergences + invariant_failures;
    problems = List.rev !problems;
  }
