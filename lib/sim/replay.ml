(* Full-scale replay: churn bursts and Zipf packet batches interleaved
   through coalescer -> Route Manager -> patched Fib_snapshot -> mt
   plane, with an independent shadow-LPM audit and Gc heap sampling.

   The driver is single-domain on purpose: every count it reports must
   be deterministic for a fixed seed so the perf gate can pin them
   exactly; the concurrency protocol itself is exercised (and audited)
   by Mt_engine. The plane still runs its real reader protocol — one
   pin per packet batch, grace-period collection per burst — just from
   the one domain. *)

open Cfca_prefix
open Cfca_rib

type config = {
  routes : int;
  peers : int;
  packets : int;
  updates : int;
  burst : int;
  seed : int;
  l1_pct : float;
  l2_pct : float;
  root_bits : int;
  patch_budget : int;
  audit_every : int;
  budget_words_per_route : float;
  mrt : string option;
}

let full_config =
  {
    routes = 700_000;
    peers = 32;
    packets = 3_000_000;
    updates = 16_000;
    burst = 32;
    seed = 42;
    l1_pct = 2.5;
    l2_pct = 5.0;
    root_bits = 24;
    (* a burst of 32 coalesced updates can touch CFCA aggregates as
       short as /13 (2^11 root cells each at stride 24); 32K cells is
       ~0.2% of the 2^24 root, still far cheaper than a recompile *)
    patch_budget = 32_768;
    audit_every = 50;
    budget_words_per_route = 45.0;
    mrt = None;
  }

let config_of_scale mult =
  if mult >= 1.0 then full_config
  else
    let scale base floor =
      max floor (int_of_float (mult *. float_of_int base))
    in
    let routes = scale full_config.routes 3_000 in
    {
      full_config with
      routes;
      packets = scale full_config.packets 100_000;
      updates = scale full_config.updates 512;
      audit_every = (if routes <= 50_000 then 4 else full_config.audit_every);
    }

type result = {
  r_routes : int;
  r_fib_entries : int;
  r_load_seconds : float;
  r_packets : int;
  r_lookups_per_sec : float;
  r_l1_hit_ratio : float;
  r_l2_hit_ratio : float;
  r_fastpath_hit_ratio : float;
  r_plane_lookups : int;
  r_plane_per_sec : float;
  r_plane_hit_ratio : float;
  r_updates : int;
  r_updates_per_sec : float;
  r_bursts : int;
  r_coalesced_seen : int;
  r_coalesced_emitted : int;
  r_patches : int;
  r_full_rebuilds : int;
  r_patched_cells : int;
  r_published : int;
  r_patched_publishes : int;
  r_full_compiles : int;
  r_freed : int;
  r_audit_probes : int;
  r_audit_divergences : int;
  r_verify_ok : bool;
  r_words_per_route : float;
  r_heap_mb_peak : float;
  r_budget_words : float;
  r_budget_ok : bool;
}

(* Independent forwarding model: one hash table per prefix length,
   longest-match by probing /32 down to /0. Shares no code with the
   tries or the compiled tables; O(1) per update, O(33) per probe, so
   it stays viable at 900K routes where the assoc-list oracle's
   linear-scan maintenance would dominate the run. *)
module Shadow = struct
  type t = {
    tbl : (Prefix.t, Nexthop.t) Hashtbl.t;
    default_nh : Nexthop.t;
    mutable live_lens : int;  (* bitmask of lengths present *)
  }

  let create ~default_nh =
    { tbl = Hashtbl.create 1024; default_nh; live_lens = 0 }

  let announce t p nh =
    Hashtbl.replace t.tbl p nh;
    t.live_lens <- t.live_lens lor (1 lsl Prefix.length p)

  let withdraw t p = Hashtbl.remove t.tbl p

  let apply t (u : Cfca_bgp.Bgp_update.t) =
    match u.Cfca_bgp.Bgp_update.action with
    | Cfca_bgp.Bgp_update.Announce nh ->
        announce t u.Cfca_bgp.Bgp_update.prefix nh
    | Cfca_bgp.Bgp_update.Withdraw -> withdraw t u.Cfca_bgp.Bgp_update.prefix

  let lookup t addr =
    let rec go len =
      if len < 0 then t.default_nh
      else if t.live_lens land (1 lsl len) = 0 then go (len - 1)
      else
        match Hashtbl.find_opt t.tbl (Prefix.make addr len) with
        | Some nh -> nh
        | None -> go (len - 1)
    in
    go 32
end

let now () = Unix.gettimeofday ()

let run ?(progress = fun _ -> ()) cfg =
  if cfg.burst <= 0 then invalid_arg "Replay.run: burst must be positive";
  if cfg.updates <= 0 || cfg.packets <= 0 then
    invalid_arg "Replay.run: packets and updates must be positive";
  let default_nh = Nexthop.of_int (min 62 (cfg.peers + 1)) in
  (* -- table ---------------------------------------------------------- *)
  let rib =
    match cfg.mrt with
    | Some path -> (
        match
          Cfca_bgp.Mrt.read_rib_file ~policy:Cfca_resilience.Errors.Lenient
            path
        with
        | Ok (rib, _report) -> rib
        | Error e ->
            invalid_arg
              (Format.asprintf "Replay.run: %s: %a" path
                 Cfca_resilience.Errors.pp e))
    | None ->
        Rib_gen.generate
          {
            Rib_gen.size = cfg.routes;
            peers = cfg.peers;
            locality = 0.90;
            seed = cfg.seed;
          }
  in
  progress (Printf.sprintf "table: %d routes" (Rib.size rib));
  let t_load0 = now () in
  let rm = Cfca_core.Route_manager.create ~default_nh () in
  (* Presize the arena: prefix extension lands at ~2.6-2.7 nodes per
     route on RouteViews-shaped tables, and doubling growth would
     otherwise leave up to 2x slack against the words/route budget. *)
  Cfca_trie.Bintrie.reserve
    (Cfca_core.Route_manager.tree rm)
    (29 * Rib.size rib / 10);
  Cfca_core.Route_manager.load rm (Rib.to_seq rib);
  let load_seconds = now () -. t_load0 in
  let tree = Cfca_core.Route_manager.tree rm in
  (* -- snapshot + changed-prefix tracking ----------------------------- *)
  let snap =
    Cfca_dataplane.Fib_snapshot.create ~patch_budget:cfg.patch_budget
      ~root_bits:cfg.root_bits ()
  in
  (* -- caching pipeline ----------------------------------------------- *)
  let of_pct pct =
    max 64 (int_of_float (pct /. 100.0 *. float_of_int (Rib.size rib)))
  in
  let pipeline =
    Cfca_dataplane.Pipeline.create ~seed:cfg.seed
      (Cfca_dataplane.Config.make ~l1_capacity:(of_pct cfg.l1_pct)
         ~l2_capacity:(of_pct cfg.l2_pct) ())
  in
  (* each table's sink picks the ops that move it; the changed-prefix
     sink feeds the plane, and the pipeline's keeps the L1/L2 caches
     coherent (a removed entry must leave the tables before its node
     index can be re-installed) *)
  let record_change, take_changed = Cfca_core.Fib_op.changes_sink () in
  Cfca_core.Route_manager.set_sink rm (fun tr op ->
      Cfca_dataplane.Fib_snapshot.sink snap tr op;
      record_change tr op;
      Cfca_dataplane.Pipeline.sink pipeline tr op);
  Cfca_dataplane.Fib_snapshot.refresh snap tree;
  let cover = Cfca_dataplane.Fib_snapshot.cover tree in
  let fib_entries = List.length cover in
  (* -- plane ---------------------------------------------------------- *)
  let plane =
    Cfca_mt.Plane.create ~patch_budget:cfg.patch_budget
      ~root_bits:cfg.root_bits ~readers:1 ~default_nh cover
  in
  let reader = Cfca_mt.Plane.Reader.make plane 0 in
  (* -- workload -------------------------------------------------------- *)
  let spec = Cfca_traffic.Trace.make ~packets:0 ~updates:[||] () in
  let flow = Cfca_traffic.Trace.flow_gen spec rib in
  let churn =
    Cfca_traffic.Update_gen.generate
      {
        Cfca_traffic.Update_gen.default_params with
        count = cfg.updates;
        seed = cfg.seed + 1;
      }
      flow
  in
  let n_updates = Array.length churn in
  let bursts = (n_updates + cfg.burst - 1) / cfg.burst in
  (* -- audit shadow ---------------------------------------------------- *)
  let shadow = Shadow.create ~default_nh in
  Seq.iter (fun (p, nh) -> Shadow.announce shadow p nh) (Rib.to_seq rib);
  let audit_rng = Random.State.make [| cfg.seed; 0x5EED |] in
  let audit_probes = ref 0 in
  let audit_divergences = ref 0 in
  let flag fmt =
    Printf.ksprintf
      (fun s ->
        incr audit_divergences;
        if !audit_divergences <= 5 then progress ("DIVERGENCE " ^ s))
      fmt
  in
  let audit_burst touched =
    let addrs =
      List.concat_map
        (fun p -> Cfca_check.Oracle.addresses_of p audit_rng)
        touched
      @ List.init 32 (fun _ -> Ipv4.random audit_rng)
    in
    let gen = Cfca_mt.Plane.Reader.pin reader in
    List.iter
      (fun a ->
        incr audit_probes;
        let expect = Shadow.lookup shadow a in
        let via_snap =
          Cfca_trie.Bintrie.Node.installed_nh tree
            (Cfca_dataplane.Fib_snapshot.lookup snap tree a)
        in
        if not (Nexthop.equal expect via_snap) then
          flag "snapshot %s: shadow %d, snapshot %d" (Ipv4.to_string a)
            (Nexthop.to_int expect) (Nexthop.to_int via_snap);
        let via_plane =
          Nexthop.of_int (Cfca_mt.Plane.Reader.lookup reader gen a)
        in
        if not (Nexthop.equal expect via_plane) then
          flag "plane %s: shadow %d, plane %d" (Ipv4.to_string a)
            (Nexthop.to_int expect) (Nexthop.to_int via_plane))
      addrs;
    Cfca_mt.Plane.Reader.unpin reader
  in
  (* -- the interleaved replay ------------------------------------------ *)
  let co = Cfca_core.Coalesce.create ~expect:cfg.burst () in
  let packets_per_burst = max 1 (cfg.packets / bursts) in
  let sim_time = ref 0.0 in
  let lookup_seconds = ref 0.0 in
  let plane_seconds = ref 0.0 in
  let update_seconds = ref 0.0 in
  let pipeline_packets = ref 0 in
  let plane_lookups = ref 0 in
  let heap_words_peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let sample_heap () =
    let words = (Gc.quick_stat ()).Gc.heap_words in
    if words > !heap_words_peak then heap_words_peak := words
  in
  let next_update = ref 0 in
  for b = 0 to bursts - 1 do
    (* churn burst: coalesce -> apply -> patch snapshot -> publish *)
    let t0 = now () in
    let stop = min n_updates (!next_update + cfg.burst) in
    while !next_update < stop do
      Cfca_core.Coalesce.add co churn.(!next_update);
      incr next_update
    done;
    let net = Cfca_core.Coalesce.flush co in
    List.iter (Cfca_core.Route_manager.apply rm) net;
    Cfca_dataplane.Fib_snapshot.refresh snap tree;
    let changed = take_changed () in
    if changed <> [] then begin
      ignore
        (Cfca_mt.Plane.publish_delta plane ~changed
           ~resolve:(Cfca_dataplane.Fib_snapshot.resolve tree)
           (Cfca_dataplane.Fib_snapshot.cover tree));
      ignore (Cfca_mt.Plane.collect plane)
    end;
    update_seconds := !update_seconds +. (now () -. t0);
    List.iter (Shadow.apply shadow) net;
    (* packet batch through snapshot + caching pipeline *)
    let t1 = now () in
    for _ = 1 to packets_per_burst do
      let dst = Cfca_traffic.Flow_gen.next flow in
      let node = Cfca_dataplane.Fib_snapshot.lookup snap tree dst in
      ignore (Cfca_dataplane.Pipeline.process pipeline tree node ~now:!sim_time);
      sim_time := !sim_time +. 1e-6;
      incr pipeline_packets
    done;
    lookup_seconds := !lookup_seconds +. (now () -. t1);
    (* packet batch through a pinned plane generation *)
    let t2 = now () in
    let gen = Cfca_mt.Plane.Reader.pin reader in
    for _ = 1 to packets_per_burst do
      ignore
        (Cfca_mt.Plane.Reader.lookup reader gen
           (Cfca_traffic.Flow_gen.next flow));
      incr plane_lookups
    done;
    Cfca_mt.Plane.Reader.unpin reader;
    plane_seconds := !plane_seconds +. (now () -. t2);
    if cfg.audit_every > 0 && (b + 1) mod cfg.audit_every = 0 then
      audit_burst changed;
    sample_heap ();
    if (b + 1) mod 100 = 0 then
      progress (Printf.sprintf "burst %d/%d" (b + 1) bursts)
  done;
  ignore (Cfca_mt.Plane.collect plane);
  (* -- accounting ------------------------------------------------------ *)
  let snap_stats = Cfca_dataplane.Fib_snapshot.stats snap in
  let pipe_stats = Cfca_dataplane.Pipeline.stats pipeline in
  let shard = Cfca_mt.Plane.stats plane in
  let plane_total = Cfca_mt.Shard.total shard Cfca_mt.Plane.c_lookups in
  let plane_hits = Cfca_mt.Shard.total shard Cfca_mt.Plane.c_hits in
  let ratio num den =
    if den <= 0 then 1.0 else 1.0 -. (float_of_int num /. float_of_int den)
  in
  let rate count seconds =
    if seconds <= 0.0 then 0.0 else float_of_int count /. seconds
  in
  let words =
    float_of_int (Cfca_trie.Bintrie.approx_heap_words tree)
    /. float_of_int (max 1 (Rib.size rib))
  in
  let fast_hits = snap_stats.Cfca_dataplane.Fib_snapshot.fast_hits in
  let fallbacks = snap_stats.Cfca_dataplane.Fib_snapshot.fallbacks in
  {
    r_routes = Rib.size rib;
    r_fib_entries = fib_entries;
    r_load_seconds = load_seconds;
    r_packets = !pipeline_packets;
    r_lookups_per_sec = rate !pipeline_packets !lookup_seconds;
    r_l1_hit_ratio = ratio pipe_stats.Cfca_dataplane.Pipeline.l1_misses
        pipe_stats.Cfca_dataplane.Pipeline.packets;
    r_l2_hit_ratio = ratio pipe_stats.Cfca_dataplane.Pipeline.l2_misses
        pipe_stats.Cfca_dataplane.Pipeline.packets;
    r_fastpath_hit_ratio =
      (if fast_hits + fallbacks = 0 then 1.0
       else float_of_int fast_hits /. float_of_int (fast_hits + fallbacks));
    r_plane_lookups = !plane_lookups;
    r_plane_per_sec = rate !plane_lookups !plane_seconds;
    r_plane_hit_ratio =
      (if plane_total = 0 then 1.0
       else float_of_int plane_hits /. float_of_int plane_total);
    r_updates = n_updates;
    r_updates_per_sec = rate n_updates !update_seconds;
    r_bursts = bursts;
    r_coalesced_seen = Cfca_core.Coalesce.seen co;
    r_coalesced_emitted = Cfca_core.Coalesce.emitted co;
    r_patches = snap_stats.Cfca_dataplane.Fib_snapshot.patches;
    r_full_rebuilds =
      (* the eager initial compile precedes the first burst *)
      snap_stats.Cfca_dataplane.Fib_snapshot.full_rebuilds - 1;
    r_patched_cells = snap_stats.Cfca_dataplane.Fib_snapshot.patched_cells;
    r_published = Cfca_mt.Plane.epoch plane;
    r_patched_publishes = Cfca_mt.Plane.patched_publishes plane;
    r_full_compiles = Cfca_mt.Plane.full_compiles plane;
    r_freed = Cfca_mt.Plane.freed plane;
    r_audit_probes = !audit_probes;
    r_audit_divergences = !audit_divergences;
    r_verify_ok =
      (match Cfca_core.Route_manager.verify rm with
      | Ok () -> true
      | Error msg ->
          progress ("INVARIANT " ^ msg);
          false);
    r_words_per_route = words;
    r_heap_mb_peak =
      float_of_int !heap_words_peak *. float_of_int (Sys.word_size / 8)
      /. 1e6;
    r_budget_words = cfg.budget_words_per_route;
    r_budget_ok =
      cfg.budget_words_per_route <= 0.0
      || words <= cfg.budget_words_per_route;
  }
