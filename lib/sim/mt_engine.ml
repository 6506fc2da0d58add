open Cfca_prefix
open Cfca_rib
open Cfca_mt

type mode = Warm | Cold

type config = {
  domains : int;
  lookups : int;
  batch : int;
  updates : int;
  publish_every : int;
  mode : mode;
  seed : int;
  sample_every : int;
  verify_publish : bool;
}

let default_config =
  {
    domains = 2;
    lookups = 200_000;
    batch = 256;
    updates = 200;
    publish_every = 8;
    mode = Warm;
    seed = 0x5EED;
    sample_every = 251;
    verify_publish = false;
  }

type domain_stats = {
  d_lookups : int;
  d_pins : int;
  d_hits : int;
  d_defaults : int;
  d_min_epoch : int;
  d_max_epoch : int;
}

type result = {
  mt_elapsed : float;
  mt_lookups : int;
  mt_rate : float;
  mt_domains : domain_stats array;
  mt_published : int;
  mt_freed : int;
  mt_retired_peak : int;
  mt_updates_applied : int;
  mt_audit_samples : int;
  mt_audit_divergences : int;
  mt_live_violations : int;
  mt_counters_exact : bool;
  mt_patched_publishes : int;
  mt_full_compiles : int;
  mt_coalesced_seen : int;
  mt_coalesced_emitted : int;
  mt_publish_checks : int;
  mt_publish_divergences : int;
}

(* The per-domain address streams are pregenerated by the writer so a
   domain's stream is a pure function of (seed, domain, mode) — reader
   loops stay allocation-free and the workload is identical however
   the scheduler interleaves the domains. *)
let make_stream cfg rib d =
  let st = Random.State.make [| cfg.seed; d; 0xADD2 |] in
  match cfg.mode with
  | Cold -> Array.init cfg.lookups (fun _ -> Ipv4.random st)
  | Warm ->
      let prefixes = Array.map fst (Rib.entries rib) in
      if Array.length prefixes = 0 then
        Array.init cfg.lookups (fun _ -> Ipv4.random st)
      else
        let zipf =
          Cfca_traffic.Zipf.create
            ~exponent:Experiments.standard_scale.Experiments.zipf_exponent
            ~n:(Array.length prefixes) ()
        in
        Array.init cfg.lookups (fun _ ->
            Prefix.random_member st
              prefixes.(Cfca_traffic.Zipf.draw zipf st))

let validate cfg =
  if cfg.domains < 1 then invalid_arg "Mt_engine.run: domains < 1";
  if cfg.lookups <= 0 then invalid_arg "Mt_engine.run: lookups <= 0";
  if cfg.batch <= 0 then invalid_arg "Mt_engine.run: batch <= 0";
  if cfg.updates < 0 then invalid_arg "Mt_engine.run: updates < 0";
  if cfg.publish_every < 1 then invalid_arg "Mt_engine.run: publish_every < 1";
  if cfg.sample_every < 0 then invalid_arg "Mt_engine.run: sample_every < 0"

let run ?telemetry ?(default_nh = Nexthop.of_int 33) cfg rib =
  validate cfg;
  (* control plane: the writer's mutable CFCA tree *)
  let rm = Cfca_core.Route_manager.create ~default_nh () in
  Cfca_core.Route_manager.load rm (Rib.to_seq rib);
  let tree () = Cfca_core.Route_manager.tree rm in
  (* churn stream, seeded like the update bench *)
  let updates =
    if cfg.updates = 0 then [||]
    else
      let spec = Cfca_traffic.Trace.make ~packets:0 ~updates:[||] () in
      let flow = Cfca_traffic.Trace.flow_gen spec rib in
      Cfca_traffic.Update_gen.generate
        {
          Cfca_traffic.Update_gen.default_params with
          count = cfg.updates;
          seed = cfg.seed + 1;
        }
        flow
  in
  (* initial generation + the per-epoch covers the audit replays *)
  let cover0 = Cfca_dataplane.Fib_snapshot.cover (tree ()) in
  let plane = Plane.create ~readers:cfg.domains ~default_nh cover0 in
  let covers = Hashtbl.create 64 in
  Hashtbl.replace covers 0 cover0;
  (* Delta accumulation for publish_delta: every Fib_op names the node
     whose forwarding mapping moved (the compiled payloads here are
     next-hops, so Update matters too, unlike the node-indexed
     snapshot); dedup into the changed-prefix set of the next publish.
     The sink arms only now — the initial load's ops are generation 0,
     already compiled. *)
  let changed_tbl = Hashtbl.create 64 in
  let changed = ref [] in
  Cfca_core.Route_manager.set_sink rm (fun tr op ->
      let n =
        match op with
        | Cfca_core.Fib_op.Install (n, _)
        | Cfca_core.Fib_op.Remove (n, _)
        | Cfca_core.Fib_op.Update (n, _, _) ->
            n
      in
      let p = Cfca_trie.Bintrie.Node.prefix tr n in
      if not (Hashtbl.mem changed_tbl p) then begin
        Hashtbl.add changed_tbl p ();
        changed := p :: !changed
      end);
  (* authoritative post-update LPM for the patch path: the unique
     IN_FIB node covering the address, as the cover would compile it *)
  let resolve addr =
    let tr = tree () in
    let node = Cfca_trie.Bintrie.lookup_in_fib tr addr in
    if Cfca_trie.Bintrie.is_nil node then Cfca_trie.Flat_lpm.miss
    else
      Cfca_trie.Flat_lpm.encode
        ~value:(Nexthop.to_int (Cfca_trie.Bintrie.Node.installed_nh tr node))
        ~length:(Cfca_trie.Bintrie.Node.depth tr node)
  in
  let co = Cfca_core.Coalesce.create ~expect:cfg.publish_every () in
  (* per-publish differential gate: the published (possibly patched)
     table vs a fresh compile of the same cover, probed at the boundary
     addresses of every changed prefix plus a fixed random sample *)
  let publish_checks = ref 0 in
  let publish_divergences = ref 0 in
  let probe_rng = Random.State.make [| cfg.seed; 0xD1FF |] in
  let verify_pub delta cover =
    let fresh = Cfca_trie.Flat_lpm.build cover in
    let g = Plane.current plane in
    let check addr =
      incr publish_checks;
      if
        Cfca_trie.Flat_lpm.lookup g.Plane.g_flat addr
        <> Cfca_trie.Flat_lpm.lookup fresh addr
      then incr publish_divergences
    in
    List.iter
      (fun p ->
        let lo = Ipv4.to_int (Prefix.network p) in
        let hi = lo + (1 lsl (32 - Prefix.length p)) - 1 in
        check (Ipv4.of_int lo);
        check (Ipv4.of_int hi);
        if lo > 0 then check (Ipv4.of_int (lo - 1));
        if hi < 0xFFFFFFFF then check (Ipv4.of_int (hi + 1)))
      delta;
    for _ = 1 to 64 do
      check (Ipv4.random probe_rng)
    done
  in
  let streams = Array.init cfg.domains (make_stream cfg rib) in
  (* audit sample buffers, one triple of arrays per domain *)
  let sample_cap =
    if cfg.sample_every = 0 then 0 else (cfg.lookups / cfg.sample_every) + 1
  in
  let s_epoch = Array.init cfg.domains (fun _ -> Array.make (max 1 sample_cap) 0) in
  let s_addr =
    Array.init cfg.domains (fun d -> Array.make (max 1 sample_cap) streams.(d).(0))
  in
  let s_answer =
    Array.init cfg.domains (fun _ -> Array.make (max 1 sample_cap) 0)
  in
  let finished = Atomic.make 0 in
  let live_violations = Atomic.make 0 in
  let body d () =
    let r = Plane.Reader.make plane d in
    let addrs = streams.(d) in
    let se = s_epoch.(d) and sa = s_addr.(d) and sv = s_answer.(d) in
    let pins = ref 0 in
    let min_ep = ref max_int and max_ep = ref (-1) in
    let samples = ref 0 in
    let i = ref 0 in
    while !i < cfg.lookups do
      let g = Plane.Reader.pin r in
      incr pins;
      if not (Atomic.get g.Plane.g_live) then Atomic.incr live_violations;
      if g.Plane.g_epoch < !min_ep then min_ep := g.Plane.g_epoch;
      if g.Plane.g_epoch > !max_ep then max_ep := g.Plane.g_epoch;
      let stop = min cfg.lookups (!i + cfg.batch) in
      while !i < stop do
        let a = Array.unsafe_get addrs !i in
        let nh = Plane.Reader.lookup r g a in
        if cfg.sample_every > 0 && !i mod cfg.sample_every = 0 then begin
          se.(!samples) <- g.Plane.g_epoch;
          sa.(!samples) <- a;
          sv.(!samples) <- nh;
          incr samples
        end;
        incr i
      done
    done;
    Plane.Reader.unpin r;
    Atomic.incr finished;
    (!pins, !min_ep, !max_ep, !samples)
  in
  let t0 = Unix.gettimeofday () in
  let doms = Array.init cfg.domains (fun d -> Domain.spawn (body d)) in
  (* writer: churn, republish, collect after grace *)
  let applied = ref 0 in
  let retired_peak = ref 0 in
  let n_updates = Array.length updates in
  let note_retired () =
    let r = Plane.retired plane in
    if r > !retired_peak then retired_peak := r
  in
  (* Drive the whole churn budget even if the readers drain their
     lookup budget first (on a single core the readers can finish
     before the writer is ever scheduled): every configured update
     must be applied and every generation must still be retired and
     reclaimed through the same grace-period path. *)
  while !applied < n_updates || Atomic.get finished < cfg.domains do
    if !applied < n_updates then begin
      let burst = min cfg.publish_every (n_updates - !applied) in
      for k = !applied to !applied + burst - 1 do
        Cfca_core.Coalesce.add co updates.(k)
      done;
      List.iter
        (fun u -> Cfca_core.Route_manager.apply rm u)
        (Cfca_core.Coalesce.flush co);
      applied := !applied + burst;
      let cover = Cfca_dataplane.Fib_snapshot.cover (tree ()) in
      let delta = !changed in
      changed := [];
      Hashtbl.reset changed_tbl;
      let e = Plane.publish_delta plane ~changed:delta ~resolve cover in
      Hashtbl.replace covers e cover;
      if cfg.verify_publish then verify_pub delta cover;
      note_retired ();
      ignore (Plane.collect plane);
      match telemetry with
      | Some m -> Plane.sync_telemetry plane m
      | None -> ()
    end
    else begin
      note_retired ();
      ignore (Plane.collect plane);
      Domain.cpu_relax ()
    end
  done;
  let locals = Array.map Domain.join doms in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* all readers idle: everything retired is now past grace *)
  note_retired ();
  ignore (Plane.collect plane);
  (match telemetry with
  | Some m -> Plane.sync_telemetry plane m
  | None -> ());
  (* -- audit: every sampled answer must match an oracle built from the
        cover published at the sampled epoch -- *)
  let oracles = Hashtbl.create 16 in
  let divergences = ref 0 in
  let audit_samples = ref 0 in
  Array.iteri
    (fun d (_, _, _, samples) ->
      let se = s_epoch.(d) and sa = s_addr.(d) and sv = s_answer.(d) in
      for k = 0 to samples - 1 do
        incr audit_samples;
        match Hashtbl.find_opt covers se.(k) with
        | None ->
            (* answered from a generation that was never published *)
            incr divergences
        | Some routes ->
            let oracle =
              match Hashtbl.find_opt oracles se.(k) with
              | Some o -> o
              | None ->
                  let o = Cfca_check.Oracle.create ~default_nh in
                  Cfca_check.Oracle.load o routes;
                  Hashtbl.replace oracles se.(k) o;
                  o
            in
            if
              Nexthop.to_int (Cfca_check.Oracle.lookup oracle sa.(k)) <> sv.(k)
            then incr divergences
      done)
    locals;
  (* -- exactness: shard rows vs local counts (and telemetry totals) -- *)
  let shard = Plane.stats plane in
  let exact = ref true in
  let check b = if not b then exact := false in
  Array.iteri
    (fun d (pins, _, _, _) ->
      check (Shard.get shard ~domain:d ~counter:Plane.c_lookups = cfg.lookups);
      check (Shard.get shard ~domain:d ~counter:Plane.c_pins = pins);
      check
        (Shard.get shard ~domain:d ~counter:Plane.c_hits
         + Shard.get shard ~domain:d ~counter:Plane.c_defaults
        = cfg.lookups))
    locals;
  (match telemetry with
  | None -> ()
  | Some m ->
      Array.iteri
        (fun c total ->
          check
            (Cfca_telemetry.Metrics.value
               (Cfca_telemetry.Metrics.counter m (Plane.counter_name c))
            = total))
        (Shard.totals shard));
  let domain_stats =
    Array.mapi
      (fun d (pins, min_ep, max_ep, _) ->
        {
          d_lookups = cfg.lookups;
          d_pins = pins;
          d_hits = Shard.get shard ~domain:d ~counter:Plane.c_hits;
          d_defaults = Shard.get shard ~domain:d ~counter:Plane.c_defaults;
          d_min_epoch = min_ep;
          d_max_epoch = max_ep;
        })
      locals
  in
  let total = cfg.domains * cfg.lookups in
  {
    mt_elapsed = elapsed;
    mt_lookups = total;
    mt_rate = (if elapsed > 0.0 then float_of_int total /. elapsed else 0.0);
    mt_domains = domain_stats;
    mt_published = Plane.epoch plane + 1;
    mt_freed = Plane.freed plane;
    mt_retired_peak = !retired_peak;
    mt_updates_applied = !applied;
    mt_audit_samples = !audit_samples;
    mt_audit_divergences = !divergences;
    mt_live_violations = Atomic.get live_violations;
    mt_counters_exact = !exact;
    mt_patched_publishes = Plane.patched_publishes plane;
    mt_full_compiles = Plane.full_compiles plane;
    mt_coalesced_seen = Cfca_core.Coalesce.seen co;
    mt_coalesced_emitted = Cfca_core.Coalesce.emitted co;
    mt_publish_checks = !publish_checks;
    mt_publish_divergences = !publish_divergences;
  }
