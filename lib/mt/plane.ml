open Cfca_prefix

type gen = {
  g_epoch : int;
  g_flat : Cfca_trie.Flat_lpm.t;
  g_routes : int;
  g_default : int;
  g_live : bool Atomic.t;
}

let c_pins = 0

let c_lookups = 1

let c_hits = 2

let c_defaults = 3

let counter_count = 4

let counter_names = [| "mt_pins"; "mt_lookups"; "mt_fast_hits"; "mt_default_hits" |]

let counter_name c =
  if c < 0 || c >= counter_count then
    invalid_arg "Plane.counter_name: counter out of range";
  counter_names.(c)

type t = {
  hub : gen Epoch.t;
  shard : Shard.t;
  default_nh : int;
  patch_budget : int;
  root_bits : int;
  (* writer-side publication accounting *)
  mutable patched_publishes : int;
  mutable full_compiles : int;
  (* telemetry merge state: cumulative totals already folded into the
     registry, per counter (writer-only) *)
  mutable synced : int array;
  mutable synced_patched : int;
  mutable synced_full : int;
}

let compile ~epoch ~default_nh ~root_bits routes =
  {
    g_epoch = epoch;
    g_flat =
      Cfca_trie.Flat_lpm.build ~root_bits
        (List.map (fun (p, nh) -> (p, Nexthop.to_int nh)) routes);
    g_routes = List.length routes;
    g_default = default_nh;
    g_live = Atomic.make true;
  }

let create ?(patch_budget = 4096) ?(root_bits = 16) ~readers ~default_nh
    routes =
  if Nexthop.is_none default_nh then
    invalid_arg "Plane.create: default next-hop must be real";
  if patch_budget < 0 then invalid_arg "Plane.create: patch_budget";
  if root_bits < 8 || root_bits > 24 then
    invalid_arg "Plane.create: root_bits";
  let default_nh = Nexthop.to_int default_nh in
  {
    hub = Epoch.create ~readers (compile ~epoch:0 ~default_nh ~root_bits routes);
    shard = Shard.create ~domains:readers ~counters:counter_count;
    default_nh;
    patch_budget;
    root_bits;
    patched_publishes = 0;
    full_compiles = 0;
    synced = Array.make counter_count 0;
    synced_patched = 0;
    synced_full = 0;
  }

let publish t routes =
  let epoch = Epoch.epoch t.hub + 1 in
  let e =
    Epoch.publish t.hub
      (compile ~epoch ~default_nh:t.default_nh ~root_bits:t.root_bits routes)
  in
  assert (e = epoch);
  t.full_compiles <- t.full_compiles + 1;
  e

let publish_delta t ~changed ~resolve routes =
  let epoch = Epoch.epoch t.hub + 1 in
  let module F = Cfca_trie.Flat_lpm in
  let next =
    match changed with
    | [] ->
        (* nothing moved: republish the same compiled table under a new
           generation record. The g_live flag must be fresh — the
           retiring generation's flag is cleared when the hub frees it,
           and this one outlives it. *)
        let cur = Epoch.current t.hub in
        Some { cur with g_epoch = epoch; g_live = Atomic.make true }
    | _ -> (
        let cur = Epoch.current t.hub in
        let flat = F.copy cur.g_flat in
        match F.patch flat ~budget:t.patch_budget ~resolve changed with
        | Ok _ ->
            Some
              {
                g_epoch = epoch;
                g_flat = flat;
                g_routes = List.length routes;
                g_default = t.default_nh;
                g_live = Atomic.make true;
              }
        | Error _ -> None)
  in
  match next with
  | Some g ->
      let e = Epoch.publish t.hub g in
      assert (e = epoch);
      t.patched_publishes <- t.patched_publishes + 1;
      e
  | None -> publish t routes

let patched_publishes t = t.patched_publishes

let full_compiles t = t.full_compiles

let collect t =
  let dropped = Epoch.collect t.hub in
  List.iter (fun g -> Atomic.set g.g_live false) dropped;
  List.length dropped

let epoch t = Epoch.epoch t.hub

let current t = Epoch.current t.hub

let retired t = Epoch.retired t.hub

let freed t = Epoch.freed t.hub

let readers t = Epoch.readers t.hub

let stats t = t.shard

let sync_telemetry t metrics =
  let totals = Shard.totals t.shard in
  Array.iteri
    (fun c total ->
      (* clamp: a mid-run read of another domain's row may lag a value
         this writer already folded in; counters must never regress *)
      let delta = total - t.synced.(c) in
      if delta > 0 then begin
        Cfca_telemetry.Metrics.add
          (Cfca_telemetry.Metrics.counter metrics counter_names.(c))
          delta;
        t.synced.(c) <- total
      end)
    totals;
  (* writer-side publication counters: exact, no clamping needed *)
  let fold_writer name total synced set =
    let delta = total - synced in
    if delta > 0 then begin
      Cfca_telemetry.Metrics.add
        (Cfca_telemetry.Metrics.counter metrics name)
        delta;
      set total
    end
  in
  fold_writer "mt_patched_publishes" t.patched_publishes t.synced_patched
    (fun v -> t.synced_patched <- v);
  fold_writer "mt_full_compiles" t.full_compiles t.synced_full (fun v ->
      t.synced_full <- v)

module Reader = struct
  type plane = t

  type t = { er : gen Epoch.reader; row : Shard.row }

  let make (plane : plane) i =
    { er = Epoch.reader plane.hub i; row = Shard.row plane.shard i }

  let pin r =
    let _, g = Epoch.pin r.er in
    Shard.bump r.row c_pins;
    g

  let unpin r = Epoch.unpin r.er

  let lookup r g addr =
    Shard.bump r.row c_lookups;
    let v = Cfca_trie.Flat_lpm.find_value g.g_flat addr in
    if v >= 0 then begin
      Shard.bump r.row c_hits;
      v
    end
    else begin
      Shard.bump r.row c_defaults;
      g.g_default
    end
end
