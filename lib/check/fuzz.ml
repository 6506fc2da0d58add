open Cfca_prefix
open Cfca_trie
open Cfca_core
open Cfca_dataplane
open Cfca_veritable

type event =
  | Announce of Prefix.t * Nexthop.t
  | Withdraw of Prefix.t
  | Packet of Ipv4.t

type scenario = {
  seed : int;
  routes : (Prefix.t * Nexthop.t) list;
  events : event list;
}

type system = {
  sys_name : string;
  sys_default_nh : Nexthop.t;
  sys_load : (Prefix.t * Nexthop.t) list -> unit;
  sys_announce : Prefix.t -> Nexthop.t -> unit;
  sys_withdraw : Prefix.t -> unit;
  sys_packet : Ipv4.t -> unit;
  sys_lookup : Ipv4.t -> Nexthop.t;
  sys_entries : unit -> (Prefix.t * Nexthop.t) list;
  sys_check : unit -> (unit, string) result;
}

(* Tiny caches and near-immediate promotion thresholds: a few dozen
   packets are enough to fill both caches and start the LTHD-driven
   eviction churn the invariants must survive. *)
let fuzz_config ~l1 ~l2 =
  {
    Config.default with
    Config.l1_capacity = l1;
    l2_capacity = l2;
    lthd_stages = 2;
    lthd_width = 4;
    threshold_window = 0.005;
    dram_threshold_initial = 1;
    l2_threshold_initial = 2;
    dram_threshold = 2;
    l2_threshold = 3;
  }

(* The data plane both systems feed: the cache pipeline and a compiled
   snapshot, each through its own sink. A packet refreshes the
   snapshot first (a no-op while clean), so the compiled table answers
   every packet, and it must answer with the node the walk finds. *)
let data_plane ~l1 ~l2 ~seed =
  let pl = Pipeline.create ~seed (fuzz_config ~l1 ~l2) in
  let snap = Fib_snapshot.create () in
  let sink tr op =
    Fib_snapshot.sink snap tr op;
    Pipeline.sink pl tr op
  in
  let clock = ref 0 in
  let packet tr a =
    let n = Bintrie.lookup_in_fib tr a in
    if Bintrie.is_nil n then
      failwith
        (Printf.sprintf "packet %s: no IN_FIB entry covers it"
           (Ipv4.to_string a));
    Fib_snapshot.refresh snap tr;
    let fast = (Fib_snapshot.stats snap).Fib_snapshot.fast_hits in
    let compiled = Fib_snapshot.lookup snap tr a in
    if
      (Fib_snapshot.stats snap).Fib_snapshot.fast_hits = fast
      || not (Bintrie.Node.equal compiled n)
    then
      failwith
        (Printf.sprintf "packet %s: the compiled snapshot diverges from %s"
           (Ipv4.to_string a)
           (Prefix.to_string (Bintrie.Node.prefix tr n)));
    incr clock;
    ignore (Pipeline.process pl tr n ~now:(float_of_int !clock *. 1e-4))
  in
  (pl, sink, packet)

let cfca ?(l1 = 8) ?(l2 = 16) ~default_nh ~seed () =
  let rm = Route_manager.create ~default_nh () in
  let pl, sink, packet = data_plane ~l1 ~l2 ~seed in
  Route_manager.set_sink rm sink;
  {
    sys_name = "cfca";
    sys_default_nh = default_nh;
    sys_load = (fun routes -> Route_manager.load rm (List.to_seq routes));
    sys_announce = Route_manager.announce rm;
    sys_withdraw = Route_manager.withdraw rm;
    sys_packet = (fun a -> packet (Route_manager.tree rm) a);
    sys_lookup = Route_manager.lookup rm;
    sys_entries = (fun () -> Route_manager.entries rm);
    sys_check =
      (fun () ->
        Invariants.check ~mode:Invariants.Cfca_mode ~pipeline:pl
          (Route_manager.tree rm));
  }

let pfca ?(l1 = 8) ?(l2 = 16) ~default_nh ~seed () =
  let open Cfca_pfca in
  let sys = Pfca.create ~default_nh () in
  let pl, sink, packet = data_plane ~l1 ~l2 ~seed in
  Pfca.set_sink sys sink;
  {
    sys_name = "pfca";
    sys_default_nh = default_nh;
    sys_load = (fun routes -> Pfca.load sys (List.to_seq routes));
    sys_announce = Pfca.announce sys;
    sys_withdraw = Pfca.withdraw sys;
    sys_packet = (fun a -> packet (Pfca.tree sys) a);
    sys_lookup = Pfca.lookup sys;
    sys_entries = (fun () -> Pfca.entries sys);
    sys_check =
      (fun () ->
        Invariants.check ~mode:Invariants.Pfca_mode ~pipeline:pl
          (Pfca.tree sys));
  }

(* -- scenario generation -------------------------------------------- *)

type config = { max_routes : int; events : int; default_nh : Nexthop.t }

let default_config =
  { max_routes = 40; events = 150; default_nh = Nexthop.of_int 9 }

(* Confined to 10.0.0.0/8 so prefixes nest and collide constantly. *)
let gen_prefix st =
  let a = Random.State.int st 0x1000000 in
  let base =
    Ipv4.of_octets 10 ((a lsr 16) land 0xFF) ((a lsr 8) land 0xFF) (a land 0xFF)
  in
  Prefix.make base (9 + Random.State.int st 24)

let gen_nh st = Nexthop.of_int (1 + Random.State.int st 8)

let generate ?(cfg = default_config) seed =
  let st = Random.State.make [| seed; 0xF552 |] in
  let nroutes = Random.State.int st (cfg.max_routes + 1) in
  let rec build n mk acc = if n = 0 then List.rev acc else build (n - 1) mk (mk () :: acc) in
  let routes = build nroutes (fun () -> (gen_prefix st, gen_nh st)) [] in
  let pool = ref (List.map fst routes) in
  let pool_len = ref (List.length !pool) in
  let pick_pool () = List.nth !pool (Random.State.int st !pool_len) in
  let add_pool p =
    pool := p :: !pool;
    incr pool_len
  in
  let event () =
    match Random.State.int st 10 with
    | 0 | 1 | 2 ->
        let p =
          if !pool_len > 0 && Random.State.bool st then pick_pool ()
          else gen_prefix st
        in
        add_pool p;
        Announce (p, gen_nh st)
    | 3 | 4 ->
        (* mostly known prefixes so withdrawals really delete routes,
           sometimes unknown ones to exercise the no-op path *)
        let p =
          if !pool_len > 0 && Random.State.int st 10 < 7 then pick_pool ()
          else gen_prefix st
        in
        Withdraw p
    | _ ->
        let a =
          if !pool_len > 0 && Random.State.int st 10 < 7 then
            Prefix.random_member st (pick_pool ())
          else Ipv4.random st
        in
        Packet a
  in
  { seed; routes; events = build cfg.events event [] }

(* -- replay with per-event checking --------------------------------- *)

exception Stop of int * string

let cross_check oracle sys =
  match Veritable.compare_tables [ Oracle.table oracle; sys.sys_entries () ] with
  | Veritable.Equivalent -> ()
  | Veritable.Diverges d ->
      raise
        (Stop (0, Format.asprintf "installed FIB %a" Veritable.pp_divergence d))

let run_scenario ~make (sc : scenario) =
  let sys = make () in
  let oracle = Oracle.create ~default_nh:sys.sys_default_nh in
  let st = Random.State.make [| sc.seed; 0x5A3 |] in
  let check ~touched =
    (match sys.sys_check () with Ok () -> () | Error e -> raise (Stop (0, e)));
    match
      Oracle.equiv oracle ~lookup:sys.sys_lookup
        (Oracle.probes oracle ~touched st)
    with
    | Ok () -> ()
    | Error e -> raise (Stop (0, e))
  in
  let at step f = try f () with
    | Stop (_, e) -> raise (Stop (step, e))
    | Failure e -> raise (Stop (step, e))
    | Invalid_argument e -> raise (Stop (step, "Invalid_argument: " ^ e))
    | Assert_failure (f, l, c) ->
        raise (Stop (step, Printf.sprintf "assert failure at %s:%d:%d" f l c))
  in
  try
    at (-1) (fun () ->
        sys.sys_load sc.routes;
        Oracle.load oracle sc.routes;
        check ~touched:(List.map fst sc.routes);
        cross_check oracle sys);
    List.iteri
      (fun step ev ->
        at step (fun () ->
            match ev with
            | Announce (p, nh) ->
                sys.sys_announce p nh;
                Oracle.announce oracle p nh;
                check ~touched:[ p ];
                cross_check oracle sys
            | Withdraw p ->
                sys.sys_withdraw p;
                Oracle.withdraw oracle p;
                check ~touched:[ p ];
                cross_check oracle sys
            | Packet a ->
                sys.sys_packet a;
                (* a packet must not change forwarding, only residency *)
                (match sys.sys_check () with
                | Ok () -> ()
                | Error e -> raise (Stop (0, e)));
                let want = Oracle.lookup oracle a and got = sys.sys_lookup a in
                if not (Nexthop.equal want got) then
                  raise
                    (Stop
                       ( 0,
                         Printf.sprintf
                           "forwarding divergence at %s: oracle %s, system %s"
                           (Ipv4.to_string a) (Nexthop.to_string want)
                           (Nexthop.to_string got) ))))
      sc.events;
    None
  with Stop (step, e) -> Some (step, e)

(* -- shrinking ------------------------------------------------------ *)

let shrink ?(budget = 2000) ~make (sc : scenario) =
  let budget = ref budget in
  let still_fails cand =
    !budget > 0
    &&
    (decr budget;
     run_scenario ~make cand <> None)
  in
  (* greedy delta debugging over one list: drop chunks of halving size,
     keeping any candidate that still fails *)
  let shrink_list lst rebuild =
    let kept = ref lst in
    let chunk = ref (max 1 (List.length lst / 2)) in
    while !chunk >= 1 do
      let i = ref 0 in
      while !i < List.length !kept do
        let cand =
          List.filteri (fun j _ -> j < !i || j >= !i + !chunk) !kept
        in
        if List.length cand < List.length !kept && still_fails (rebuild cand)
        then kept := cand (* retry the same window *)
        else i := !i + !chunk
      done;
      chunk := if !chunk = 1 then 0 else !chunk / 2
    done;
    !kept
  in
  let sc = { sc with events = shrink_list sc.events (fun e -> { sc with events = e }) } in
  let sc = { sc with routes = shrink_list sc.routes (fun r -> { sc with routes = r }) } in
  (* route removal can make more events redundant *)
  { sc with events = shrink_list sc.events (fun e -> { sc with events = e }) }

(* -- the driver ----------------------------------------------------- *)

type failure = {
  f_seed : int;
  f_step : int;
  f_error : string;
  f_original_events : int;
  f_scenario : scenario;
}

let run ?(cfg = default_config) ?(first_seed = 1) ~make ~seeds () =
  let failures = ref [] in
  for seed = first_seed to first_seed + seeds - 1 do
    let sc = generate ~cfg seed in
    let mk () = make seed in
    match run_scenario ~make:mk sc with
    | None -> ()
    | Some _ ->
        let shrunk = shrink ~make:mk sc in
        let step, err =
          match run_scenario ~make:mk shrunk with
          | Some (step, e) -> (step, e)
          | None -> (-1, "failure vanished after shrinking (flaky check)")
        in
        failures :=
          {
            f_seed = seed;
            f_step = step;
            f_error = err;
            f_original_events = List.length sc.events;
            f_scenario = shrunk;
          }
          :: !failures
  done;
  List.rev !failures

(* -- replayable scripts --------------------------------------------- *)

let pp_event ppf = function
  | Announce (p, nh) ->
      Format.fprintf ppf "A %s %s" (Prefix.to_string p) (Nexthop.to_string nh)
  | Withdraw p -> Format.fprintf ppf "W %s" (Prefix.to_string p)
  | Packet a -> Format.fprintf ppf "P %s" (Ipv4.to_string a)

let script_of_scenario sc =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# fuzz reproducer seed=%d\n" sc.seed);
  List.iter
    (fun (p, nh) ->
      Buffer.add_string buf
        (Printf.sprintf "R %s %s\n" (Prefix.to_string p) (Nexthop.to_string nh)))
    sc.routes;
  List.iter
    (fun ev -> Buffer.add_string buf (Format.asprintf "%a\n" pp_event ev))
    sc.events;
  Buffer.contents buf

let scenario_of_script s =
  let exception Bad of string in
  let parse_prefix w =
    match Prefix.of_string w with
    | Some p -> p
    | None -> raise (Bad ("bad prefix " ^ w))
  in
  let parse_addr w =
    match Ipv4.of_string w with
    | Some a -> a
    | None -> raise (Bad ("bad address " ^ w))
  in
  let parse_nh w =
    match int_of_string_opt w with
    | Some n when n >= 1 -> Nexthop.of_int n
    | _ -> raise (Bad ("bad next-hop " ^ w))
  in
  let seed = ref (-1) in
  let routes = ref [] and events = ref [] in
  try
    String.split_on_char '\n' s
    |> List.iter (fun line ->
           let line = String.trim line in
           if line = "" then ()
           else if line.[0] = '#' then
             (* pick up "seed=N" anywhere in the comment *)
             String.split_on_char ' ' line
             |> List.iter (fun w ->
                    match String.index_opt w '=' with
                    | Some i when String.sub w 0 i = "seed" -> (
                        match
                          int_of_string_opt
                            (String.sub w (i + 1) (String.length w - i - 1))
                        with
                        | Some n -> seed := n
                        | None -> ())
                    | _ -> ())
           else
             match
               String.split_on_char ' ' line
               |> List.filter (fun w -> w <> "")
             with
             | [ "R"; p; nh ] -> routes := (parse_prefix p, parse_nh nh) :: !routes
             | [ "A"; p; nh ] ->
                 events := Announce (parse_prefix p, parse_nh nh) :: !events
             | [ "W"; p ] -> events := Withdraw (parse_prefix p) :: !events
             | [ "P"; a ] -> events := Packet (parse_addr a) :: !events
             | _ -> raise (Bad ("unparseable line: " ^ line)));
    Ok { seed = !seed; routes = List.rev !routes; events = List.rev !events }
  with Bad msg -> Error msg

let pp_failure ppf f =
  Format.fprintf ppf
    "seed %d: %s@\n  at step %d, shrunk from %d to %d events@\n%s" f.f_seed
    f.f_error f.f_step f.f_original_events
    (List.length f.f_scenario.events)
    (script_of_scenario f.f_scenario)
