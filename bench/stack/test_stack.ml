(* Tests of the stack benchmark's own parts: the percentile rule, span
   self time, the shadow LPM against the reference trie, and a
   3K-route run of the driver checked against BENCHMARK.json. *)

open Cfca_prefix
open Stack_bench

(* -- statistics ------------------------------------------------------ *)

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.check opt "p90 of 100" (Some 90.0) (Stats.percentile (one_to 100) 90);
  Alcotest.check opt "p10 of 100" (Some 11.0) (Stats.percentile (one_to 100) 10);
  Alcotest.check opt "p90 of 99 refused" None (Stats.percentile (one_to 99) 90);
  Alcotest.check opt "p80 of 50" (Some 40.0) (Stats.percentile (one_to 50) 80);
  Alcotest.check opt "p20 of 50" (Some 11.0) (Stats.percentile (one_to 50) 20);
  Alcotest.check opt "p80 of 49 refused" None (Stats.percentile (one_to 49) 80);
  Alcotest.(check (float 0.0)) "odd median" 3.0 (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  let tail = Alcotest.(option (pair int (float 0.0))) in
  Alcotest.check tail "tail of 100" (Some (90, 90.0)) (Stats.tail (one_to 100));
  Alcotest.check tail "tail of 1000" (Some (99, 990.0)) (Stats.tail (one_to 1000));
  Alcotest.check tail "tail of 19" None (Stats.tail (one_to 19))

(* for distinct samples, a reported percentile has at least ten
   samples beyond it on its tail side *)
let prop_ten_beyond =
  QCheck.Test.make ~count:300 ~name:"a reported percentile has ten samples beyond it"
    QCheck.(pair (int_range 1 400) (int_range 1 99))
    (fun (n, p) ->
      QCheck.assume (p <> 50);
      let xs = Array.init n (fun i -> float_of_int ((i * 7919) mod 1_000_003)) in
      match Stats.percentile xs p with
      | None -> true
      | Some v ->
          let beyond =
            Array.fold_left
              (fun c x -> if (p > 50 && x > v) || (p < 50 && x < v) then c + 1 else c)
              0 xs
          in
          beyond >= Stats.min_tail)

(* -- spans ----------------------------------------------------------- *)

let busy () =
  let x = ref 0 in
  for i = 1 to 20_000 do
    x := !x + (i land 7)
  done;
  ignore (Sys.opaque_identity !x)

let test_span_self_time () =
  let t = Span.create ~names:[| "outer"; "inner"; "other" |] in
  Span.set_request t 0;
  let a = Span.enter t 0 in
  busy ();
  let b = Span.enter t 1 in
  busy ();
  Span.leave t b;
  let c = Span.enter t 1 in
  busy ();
  Span.leave t c;
  busy ();
  Span.leave t a;
  Span.set_request t 1;
  let d = Span.enter t 2 in
  Span.leave t d;
  let self = Span.self_ns t in
  let dur = Span.duration t in
  Alcotest.(check int) "four spans" 4 (Span.length t);
  Alcotest.(check int) "outer self = outer - children" (dur a - dur b - dur c) self.(a);
  Alcotest.(check int) "leaf self = duration" (dur b) self.(b);
  Alcotest.(check bool) "outer self positive" true (self.(a) > 0);
  Alcotest.(check (float 0.0)) "total" (float_of_int (dur b + dur c)) (Span.total t 1);
  Alcotest.(check (float 0.0)) "total self" (float_of_int self.(a)) (Span.total ~self:true t 0);
  Alcotest.(check (array (float 0.0))) "by request"
    [| 0.0; float_of_int (dur d) |]
    (Span.by_request t 2 ~requests:2);
  Alcotest.(check int) "disabled records nothing" (-1) (Span.enter Span.disabled 0);
  Alcotest.(check int) "disabled length" 0 (Span.length Span.disabled)

(* -- shadow LPM vs the reference trie -------------------------------- *)

let prop_shadow_agrees =
  QCheck.Test.make ~count:200 ~name:"shadow LPM agrees with Cfca_trie.Lpm"
    QCheck.(pair int (int_range 1 300))
    (fun (seed, ops) ->
      let st = Random.State.make [| seed |] in
      let default_nh = Nexthop.of_int 63 in
      let shadow = Shadow.create ~default_nh in
      let lpm = Cfca_trie.Lpm.create () in
      let live = ref [] in
      for _ = 1 to ops do
        match (Random.State.int st 4, !live) with
        | 0, p :: rest ->
            Shadow.withdraw shadow p;
            Cfca_trie.Lpm.remove lpm p;
            live := rest
        | _ ->
            let p = Prefix.random st ~min_len:0 ~max_len:32 () in
            let nh = Nexthop.of_int (1 + Random.State.int st 32) in
            Shadow.announce shadow p nh;
            Cfca_trie.Lpm.add lpm p nh;
            live := p :: !live
      done;
      let probes =
        List.concat_map (fun p -> [ Prefix.network p; Prefix.last_address p ]) !live
        @ List.init 64 (fun _ -> Ipv4.random st)
      in
      List.for_all
        (fun a ->
          let want =
            Option.value (Cfca_trie.Lpm.lookup_value lpm a) ~default:default_nh
          in
          Nexthop.equal want (Shadow.lookup shadow a))
        probes)

(* -- the driver on a 3K-route table ---------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* the "name" values of one metric list of BENCHMARK.json *)
let benchmark_names section =
  let src = read_file "../../BENCHMARK.json" in
  let start = Option.get (find_from src 0 ("\"" ^ section ^ "\"")) in
  let stop = String.index_from src start ']' in
  let rec go i acc =
    match find_from src i "\"name\"" with
    | Some j when j < stop ->
        let q = String.index_from src (j + 6) '"' in
        let q' = String.index_from src (q + 1) '"' in
        go q' (String.sub src (q + 1) (q' - q - 1) :: acc)
    | _ -> List.rev acc
  in
  go start []

let tiny =
  match Driver.workloads with
  | steady :: _ ->
      {
        steady with
        Driver.name = "tiny";
        stack =
          { steady.Driver.stack with Cfca_sim.Replay.routes = 3_000; root_bits = 16 };
        packets = 2_000;
      }
  | [] -> assert false

let names r = List.map (fun (m : Driver.metric) -> m.name) r.Driver.metrics

let test_driver_untraced () =
  let r = Driver.run tiny ~seed:5 ~seconds:60.0 in
  Alcotest.(check (list string)) "end-to-end metrics are BENCHMARK.json's"
    (benchmark_names "end_to_end") (names r);
  Alcotest.(check (list string)) "no problems" [] r.problems;
  Alcotest.(check bool) "audited" true (r.attempted > 1);
  Alcotest.(check int) "failed_pct = 0" 0 r.failed;
  List.iter
    (fun (m : Driver.metric) ->
      Alcotest.(check bool) (m.name ^ " is a number") true
        (Float.is_finite m.value && m.value >= 0.0))
    r.metrics;
  (* a run measures a fixed number of bursts, so its counts are a
     function of the seed *)
  let again = Driver.run tiny ~seed:5 ~seconds:60.0 in
  let value r name =
    (List.find (fun (m : Driver.metric) -> m.name = name) r.Driver.metrics).value
  in
  List.iter
    (fun name ->
      Alcotest.(check (float 0.0)) (name ^ " repeats") (value r name) (value again name))
    [ "l1_miss_pct"; "l2_miss_pct"; "fib_ratio" ]

let test_driver_traced () =
  let file = "tiny-trace.tsv" in
  let r = Driver.run ~trace:file tiny ~seed:5 ~seconds:60.0 in
  Alcotest.(check (list string)) "per-layer metrics are BENCHMARK.json's"
    (benchmark_names "per_layer") (names r);
  Alcotest.(check (list string)) "no problems" [] r.problems;
  Alcotest.(check int) "failed_pct = 0" 0 r.failed;
  let spans = List.length (String.split_on_char '\n' (read_file file)) in
  Sys.remove file;
  Alcotest.(check bool) "spans written" true (spans > 4 * tiny.bursts)

let test_driver_purpose () =
  let r = Driver.run { tiny with purpose = Driver.Delta_overflow } ~seed:5 ~seconds:60.0 in
  Alcotest.(check bool) "8-update bursts never overflow: reported" true
    (r.problems <> [])

let () =
  Alcotest.run "stack"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          QCheck_alcotest.to_alcotest prop_ten_beyond;
        ] );
      ("span", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
      ("shadow", [ QCheck_alcotest.to_alcotest prop_shadow_agrees ]);
      ( "driver",
        [
          Alcotest.test_case "untraced 3K-route run" `Quick test_driver_untraced;
          Alcotest.test_case "traced 3K-route run" `Quick test_driver_traced;
          Alcotest.test_case "workload purpose is checked" `Quick test_driver_purpose;
        ] );
    ]
