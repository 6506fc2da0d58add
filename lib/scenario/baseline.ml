(* Pinned score baselines and the tolerance gate over them.

   The JSON surface is deliberately tiny (objects, arrays, strings,
   numbers — what SCENARIO_BASELINES.json uses) and hand-rolled like
   the telemetry exporter: no parser dependency enters the build. *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail ("bad number " ^ text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          J_obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          J_arr (elements [])
        end
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> J_num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* -- schema ---------------------------------------------------------- *)

type tol = {
  t_metric : string;
  t_expected : float;
  t_abs : float;
  t_rel : float;
}

type pack_baseline = { pb_pack : string; pb_metrics : tol list }

type t = {
  b_version : int;
  b_scale : float;
  b_seed : int;
  b_packs : pack_baseline list;
}

let magic = "cfca-scenarios"

let field name = function
  | J_obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ name)))
  | _ -> raise (Parse_error ("expected an object holding " ^ name))

let num name j =
  match field name j with
  | J_num f -> f
  | _ -> raise (Parse_error ("field " ^ name ^ " must be a number"))

let str name j =
  match field name j with
  | J_str s -> s
  | _ -> raise (Parse_error ("field " ^ name ^ " must be a string"))

let arr name j =
  match field name j with
  | J_arr l -> l
  | _ -> raise (Parse_error ("field " ^ name ^ " must be an array"))

let of_string text =
  match parse_json text with
  | exception Parse_error msg -> Error msg
  | j -> (
      try
        if str "baselines" j <> magic then
          raise (Parse_error "not a cfca-scenarios baseline file");
        let tol_of m =
          {
            t_metric = str "metric" m;
            t_expected = num "expected" m;
            t_abs = num "tol_abs" m;
            t_rel = num "tol_rel" m;
          }
        in
        (* a pack that leaves a gated metric unpinned would pass the
           gate however far that metric moved *)
        let pack_of p =
          let pb_pack = str "pack" p in
          let pb_metrics = List.map tol_of (arr "metrics" p) in
          List.iter
            (fun m ->
              if not (List.exists (fun t -> String.equal t.t_metric m) pb_metrics)
              then
                raise
                  (Parse_error
                     (Printf.sprintf "pack %s does not pin gated metric %s"
                        pb_pack m)))
            Score.gated_metrics;
          { pb_pack; pb_metrics }
        in
        Ok
          {
            b_version = int_of_float (num "version" j);
            b_scale = num "scale" j;
            b_seed = int_of_float (num "seed" j);
            b_packs = List.map pack_of (arr "packs" j);
          }
      with Parse_error msg -> Error msg)

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> of_string text

let pack t name =
  List.find_opt (fun p -> String.equal p.pb_pack name) t.b_packs

(* -- verdicts -------------------------------------------------------- *)

type verdict = Pass | Warn | Fail

let verdict_name = function Pass -> "pass" | Warn -> "warn" | Fail -> "fail"

let allowed tol = Float.max tol.t_abs (tol.t_rel *. Float.abs tol.t_expected)

let check tol got =
  let d = Float.abs (got -. tol.t_expected) in
  let a = allowed tol in
  if d <= 0.5 *. a then Pass else if d <= a then Warn else Fail

(* -- writing --------------------------------------------------------- *)

(* Default tolerances per metric. Scores are deterministic for a fixed
   seed and scale, so the bands only absorb small *intended* behaviour
   drift (tuning a threshold, reordering an eviction tie-break) —
   anything larger is a regression the gate must catch. *)
let default_tol metric expected =
  let abs_tol, rel_tol =
    match metric with
    | "hit_ratio" | "l2_hit_ratio" -> (0.02, 0.03)
    | "miss_p99" | "miss_max" -> (25.0, 0.15)
    | "churn_ops" -> (50.0, 0.10)
    | "churn_per_sec" -> (1_000.0, 0.10)
    | _ -> (0.0, 0.10)
  in
  { t_metric = metric; t_expected = expected; t_abs = abs_tol; t_rel = rel_tol }

let of_scores ~scale ~seed scores =
  {
    b_version = 1;
    b_scale = scale;
    b_seed = seed;
    b_packs =
      List.map
        (fun (s : Score.t) ->
          {
            pb_pack = s.Score.s_pack;
            pb_metrics =
              List.filter_map
                (fun m ->
                  Option.map (default_tol m) (Score.metric s m))
                Score.gated_metrics;
          })
        scores;
  }

let to_json t =
  let open Cfca_telemetry.Export in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"baselines\": %s,\n  \"version\": %d,\n"
       (json_string magic) t.b_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": %s,\n  \"seed\": %d,\n"
       (json_number t.b_scale) t.b_seed);
  Buffer.add_string buf "  \"packs\": [\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "    { \"pack\": %s,\n      \"metrics\": [\n"
           (json_string p.pb_pack));
      List.iteri
        (fun k m ->
          if k > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf
            (Printf.sprintf
               "        { \"metric\": %s, \"expected\": %s, \"tol_abs\": %s, \
                \"tol_rel\": %s }"
               (json_string m.t_metric)
               (json_number m.t_expected)
               (json_number m.t_abs) (json_number m.t_rel)))
        p.pb_metrics;
      Buffer.add_string buf "\n      ] }")
    t.b_packs;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
