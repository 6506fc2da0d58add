(** Committed score baselines ([SCENARIO_BASELINES.json]) and the
    tolerance gate that diffs fresh scores against them.

    Each gated metric carries an absolute and a relative tolerance; the
    allowed drift is [max tol_abs (tol_rel * |expected|)]. A measured
    delta within half the allowance passes, within the allowance warns
    (close to the cliff — consider re-pinning), beyond it fails the
    gate. Scores are deterministic per seed and scale, so the bands
    absorb only small {e intended} behaviour drift. *)

type tol = {
  t_metric : string;  (** a {!Score.gated_metrics} name *)
  t_expected : float;
  t_abs : float;
  t_rel : float;
}

type pack_baseline = { pb_pack : string; pb_metrics : tol list }

type t = {
  b_version : int;
  b_scale : float;  (** pack scale the pins were measured at *)
  b_seed : int;  (** pack seed the pins were measured at *)
  b_packs : pack_baseline list;
}

val magic : string
(** The [baselines] discriminator field value, ["cfca-scenarios"]. *)

val of_string : string -> (t, string) result
(** Parse a baseline document; [Error] names the first problem
    (malformed JSON, wrong {!magic}, missing field, or a pack that does
    not pin every {!Score.gated_metrics} name). *)

val of_file : string -> (t, string) result

val pack : t -> string -> pack_baseline option
(** The pinned entry for one pack name, if any. *)

type verdict = Pass | Warn | Fail

val verdict_name : verdict -> string
(** ["pass"], ["warn"] or ["fail"]. *)

val allowed : tol -> float
(** The permitted absolute drift: [max t_abs (t_rel *. |t_expected|)]. *)

val check : tol -> float -> verdict
(** [check tol got] — {!Pass} within half the allowance, {!Warn} within
    the allowance, {!Fail} beyond. *)

val of_scores : scale:float -> seed:int -> Score.t list -> t
(** Pin fresh scores with the default per-metric tolerances — the
    [--write-baselines] path of [verify scenarios]. *)

val to_json : t -> string
(** Pretty-printed, committable baseline file. [of_string] of the
    result round-trips. *)

(** {1 Mini JSON} — exposed for the schema-pin tests *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_null

exception Parse_error of string

val parse_json : string -> json
(** @raise Parse_error on malformed input. *)
