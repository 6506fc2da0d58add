(** Data-plane tuning knobs, defaulting to the paper's §4.1 setup. *)

type victim_policy =
  | Lthd_policy  (** the paper's design: pick from the LTHD pipeline, fall back to a random resident (line-rate, no scans). *)
  | Random_policy  (** ablation: uniformly random resident entry. *)
  | Lfu_oracle  (** ablation upper bound: exact least-frequently-used via a full scan (not implementable at line rate). *)

val policy_name : victim_policy -> string
(** Short label for reports, e.g. ["lthd"]. *)

type t = {
  l1_capacity : int;  (** TCAM cache entries. *)
  l2_capacity : int;  (** SRAM cache entries. *)
  lthd_stages : int;  (** Light-Traffic-Hitters pipeline depth (paper: 4). *)
  lthd_width : int;  (** Hash-table size per stage (paper: 10). *)
  threshold_window : float;
      (** Length in simulated seconds of a counting window (paper:
          thresholds are per minute). *)
  dram_threshold_initial : int;
      (** DRAM -> L2 promotion threshold while the caches warm up
          (paper: 1 match). *)
  l2_threshold_initial : int;
      (** L2 -> L1 promotion threshold while the caches warm up
          (paper: 15 matches). *)
  dram_threshold : int;
      (** DRAM -> L2 threshold once L2 is full (paper: 100/min). *)
  l2_threshold : int;  (** L2 -> L1 threshold once L1 is full (paper: 300/min). *)
  victim_policy : victim_policy;  (** cache-victim selection (paper: LTHD). *)
}

val default : t
(** The paper's 15K/20K configuration. *)

val make : ?base:t -> l1_capacity:int -> l2_capacity:int -> unit -> t
(** [base] defaults to {!default}; only the cache sizes change. *)

val validate : t -> (unit, string) result
(** Reject non-positive capacities/dimensions and L2 smaller than L1;
    {!Pipeline.create} calls this and raises on [Error]. *)

val pp : Format.formatter -> t -> unit
