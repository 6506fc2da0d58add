type victim_policy = Lthd_policy | Random_policy | Lfu_oracle

let policy_name = function
  | Lthd_policy -> "LTHD"
  | Random_policy -> "random"
  | Lfu_oracle -> "LFU oracle"

type t = {
  l1_capacity : int;
  l2_capacity : int;
  lthd_stages : int;
  lthd_width : int;
  threshold_window : float;
  dram_threshold_initial : int;
  l2_threshold_initial : int;
  dram_threshold : int;
  l2_threshold : int;
  victim_policy : victim_policy;
}

let default =
  {
    l1_capacity = 15_000;
    l2_capacity = 20_000;
    lthd_stages = 4;
    lthd_width = 10;
    threshold_window = 60.0;
    dram_threshold_initial = 1;
    l2_threshold_initial = 15;
    dram_threshold = 100;
    l2_threshold = 300;
    victim_policy = Lthd_policy;
  }

let make ?(base = default) ~l1_capacity ~l2_capacity () =
  { base with l1_capacity; l2_capacity }

let validate t =
  if t.l1_capacity <= 0 then Error "l1_capacity must be positive"
  else if t.l2_capacity <= 0 then Error "l2_capacity must be positive"
  else if t.lthd_stages <= 0 then Error "lthd_stages must be positive"
  else if t.lthd_width <= 0 then Error "lthd_width must be positive"
  else if t.threshold_window <= 0.0 then Error "threshold_window must be positive"
  else if
    t.dram_threshold_initial <= 0 || t.l2_threshold_initial <= 0
    || t.dram_threshold <= 0 || t.l2_threshold <= 0
  then Error "thresholds must be positive"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf
    "L1=%d L2=%d LTHD=%dx%d window=%.0fs thresholds=%d/%d warmup=%d/%d \
     victims=%s"
    t.l1_capacity t.l2_capacity t.lthd_stages t.lthd_width t.threshold_window
    t.dram_threshold t.l2_threshold t.dram_threshold_initial
    t.l2_threshold_initial (policy_name t.victim_policy)
