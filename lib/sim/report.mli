(** Plain-text rendering of experiment results, shaped like the paper's
    tables and figure series. *)

val print_table2 : Experiments.table2_row list -> unit

val print_table3 : Experiments.table3_row list -> unit

val print_miss_series : (string * Engine.window array) list -> unit
(** Fig. 9 / Fig. 11: L1 and L2 cache-miss %, one row per 100 K-packet
    window. *)

val print_install_series : (string * Engine.window array) list -> unit
(** Fig. 10a. *)

val print_update_series : (string * Engine.window array) list -> unit
(** Fig. 10b: cumulative BGP updates vs updates applied to L1. *)

val print_resilience : Engine.run_result -> unit
(** Watchdog check/recovery counters plus the per-stream decode
    accounting ([r_ingest]); non-clean streams get their full
    {!Cfca_resilience.Errors.pp_report} counter block. *)

val print_run_summary : Engine.run_result -> unit
(** Includes {!print_resilience}. *)

val print_timings : Engine.timing list -> unit
(** Fig. 12: cumulative handling time at each checkpoint plus the mean
    per-update cost. *)

val print_ablation : title:string -> Experiments.ablation_row list -> unit

val print_robustness : Experiments.robustness_row list -> unit

val print_telemetry_series :
  ?cols:string list -> (string * Engine.telemetry) list -> unit
(** Render named telemetry bundles
    ({!Experiments.hit_ratio_over_time}'s output) as per-window tables,
    one row per retained window. [cols] (default [l1_hit_ratio],
    [l2_hit_ratio], [tcam_occupancy], [forwarding_errors]) is
    intersected with each bundle's actual columns, so heterogeneous
    bundles print cleanly. *)

(** One measured configuration of the lookup microbench. *)
type lookup_row = {
  lb_name : string;  (** table under test, e.g. ["flat-dir24"] *)
  lb_mode : string;  (** ["warm"] (zipf working set) or ["cold"] (uniform) *)
  lb_ns : float;  (** nanoseconds per lookup (Bechamel OLS estimate) *)
}

type lookup_bench = {
  lb_scale : float;
  lb_entries : int;  (** routes in the table under test *)
  lb_rows : lookup_row list;
  lb_speedup_warm : float;  (** pointer-chasing Lpm ns / compiled DIR ns *)
  lb_speedup_cold : float;
  lb_oracle_probes : int;
  lb_oracle_divergences : int;  (** must be 0; the bench exits non-zero otherwise *)
}

val json_of_lookup_bench : lookup_bench -> string
(** Stable machine-readable rendering ([BENCH_lookup.json]): keys
    [bench], [scale], [table_entries], [results] (objects with [name],
    [mode], [ns_per_op]), [speedup.warm]/[speedup.cold] and
    [oracle.probes]/[oracle.divergences]. Always valid JSON — non-finite
    numbers are clamped. *)

val print_lookup_bench : lookup_bench -> unit

(** One measured configuration of the update-churn microbench. *)
type update_row = {
  ub_system : string;  (** ["cfca"] or ["pfca"] *)
  ub_backend : string;  (** {!Cfca_trie.Bintrie.backend_name} *)
  ub_rib_size : int;
  ub_updates : int;
  ub_updates_per_sec : float;
  ub_heap_words_per_route : float;
      (** {!Cfca_trie.Bintrie.approx_heap_words} / RIB size after replay *)
}

(** Incremental update-path statistics of the churn replay: the
    snapshot patch/recompile split, the coalescer's op reduction, the
    patched-vs-fresh differential gate, and the snapshot-maintenance
    throughput with patching on vs off. *)
type patch_stats = {
  up_bursts : int;  (** update bursts replayed through the snapshot *)
  up_patched : int;  (** generations produced by in-place patching *)
  up_full : int;  (** generations produced by a full recompile *)
  up_cells : int;  (** total root cells rewritten by patches *)
  up_coalesced_seen : int;  (** raw updates folded into the coalescer *)
  up_coalesced_emitted : int;  (** net updates surviving coalescing *)
  up_checks : int;  (** patched-vs-fresh differential probes *)
  up_divergences : int;
      (** must be 0; the bench exits non-zero otherwise *)
  up_ups_patched : float;  (** updates/sec, patching enabled *)
  up_ups_full : float;  (** updates/sec, every refresh a full recompile *)
}

type update_bench = {
  ub_scale : float;
  ub_rows : update_row list;
  ub_speedup_cfca : float;  (** arena updates/sec over record, CFCA *)
  ub_speedup_pfca : float;
  ub_gate_ops : int;  (** FIB operations compared across the backends *)
  ub_gate_divergences : int;
      (** must be 0; the bench exits non-zero otherwise *)
  ub_patch : patch_stats;
}

val json_of_update_bench : update_bench -> string
(** Stable machine-readable rendering ([BENCH_update.json]): keys
    [bench], [scale], [results] (objects with [system], [backend],
    [rib_size], [updates], [updates_per_sec], [heap_words_per_route]),
    [speedup.cfca]/[speedup.pfca],
    [gate.ops_compared]/[gate.divergences], a [patch] object (burst /
    patched / full-recompile / coalescing / differential-gate counts)
    and an [incremental] object (snapshot-maintenance updates/sec with
    patching on vs off). Always valid JSON. *)

val print_update_bench : update_bench -> unit

(** One measured configuration of the multicore lookup-plane bench. *)
type mt_row = {
  mt_r_domains : int;
  mt_r_mode : string;  (** ["warm"] or ["cold"] *)
  mt_r_mlookups : float;  (** aggregate Mlookups/sec across domains *)
  mt_r_speedup : float;  (** vs the 1-domain run of the same mode *)
  mt_r_efficiency : float;  (** speedup / domains *)
  mt_r_published : int;
  mt_r_freed : int;
  mt_r_retired_peak : int;
}

(** Writer-side republish cost: mean latency of a delta-patched
    publication vs a from-scratch compile of the same covers. *)
type republish_stats = {
  mr_patched : int;  (** publications that patched the previous table *)
  mr_full : int;  (** full compiles of the same covers, timed alongside *)
  mr_patched_us : float;  (** mean microseconds per patched publish *)
  mr_full_us : float;  (** mean microseconds per full compile *)
}

type mt_bench = {
  mb_scale : float;
  mb_cores : int;  (** {!Domain.recommended_domain_count} on this host *)
  mb_rib_size : int;
  mb_rows : mt_row list;
  mb_audit_samples : int;
  mb_audit_divergences : int;
      (** must be 0; the bench exits non-zero otherwise *)
  mb_live_violations : int;  (** must be 0 *)
  mb_counters_exact : bool;  (** must be [true] *)
  mb_republish : republish_stats;
}

type replay_bench = {
  rb_scale : float;
  rb_result : Replay.result;
}
(** The full-scale replay harness's result ({!Replay.run}) plus the
    scale it ran at. *)

val json_of_replay_bench : replay_bench -> string
(** Stable machine-readable rendering ([BENCH_replay.json]): keys
    [bench], [scale], [rib] (routes / fib_entries / load_seconds),
    [lookup] (packets, per_sec, l1/l2/fastpath hit ratios), [plane]
    (lookups, per_sec, hit_ratio, published / patched_publishes /
    full_compiles / freed), [update] (updates, per_sec, bursts,
    coalesced counts), [patch] (patched / full_recompiles /
    patched_cells), [audit] (probes, divergences, invariants_ok) and
    [memory] (heap_words_per_route, heap_mb_peak,
    budget_words_per_route, within_budget). Always valid JSON. *)

val print_replay_bench : replay_bench -> unit

val json_of_mt_bench : mt_bench -> string
(** Stable machine-readable rendering ([BENCH_mtlookup.json]): keys
    [bench], [scale], [cores], [rib_size], [results] (objects with
    [domains], [mode], [mlookups_per_sec], [speedup], [efficiency],
    [published], [freed], [retired_peak]), [audit.samples]/
    [audit.divergences]/[audit.live_violations]/[audit.counters_exact]
    and a [republish] object (patched vs full publication counts and
    mean latencies). Always valid JSON. *)

val print_mt_bench : mt_bench -> unit
