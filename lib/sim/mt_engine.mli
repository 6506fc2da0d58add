(** Multicore lookup-plane runner: N OCaml 5 lookup domains consuming
    immutable compiled forwarding generations published by a live
    update-churn writer, with per-domain sharded accounting and a
    differential audit of every domain's answers.

    The writer (the calling domain) owns the CFCA control plane. It
    loads the RIB, compiles the initial cover
    ({!Cfca_dataplane.Fib_snapshot.cover} → {!Cfca_mt.Plane.create}),
    spawns the reader domains, and then applies the configured BGP
    churn — each burst folded through {!Cfca_core.Coalesce} to its net
    delta and republished with {!Cfca_mt.Plane.publish_delta}, from the
    prefixes {!Cfca_core.Fib_op.changes_sink} recorded and
    {!Cfca_dataplane.Fib_snapshot.resolve}, even when the delta is
    empty — and collects retired generations once every reader has
    moved past their epoch. Readers pin a generation
    per batch and answer their private, seeded address stream
    (zipf-weighted members of routed prefixes in [Warm] mode, uniform
    addresses in [Cold]) with allocation-free flat lookups, recording
    hits into their own {!Cfca_mt.Shard} row.

    Machine-checked claims, not asserted ones:
    - {e audit}: every [sample_every]-th lookup records
      [(epoch, addr, answer)]; after the run each sample is compared
      against an independent {!Cfca_check.Oracle} built from the
      exact route cover published at that epoch. Any mismatch — torn
      read, use of a never-published table, wrong longest match — is
      a divergence.
    - {e liveness}: each pin checks the generation's live flag; a
      freed generation observed pinned is a protocol violation
      ([mt_live_violations]).
    - {e exact counters}: after joining the readers, every domain's
      shard row must equal its locally counted work, and the merged
      telemetry counters (when a registry is supplied) must equal the
      shard totals. *)

open Cfca_prefix
open Cfca_rib

type mode = Warm | Cold

type config = {
  domains : int;  (** Reader domains to spawn (≥ 1). *)
  lookups : int;  (** Lookups per domain (> 0). *)
  batch : int;  (** Lookups per generation pin (> 0). *)
  updates : int;  (** BGP churn budget applied by the writer. *)
  publish_every : int;  (** Updates per republish (≥ 1). *)
  mode : mode;
  seed : int;
  sample_every : int;  (** Audit sampling stride; 0 disables the audit. *)
  verify_publish : bool;
      (** Differentially gate every publication: the published
          (possibly patched) table is probed against a fresh compile of
          the same cover at the boundaries of every changed prefix plus
          a seeded random sample ([mt_publish_checks] /
          [mt_publish_divergences]). Costs a full compile per burst —
          for verification runs, not benchmarks. *)
}

val default_config : config
(** 2 domains, 200k lookups each in batches of 256, 200 updates
    republished every 8, warm, seed 0x5EED, audit every 251st lookup,
    publish verification off. *)

type domain_stats = {
  d_lookups : int;  (** Locally counted lookups (always = [lookups]). *)
  d_pins : int;  (** Locally counted generation pins. *)
  d_hits : int;  (** From the shard row after join (exact). *)
  d_defaults : int;
  d_min_epoch : int;  (** Oldest generation this domain answered from. *)
  d_max_epoch : int;
}

type result = {
  mt_elapsed : float;  (** Wall seconds, spawn to last join. *)
  mt_lookups : int;  (** Aggregate lookups across domains. *)
  mt_rate : float;  (** Aggregate lookups/second. *)
  mt_domains : domain_stats array;
  mt_published : int;  (** Generations published (initial one included). *)
  mt_freed : int;  (** Generations reclaimed after grace. *)
  mt_retired_peak : int;  (** Worst retired-list backlog observed. *)
  mt_updates_applied : int;
  mt_audit_samples : int;
  mt_audit_divergences : int;  (** Must be 0. *)
  mt_live_violations : int;  (** Pins of a freed generation; must be 0. *)
  mt_counters_exact : bool;  (** Shard rows == local counts == telemetry. *)
  mt_patched_publishes : int;
      (** Publications that patched a copy of the previous generation
          ({!Cfca_mt.Plane.publish_delta}) instead of recompiling. *)
  mt_full_compiles : int;  (** Publications that compiled the full cover. *)
  mt_coalesced_seen : int;  (** Raw updates folded into the coalescer. *)
  mt_coalesced_emitted : int;
      (** Net updates that survived coalescing ([seen - emitted] were
          absorbed). *)
  mt_publish_checks : int;  (** Probes run by the publish gate. *)
  mt_publish_divergences : int;
      (** Patched-vs-fresh mismatches; must be 0. *)
}

val run :
  ?telemetry:Cfca_telemetry.Metrics.t ->
  ?default_nh:Nexthop.t ->
  config ->
  Rib.t ->
  result
(** Run one multicore lookup-plane session over the RIB. When
    [telemetry] is given, the writer periodically merges the sharded
    counters into [mt_*] counters of the registry
    ({!Cfca_mt.Plane.sync_telemetry}), with a final exact merge after
    the readers are joined.
    @raise Invalid_argument on a nonsensical config (see field
    docs). *)
