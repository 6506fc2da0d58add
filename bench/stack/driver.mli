(** The stack benchmark: one workload run through the complete CFCA
    stack on a single domain, timed from outside with public calls
    only, wired as {!Cfca_sim.Replay} wires it.

    A run generates its inputs from the seed (the RIB, the traffic
    generator and all of the churn), sets the stack up 3 to 10 times
    (reporting the median set-up time), sends packets until both caches
    are full, then alternates back to back — a closed loop — one churn
    burst ([Coalesce.flush] → [Route_manager.apply] → FIB-op sink →
    [Fib_snapshot.refresh] → [cover] → [Plane.publish_delta] →
    [Plane.collect]) with one packet batch through
    [Fib_snapshot.lookup] → [Pipeline.process] and one through a pinned
    plane generation, for the workload's fixed number of bursts. So
    every count a run reports is a function of the seed. Every 10th
    burst both lookup paths are checked against {!Shadow};
    [Route_manager.verify] runs at the end. *)

type purpose =
  | Forwarding  (** nothing beyond the audit to check *)
  | Patched_publication  (** some burst must publish a patched generation *)
  | Delta_overflow  (** at least half the bursts must rebuild the snapshot *)

type workload = {
  name : string;
  stack : Cfca_sim.Replay.config;
      (** table size, peers, cache sizes, root stride and patch budget;
          the other fields are unused *)
  flow : Cfca_traffic.Flow_gen.params;  (** traffic; the seed is replaced *)
  churn : Cfca_traffic.Update_gen.params;
      (** update mix; the seed and count are replaced *)
  burst : int;  (** raw updates per burst *)
  bursts : int;  (** bursts measured *)
  packets : int;  (** packets per batch, one batch per path per burst *)
  purpose : purpose;
}

val workloads : workload list
(** [steady], [spread], [churn] and [storm]; see README.md. *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
      (** end-to-end metrics, or per-layer ones for a traced run *)
  attempted : int;  (** audit probes, plus one invariant check *)
  failed : int;  (** probes that diverged, plus a failed invariant check *)
  problems : string list;
      (** why the run does not measure its workload (e.g. a refused
          percentile, or the path the workload exists for never ran) *)
}

val run : ?trace:string -> workload -> seed:int -> seconds:float -> result
(** Run one workload. The measured loop stops early, with fewer bursts
    than the workload's, once [seconds] have passed. With [trace],
    every layer call is recorded as a span, the per-layer metrics are
    returned and the spans are written to that file. *)
