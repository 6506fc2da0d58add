(** The benchmark's independent forwarding model: one hash table per
    prefix length keyed by network address, longest match by probing
    /32 down to /0. It shares no code with the tries or the compiled
    tables it audits; O(1) per update and at most 33 probes per
    lookup, so it keeps up with a 700K-route table. *)

open Cfca_prefix

type t

val create : default_nh:Nexthop.t -> t

val announce : t -> Prefix.t -> Nexthop.t -> unit

val withdraw : t -> Prefix.t -> unit
(** No-op for a prefix that holds no route. *)

val apply : t -> Cfca_bgp.Bgp_update.t -> unit

val lookup : t -> Ipv4.t -> Nexthop.t
(** The next-hop of the longest matching route, or the default. *)
