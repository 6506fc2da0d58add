(** Flow-structured packet generation: Zipf-popular destinations with
    packet-train temporal locality (Jain & Routhier — the paper's
    ref [17]).

    A fixed pool of flow slots is maintained; each emitted packet comes
    from a random slot, and an exhausted slot is reseeded with a fresh
    flow: a destination prefix drawn from a Zipf over a seeded ranking
    of the RIB's prefixes, a uniformly random host address inside it,
    and a geometrically distributed train length. The ranking clusters
    popularity by /12 region: regions are ordered pseudo-randomly, and
    each region's prefixes take adjacent ranks in pseudo-random order. The
    generator is deterministic for a given seed, so every system under
    comparison replays the identical packet sequence. *)

open Cfca_prefix

type params = {
  flow_slots : int;  (** concurrent flows (default 256) *)
  mean_train : float;  (** mean packets per flow (default 12.0) *)
  zipf_exponent : float;  (** destination popularity skew (default 1.0) *)
  seed : int;
}

val default_params : params

type t

val create : params -> Cfca_rib.Rib.t -> t
(** @raise Invalid_argument on an empty RIB. *)

val next : t -> Ipv4.t
(** The next packet's destination address. *)

val rank_of_prefix : t -> Prefix.t -> int option
(** Popularity rank the generator assigned to a RIB prefix (0 = most
    popular) — lets the update generator bias toward unpopular routes. *)

val prefix_of_rank : t -> int -> Prefix.t
(** @raise Invalid_argument if the rank is out of range. *)

val universe : t -> int
(** Number of ranked prefixes (= the RIB size). *)
