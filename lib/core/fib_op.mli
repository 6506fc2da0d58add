(** Data-plane operations emitted by the control plane.

    The aggregation algorithms mutate the binary prefix tree and notify
    the data plane of every resulting FIB change through a {!sink}.
    The tree-side bookkeeping ([status], [table], [installed_nh]) is
    done by the emitter {e before} the sink runs, so a sink observes a
    consistent tree. *)

open Cfca_prefix
open Cfca_trie

type t =
  Control_f.Make(Cfca_prefix.Family.V4).Fib_op.t =
  | Install of Bintrie.node * Bintrie.table
      (** A new entry was written to the given table ([Dram] for
          control-plane installs; caches for data-plane migrations). *)
  | Remove of Bintrie.node * Bintrie.table
      (** The entry was deleted from the table that held it. *)
  | Update of Bintrie.node * Bintrie.table * Nexthop.t
      (** The entry's next-hop was rewritten in place. *)

type sink = Bintrie.t -> t -> unit
(** Sinks receive the tree alongside the operation: a node is an arena
    handle, meaningless without the tree it indexes. *)

val null_sink : sink
(** Discards every operation — for pure compression measurements. *)

val node : t -> Bintrie.node
(** The entry an operation touches. *)

val table : t -> Bintrie.table
(** The table an operation touches. *)

val pp : Bintrie.t -> Format.formatter -> t -> unit

val counting_sink : unit -> sink * (unit -> int)
(** A sink that counts operations, and a function reading the count. *)

val changes_sink : unit -> sink * (unit -> Prefix.t list)
(** A sink recording the prefix of every operation, and a function
    that takes the record and forgets it: each distinct prefix once,
    the most recent first occurrence first. Every kind counts, since a
    next-hop rewrite moves a next-hop-keyed table's answers too; this
    is the changed-prefix set [Cfca_mt.Plane.publish_delta] patches. *)
