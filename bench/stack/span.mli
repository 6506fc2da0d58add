(** In-memory span recorder for the traced benchmark run.

    A span is one timed call into a layer: its kind (an index into the
    recorder's name table), start and end on the monotonic clock in
    nanoseconds, the span that was open when it started (its parent),
    and the request it served (a burst or batch number). Spans live in
    flat preallocated arrays, doubled if a run outgrows them, and are
    only written out when the run ends. A disabled recorder reads no
    clock and records nothing. *)

type t

val now : unit -> int
(** Monotonic clock, nanoseconds. Allocation-free. *)

val create : names:string array -> t
(** An enabled recorder over the given span kinds. *)

val disabled : t

val enabled : t -> bool

val set_request : t -> int -> unit
(** Tag the spans entered from now on with this request id. *)

val enter : t -> int -> int
(** Open a span of the given kind; returns its id ([-1] if disabled). *)

val leave : t -> int -> unit
(** Close the span [enter] returned. Spans must close innermost first. *)

val length : t -> int

val duration : t -> int -> int
(** Nanoseconds between a closed span's [enter] and [leave]. *)

val self_ns : t -> int array
(** Per span id: its duration minus the durations of its direct
    children (which nest inside it and never overlap). *)

val by_request : t -> int -> requests:int -> float array
(** Per request id [r] with [0 <= r < requests]: the summed duration
    (ns) of the spans of one kind that served it ([0.] where none
    did). *)

val total : ?self:bool -> t -> int -> float
(** Summed duration (ns) of every span of one kind, or their summed
    self time with [~self:true]. *)

val write : t -> string -> unit
(** Tab-separated, one span per line:
    [id name start_ns end_ns parent request]. *)
