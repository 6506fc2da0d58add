(** Summary statistics over benchmark samples.

    One rule decides every reported percentile: a percentile is only
    reported when at least {!min_tail} samples lie beyond it (above it
    for upper percentiles, below it for lower ones), so a tail figure
    always rests on ten observations rather than on one outlier. A p90
    or p10 therefore needs at least 100 samples. *)

val min_tail : int
(** Samples that must lie beyond a reported percentile (10). *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> int -> float option
(** [percentile xs p] is the nearest-rank [p]-th percentile
    ([0 < p < 100], [p <> 50]) of [xs], or [None] when fewer than
    {!min_tail} samples lie beyond it. *)

val tail : float array -> (int * float) option
(** The highest integer percentile the sample supports under the rule,
    with its value; [None] below [2 * min_tail] samples. *)
