type t = {
  names : string array;
  on : bool;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable len : int;
  mutable open_ : int;  (* innermost open span, -1 at top level *)
  mutable cur_req : int;
}

let now () = Int64.to_int (Monotonic_clock.now ())

let make ~names ~on capacity =
  {
    names;
    on;
    kind = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity 0;
    req = Array.make capacity 0;
    len = 0;
    open_ = -1;
    cur_req = 0;
  }

let create ~names = make ~names ~on:true (1 lsl 18)

let disabled = make ~names:[||] ~on:false 0

let enabled t = t.on

let set_request t r = t.cur_req <- r

let grow t =
  let double a = Array.append a (Array.make (Array.length a) 0) in
  t.kind <- double t.kind;
  t.start <- double t.start;
  t.stop <- double t.stop;
  t.parent <- double t.parent;
  t.req <- double t.req

let enter t k =
  if not t.on then -1
  else begin
    if t.len = Array.length t.kind then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.kind.(i) <- k;
    t.parent.(i) <- t.open_;
    t.req.(i) <- t.cur_req;
    t.open_ <- i;
    t.start.(i) <- now ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now ();
    t.open_ <- t.parent.(i)
  end

let length t = t.len

let duration t i = t.stop.(i) - t.start.(i)

let self_ns t =
  let s = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then s.(p) <- s.(p) - duration t i
  done;
  s

let by_request t k ~requests =
  let acc = Array.make requests 0.0 in
  for i = 0 to t.len - 1 do
    let r = t.req.(i) in
    if t.kind.(i) = k && r >= 0 && r < requests then
      acc.(r) <- acc.(r) +. float_of_int (duration t i)
  done;
  acc

let total ?(self = false) t k =
  let per_span = if self then self_ns t else Array.init t.len (duration t) in
  let sum = ref 0 in
  for i = 0 to t.len - 1 do
    if t.kind.(i) = k then sum := !sum + per_span.(i)
  done;
  float_of_int !sum

let write t path =
  let oc = open_out path in
  output_string oc "# id\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.kind.(i))
      t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
  done;
  close_out oc
