open Cfca_prefix

(* -- result encoding ------------------------------------------------ *)

let miss = -1

let encode ~value ~length = (value lsl 6) lor length

let result_value r = r lsr 6

let result_length r = r land 0x3F

(* Array slots hold [encoded + 1] so that 0 means "no covering prefix";
   negative slots are pointers: [-(index + 1)] into the next level. *)

type t = {
  d_root_bits : int;
  d_pad : int;  (* zero-padding bits so 8-bit levels never under-shift *)
  d_root : int array;
  mutable d_spill : int array;  (* chained 256-slot blocks *)
  d_spill_base : int;  (* spill words at build time (orphan accounting) *)
  (* bookkeeping, after the four fields [lookup] reads *)
  mutable d_used : int;  (* spill words this table references *)
  mutable d_top : int ref;
      (* high-water mark of [d_spill], shared by every table on it *)
  mutable d_self : unit ref;  (* identity, renewed when the root is rewritten *)
  d_src : unit ref;  (* the source's identity when this table was copied *)
  mutable d_cells : (int * int) list;  (* root runs patched since the copy *)
}

type refusal = Over_budget | Orphaned_spill

let memory_words t = Array.length t.d_root + t.d_used

let layout t =
  (t.d_root_bits, t.d_pad, t.d_root, Array.sub t.d_spill 0 t.d_used,
   t.d_spill_base)

(* The source of a table that is no copy: no identity is ever it. *)
let no_source = ref ()

(* -- growable int buffer (build-time only) -------------------------- *)

module Gbuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max 16 n) 0; len = 0 }

  (* Append [n] zeroed slots; returns the offset of the first. The
     underlying array may move, so all access goes through [set]/[get]. *)
  let reserve t n =
    let need = t.len + n in
    if need > Array.length t.a then begin
      let cap = ref (Array.length t.a) in
      while !cap < need do
        cap := !cap * 2
      done;
      let a' = Array.make !cap 0 in
      Array.blit t.a 0 a' 0 t.len;
      t.a <- a'
    end;
    let off = t.len in
    t.len <- need;
    off

  let set t i v = t.a.(i) <- v

  let get t i = t.a.(i)

  let length t = t.len

  let contents t = Array.sub t.a 0 t.len

  let blit t dst off = Array.blit t.a 0 dst off t.len
end

(* -- DIR compilation ------------------------------------------------ *)

(* The index of the spill block under a slot holding [s]. A value slot
   gets a fresh block whose 256 slots all hold that value; the caller
   points the slot at it. *)
let block_under spill s =
  if s < 0 then -s - 1
  else begin
    let off = Gbuf.reserve spill 256 in
    if s <> 0 then
      for i = off to off + 255 do
        Gbuf.set spill i s
      done;
    off lsr 8
  end

let rec address_ordered = function
  | (a, _) :: ((b, _) :: _ as rest) ->
      Prefix.compare a b <= 0 && address_ordered rest
  | _ -> true

(* One pass in (network, length) order: every prefix comes after each
   prefix that contains it, so writing its slots over the enclosing
   values gives the table leaf-pushing would. A prefix no longer than
   the root stride fills its run of root cells; a longer one walks its
   spill chain, turning each value slot it descends through into a
   pointer to a fresh block of that value, and fills its run of slots
   at the level where it ends. Blocks are thus numbered in address
   order. *)
let build ?into ?(root_bits = 16) prefixes =
  if root_bits < 8 || root_bits > 24 then
    invalid_arg "Flat_lpm.build: root_bits outside [8, 24]";
  let levels = (32 - root_bits + 7) / 8 in
  let pad = root_bits + (8 * levels) - 32 in
  let root =
    match into with
    | Some old when old.d_root_bits = root_bits ->
        old.d_self <- ref ();
        Array.fill old.d_root 0 (Array.length old.d_root) 0;
        old.d_root
    | _ -> Array.make (1 lsl root_bits) 0
  in
  let spill = Gbuf.create 1024 in
  let prefixes =
    if address_ordered prefixes then prefixes
    else List.stable_sort (fun (a, _) (b, _) -> Prefix.compare a b) prefixes
  in
  List.iter
    (fun (p, v) ->
      if v < 0 then invalid_arg "Flat_lpm.build: negative payload";
      let len = Prefix.length p in
      let e = encode ~value:v ~length:len + 1 in
      let a = Ipv4.to_int (Prefix.network p) lsl pad in
      (* [shift]: the padded address bits below the current level *)
      let shift = 32 + pad - root_bits in
      if len <= root_bits then
        Array.fill root (a lsr shift) (1 lsl (root_bits - len)) e
      else begin
        let rec down blk shift =
          let shift = shift - 8 in
          let i = (blk lsl 8) + ((a lsr shift) land 0xFF) in
          let depth = 32 + pad - shift in
          if len <= depth then
            for j = i to i + (1 lsl (depth - len)) - 1 do
              Gbuf.set spill j e
            done
          else begin
            let b = block_under spill (Gbuf.get spill i) in
            Gbuf.set spill i (-(b + 1));
            down b shift
          end
        in
        let c = a lsr shift in
        let b = block_under spill root.(c) in
        root.(c) <- -(b + 1);
        down b shift
      end)
    prefixes;
  let spill = Gbuf.contents spill in
  let used = Array.length spill in
  {
    d_root_bits = root_bits;
    d_pad = pad;
    d_root = root;
    d_spill = spill;
    d_spill_base = used;
    d_used = used;
    d_top = ref used;
    d_self = ref ();
    d_src = no_source;
    d_cells = [];
  }

let rec dir_find spill a e shift =
  if e >= 0 then e - 1
  else
    dir_find spill a
      (Array.unsafe_get spill ((((-e) - 1) lsl 8) + ((a lsr shift) land 0xFF)))
      (shift - 8)

let lookup t addr =
  let a = Ipv4.to_int addr lsl t.d_pad in
  let e = Array.unsafe_get t.d_root (a lsr (32 + t.d_pad - t.d_root_bits)) in
  if e >= 0 then e - 1
  else dir_find t.d_spill a e (32 + t.d_pad - t.d_root_bits - 8)

(* -- in-place patching (root cells only) ---------------------------- *)

(* Copies share the spill array: [patch] never rewrites the words a
   table references, it appends past the array's high-water mark, so
   every table on the array keeps answering as before. The root is
   private to each table. A retired root is brought up to date cheaply
   when it is the unmodified source of [t]: only the runs patched into
   [t] since the copy differ. *)
let copy ?into t =
  let root =
    match into with
    | Some old when old.d_self == t.d_src ->
        List.iter
          (fun (lo, n) -> Array.blit t.d_root lo old.d_root lo n)
          t.d_cells;
        old.d_self <- ref ();
        old.d_root
    | Some old
      when old.d_root_bits = t.d_root_bits && old.d_root != t.d_root ->
        Array.blit t.d_root 0 old.d_root 0 (Array.length t.d_root);
        old.d_self <- ref ();
        old.d_root
    | _ -> Array.copy t.d_root
  in
  { t with d_root = root; d_self = ref (); d_src = t.d_self; d_cells = [] }

let patch t ~budget ~resolve changed =
  let rb = t.d_root_bits in
  let shift = 32 - rb in
  let exception Refuse of refusal in
  try
    (* Cells re-pushed away from their old spill blocks orphan them
       (blocks are append-only so shared generations stay valid); once
       the orphans have doubled the build-time spill, force a recompile
       to compact it. *)
    if t.d_used > (2 * t.d_spill_base) + 65_536 then
      raise (Refuse Orphaned_spill);
    (* Each changed prefix covers an aligned run of independently
       writable root cells — a single cell when it is longer than the
       root stride. Merge the runs (nested deltas overlap) before
       budgeting. *)
    let ranges =
      List.map
        (fun p ->
          let len = Prefix.length p in
          ( Ipv4.to_int (Prefix.network p) lsr shift,
            if len >= rb then 1 else 1 lsl (rb - len) ))
        changed
    in
    let ranges = List.sort compare ranges in
    let merged =
      List.fold_left
        (fun acc (lo, n) ->
          match acc with
          | (plo, pn) :: rest when lo <= plo + pn ->
              (plo, max pn (lo + n - plo)) :: rest
          | _ -> (lo, n) :: acc)
        [] ranges
    in
    let cells = List.fold_left (fun acc (_, n) -> acc + n) 0 merged in
    if cells > budget then raise (Refuse Over_budget);
    (* Re-leaf-push each cell from the authoritative resolver, compiling
       fresh spill chains for cells that still hold prefixes longer than
       the root stride. The resolver's encoded match length lets uniform
       ranges be recognised from a single probe (the common, leaf-only
       case), so a cell costs one probe per leaf run under it. *)
    let pad = t.d_pad in
    let cell_bits = 32 + pad - rb in
    let base_blocks = t.d_used lsr 8 in
    let gb = Gbuf.create 256 in
    (* probe at padded address [pa]: the result holds for the rest of
       the matched prefix's aligned run (one address on miss) *)
    let probe pa =
      let r = resolve (Ipv4.of_int (pa lsr pad)) in
      let s = if r < 0 then pad else 32 + pad - result_length r in
      (r, ((pa lsr s) + 1) lsl s)
    in
    let rec fill pa bits =
      let r0, run0 = probe pa in
      if run0 >= pa + (1 lsl bits) then r0 + 1
      else begin
        let b = Gbuf.reserve gb 256 lsr 8 in
        let sub = bits - 8 in
        for v = 0 to 255 do
          Gbuf.set gb ((b lsl 8) + v) (fill (pa + (v lsl sub)) sub)
        done;
        -(base_blocks + b + 1)
      end
    in
    (* compile every cell before touching the table, then install the
       fresh blocks before the root pointers into them *)
    let writes =
      List.concat_map
        (fun (lo, n) ->
          List.init n (fun k ->
              let i = lo + k in
              (i, fill (i lsl cell_bits) cell_bits)))
        merged
    in
    let fresh = Gbuf.length gb in
    if fresh > 0 then begin
      let used = t.d_used in
      (* words past the high-water mark belong to no table, so the
         newest table on the array may write them in place; any other
         grows into a new array and leaves the old one to its sharers *)
      if not (!(t.d_top) = used && used + fresh <= Array.length t.d_spill)
      then begin
        let cap = max (2 * Array.length t.d_spill) (used + fresh) in
        let a = Array.make cap 0 in
        Array.blit t.d_spill 0 a 0 used;
        t.d_spill <- a;
        t.d_top <- ref used
      end;
      Gbuf.blit gb t.d_spill used;
      t.d_used <- used + fresh;
      t.d_top := used + fresh
    end;
    List.iter (fun (i, e) -> Array.unsafe_set t.d_root i e) writes;
    t.d_self <- ref ();
    if t.d_src != no_source then
      t.d_cells <- List.rev_append merged t.d_cells;
    Ok cells
  with Refuse r -> Error r

let find_value t addr =
  let r = lookup t addr in
  if r < 0 then -1 else r lsr 6
