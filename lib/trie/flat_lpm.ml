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
  d_spill_base : int;  (* spill length at build time (orphan accounting) *)
}

type refusal = Over_budget | Orphaned_spill

let memory_words t = Array.length t.d_root + Array.length t.d_spill

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

  let length t = t.len

  let contents t = Array.sub t.a 0 t.len
end

(* -- build-time binary trie ----------------------------------------- *)

type bnode = {
  mutable res : int;  (* encoded result, -1 when the prefix is unbound *)
  mutable zero : bnode option;
  mutable one : bnode option;
}

let fresh () = { res = -1; zero = None; one = None }

let build_trie prefixes =
  let root = fresh () in
  List.iter
    (fun (p, v) ->
      if v < 0 then invalid_arg "Flat_lpm.build: negative payload";
      let len = Prefix.length p in
      let rec go n depth =
        if depth = len then n.res <- encode ~value:v ~length:len
        else begin
          let right = Prefix.bit p depth in
          let c =
            match (if right then n.one else n.zero) with
            | Some c -> c
            | None ->
                let c = fresh () in
                if right then n.one <- Some c else n.zero <- Some c;
                c
          in
          go c (depth + 1)
        end
      in
      go root 0)
    prefixes;
  root

let is_bleaf n = n.zero == None && n.one == None

(* -- DIR compilation ------------------------------------------------ *)

let rec fill_spill spill off k n inherited =
  let inherited = if n.res >= 0 then n.res else inherited in
  if k = 0 then begin
    if is_bleaf n then Gbuf.set spill off (inherited + 1)
    else begin
      let b = Gbuf.reserve spill 256 lsr 8 in
      Gbuf.set spill off (-(b + 1));
      fill_spill spill (b lsl 8) 8 n inherited
    end
  end
  else begin
    let half = 1 lsl (k - 1) in
    (match n.zero with
    | Some c -> fill_spill spill off (k - 1) c inherited
    | None ->
        for i = off to off + half - 1 do
          Gbuf.set spill i (inherited + 1)
        done);
    match n.one with
    | Some c -> fill_spill spill (off + half) (k - 1) c inherited
    | None ->
        for i = off + half to off + (2 * half) - 1 do
          Gbuf.set spill i (inherited + 1)
        done
  end

(* Fill the [2^k] root slots starting at [off] from the subtree [n],
   leaf-pushing [inherited] (the encoded result of the longest enclosing
   bound prefix, -1 if none) into uncovered ranges. Root cells that
   still have deeper prefixes point at a fresh spill chain. *)
let rec fill_root root spill off k n inherited =
  let inherited = if n.res >= 0 then n.res else inherited in
  if k = 0 then
    if is_bleaf n then root.(off) <- inherited + 1
    else begin
      let b = Gbuf.reserve spill 256 lsr 8 in
      fill_spill spill (b lsl 8) 8 n inherited;
      root.(off) <- -(b + 1)
    end
  else begin
    let half = 1 lsl (k - 1) in
    (match n.zero with
    | Some c -> fill_root root spill off (k - 1) c inherited
    | None -> Array.fill root off half (inherited + 1));
    match n.one with
    | Some c -> fill_root root spill (off + half) (k - 1) c inherited
    | None -> Array.fill root (off + half) half (inherited + 1)
  end

let build ?(root_bits = 16) prefixes =
  if root_bits < 8 || root_bits > 24 then
    invalid_arg "Flat_lpm.build: root_bits outside [8, 24]";
  let levels = (32 - root_bits + 7) / 8 in
  let root = Array.make (1 lsl root_bits) 0 in
  let spill = Gbuf.create 1024 in
  fill_root root spill 0 root_bits (build_trie prefixes) (-1);
  let spill = Gbuf.contents spill in
  {
    d_root_bits = root_bits;
    d_pad = root_bits + (8 * levels) - 32;
    d_root = root;
    d_spill = spill;
    d_spill_base = Array.length spill;
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

(* The spill array is shared with the source table: [patch] never
   rewrites existing blocks, it only swaps in an extended copy of the
   array when a re-pushed cell needs fresh ones, so the source keeps
   answering from its own reference untouched. *)
let copy t = { t with d_root = Array.copy t.d_root }

let patch t ~budget ~resolve changed =
  let rb = t.d_root_bits in
  let shift = 32 - rb in
  let exception Refuse of refusal in
  try
    (* Cells re-pushed away from their old spill blocks orphan them
       (blocks are append-only so shared generations stay valid); once
       the orphans have doubled the build-time spill, force a recompile
       to compact it. *)
    if Array.length t.d_spill > (2 * t.d_spill_base) + 65_536 then
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
    let base_blocks = Array.length t.d_spill lsr 8 in
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
       extended spill before the root pointers into it *)
    let writes =
      List.concat_map
        (fun (lo, n) ->
          List.init n (fun k ->
              let i = lo + k in
              (i, fill (i lsl cell_bits) cell_bits)))
        merged
    in
    if Gbuf.length gb > 0 then
      t.d_spill <- Array.append t.d_spill (Gbuf.contents gb);
    List.iter (fun (i, e) -> Array.unsafe_set t.d_root i e) writes;
    Ok cells
  with Refuse r -> Error r

let find_value t addr =
  let r = lookup t addr in
  if r < 0 then -1 else r lsr 6
