(* Tests for the LPM table and the binary extension tree. *)

open Cfca_prefix
open Cfca_trie

let p = Prefix.v
let addr = Ipv4.of_string_exn
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- Lpm ----------------------------------------------------------- *)

let test_lpm_basic () =
  let t = Lpm.create () in
  check "empty" true (Lpm.is_empty t);
  Lpm.add t (p "10.0.0.0/8") 1;
  Lpm.add t (p "10.1.0.0/16") 2;
  Lpm.add t (p "0.0.0.0/0") 9;
  check_int "cardinal" 3 (Lpm.cardinal t);
  let nh a =
    match Lpm.lookup t (addr a) with Some (_, v) -> v | None -> -1
  in
  check_int "lpm /16" 2 (nh "10.1.2.3");
  check_int "lpm /8" 1 (nh "10.2.2.3");
  check_int "default" 9 (nh "11.0.0.1");
  check "exact" true (Lpm.find t (p "10.0.0.0/8") = Some 1);
  check "no exact" true (Lpm.find t (p "10.0.0.0/9") = None)

let test_lpm_replace_remove () =
  let t = Lpm.create () in
  Lpm.add t (p "10.0.0.0/8") 1;
  Lpm.add t (p "10.0.0.0/8") 5;
  check_int "replace keeps cardinal" 1 (Lpm.cardinal t);
  check "replaced" true (Lpm.find t (p "10.0.0.0/8") = Some 5);
  Lpm.remove t (p "10.0.0.0/8");
  check_int "removed" 0 (Lpm.cardinal t);
  check "lookup empty" true (Lpm.lookup t (addr "10.0.0.1") = None);
  (* removing twice is a no-op *)
  Lpm.remove t (p "10.0.0.0/8");
  check_int "still zero" 0 (Lpm.cardinal t)

let test_lpm_match_length_tie () =
  let t = Lpm.create () in
  Lpm.add t (p "128.0.0.0/1") 1;
  Lpm.add t (p "128.0.0.0/2") 2;
  Lpm.add t (p "192.0.0.0/2") 3;
  let nh a =
    match Lpm.lookup t (addr a) with Some (_, v) -> v | None -> -1
  in
  check_int "deepest of nested" 2 (nh "128.0.0.1");
  check_int "other branch" 3 (nh "192.0.0.1");
  check_int "no match" (-1) (nh "1.0.0.1")

let test_lpm_iter_order () =
  let t = Lpm.create () in
  List.iter (fun (q, v) -> Lpm.add t (p q) v)
    [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("9.0.0.0/8", 3) ];
  let order = List.map fst (Lpm.to_list t) in
  check "pre-order" true
    (order = [ p "9.0.0.0/8"; p "10.0.0.0/8"; p "10.0.0.0/16" ])

(* Reference model: association list + linear longest-match scan. *)
let prop_lpm_vs_model =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (pair
           (map2
              (fun a l -> Prefix.make (Ipv4.of_int a) l)
              (int_bound 0xFFFFFFF |> map (fun x -> x * 16))
              (int_bound 32))
           (int_range 1 9)))
  in
  QCheck.Test.make ~count:200
    ~name:"Lpm.lookup agrees with a linear-scan model"
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (q, v) -> Prefix.to_string q ^ "=" ^ string_of_int v) l))
       gen)
    (fun entries ->
      let t = Lpm.create () in
      List.iter (fun (q, v) -> Lpm.add t q v) entries;
      (* last binding wins in the model, as in Lpm.add *)
      let model a =
        List.fold_left
          (fun best (q, v) ->
            if Prefix.mem a q then
              match best with
              | Some (bq, _) when Prefix.length bq > Prefix.length q -> best
              | _ -> Some (q, v)
            else best)
          None
          (List.rev
             (List.fold_left
                (fun acc (q, v) ->
                  (q, v) :: List.filter (fun (q', _) -> not (Prefix.equal q q')) acc)
                [] entries))
      in
      let st = Random.State.make [| List.length entries |] in
      let ok = ref true in
      for _ = 1 to 50 do
        let a =
          match entries with
          | [] -> Ipv4.random st
          | _ ->
              let q, _ = List.nth entries (Random.State.int st (List.length entries)) in
              if Random.State.bool st then Prefix.random_member st q
              else Ipv4.random st
        in
        let got = Lpm.lookup t a in
        let want = model a in
        (match (got, want) with
        | None, None -> ()
        | Some (qp, qv), Some (wp, wv)
          when Prefix.equal qp wp && qv = wv -> ()
        | _ -> ok := false)
      done;
      !ok)

(* -- Bintrie ------------------------------------------------------- *)

let build routes =
  let t = Bintrie.create ~default_nh:9 in
  List.iter (fun (q, nh) -> ignore (Bintrie.add_route t (p q) nh)) routes;
  Bintrie.extend t;
  t

let paper_routes =
  (* Table 1(a) of the paper. *)
  [
    ("129.10.124.0/24", 1);
    ("129.10.124.0/27", 1);
    ("129.10.124.64/26", 1);
    ("129.10.124.192/26", 2);
  ]

let test_extension_fullness () =
  let t = build paper_routes in
  check "invariant" true (Bintrie.invariant t = Ok ());
  (* Fig. 4(a): below the /24 the extension yields 5 leaves. *)
  let leaves_below_24 = ref 0 in
  Bintrie.iter_leaves
    (fun n ->
      if Prefix.contains (p "129.10.124.0/24") (Bintrie.Node.prefix t n) then
        incr leaves_below_24)
    t;
  check_int "five leaves under /24" 5 !leaves_below_24

let test_extension_inheritance () =
  let t = build paper_routes in
  (* G = 129.10.124.32/27 is generated FAKE and inherits B/A's next-hop 1;
     I = 129.10.124.128/26 inherits A's next-hop 1. *)
  (let n = Bintrie.find t (p "129.10.124.32/27") in
   if Bintrie.is_nil n then Alcotest.fail "node G missing"
   else begin
     check "G fake" true (Bintrie.Node.kind t n = Bintrie.Fake);
     check_int "G inherits 1" 1 (Bintrie.Node.original t n)
   end);
  (let n = Bintrie.find t (p "129.10.124.128/26") in
   if Bintrie.is_nil n then Alcotest.fail "node I missing"
   else begin
     check "I fake" true (Bintrie.Node.kind t n = Bintrie.Fake);
     check_int "I inherits 1" 1 (Bintrie.Node.original t n)
   end);
  (* outside the /24 everything inherits the default 9 *)
  let leaf = Bintrie.descend_to_leaf t (addr "8.8.8.8") in
  check_int "outside inherits default" 9 (Bintrie.Node.original t leaf)

let test_descend_to_leaf () =
  let t = build paper_routes in
  let leaf = Bintrie.descend_to_leaf t (addr "129.10.124.193") in
  check "leaf is D" true
    (Prefix.equal (Bintrie.Node.prefix t leaf) (p "129.10.124.192/26"));
  let leaf2 = Bintrie.descend_to_leaf t (addr "129.10.124.1") in
  check "leaf is B" true
    (Prefix.equal (Bintrie.Node.prefix t leaf2) (p "129.10.124.0/27"))

let test_fragment () =
  let t = build paper_routes in
  let before = Bintrie.node_count t in
  (* fragment I (a /26 FAKE leaf) down to a /28 *)
  let target, anchor, created =
    Bintrie.fragment t (p "129.10.124.144/28") Bintrie.nil
  in
  check "anchor is I" true
    (Prefix.equal (Bintrie.Node.prefix t anchor) (p "129.10.124.128/26"));
  check "target prefix" true
    (Prefix.equal (Bintrie.Node.prefix t target) (p "129.10.124.144/28"));
  check_int "two nodes per level" (before + 4) (Bintrie.node_count t);
  check "still full" true (Bintrie.invariant t = Ok ());
  List.iter
    (fun n ->
      check "created are FAKE" true (Bintrie.Node.kind t n = Bintrie.Fake);
      check_int "created inherit anchor" 1 (Bintrie.Node.original t n))
    created

let test_fragment_rejects_existing () =
  let t = build paper_routes in
  check "existing prefix rejected" true
    (match Bintrie.fragment t (p "129.10.124.192/26") Bintrie.nil with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_compact () =
  let t = build paper_routes in
  let target, _, _ = Bintrie.fragment t (p "129.10.124.144/28") Bintrie.nil in
  let before = Bintrie.node_count t in
  (* all created nodes are FAKE NON_FIB leaves or internals; compacting
     from the target removes the whole fragmentation again *)
  let top = Bintrie.compact_upward t target in
  check "compacted back to anchor" true
    (Prefix.equal (Bintrie.Node.prefix t top) (p "129.10.124.128/26"));
  check_int "nodes removed" (before - 4) (Bintrie.node_count t);
  check "anchor is leaf again" true (Bintrie.is_leaf t top);
  check "invariant" true (Bintrie.invariant t = Ok ())

let test_compact_stops_at_real () =
  let t = build paper_routes in
  (* B and G are sibling leaves but B is REAL: no compaction. *)
  let g = Bintrie.find t (p "129.10.124.32/27") in
  if Bintrie.is_nil g then Alcotest.fail "G missing"
  else
    let top = Bintrie.compact_upward t g in
    check "no compaction past REAL sibling" true
      (Prefix.equal (Bintrie.Node.prefix t top) (p "129.10.124.32/27"))

let test_add_route_updates_root () =
  let t = Bintrie.create ~default_nh:9 in
  let n = Bintrie.add_route t Prefix.default 4 in
  check "root returned" true (Bintrie.Node.equal n (Bintrie.root t));
  check_int "root nh updated" 4 (Bintrie.Node.original t (Bintrie.root t));
  check_int "single node" 1 (Bintrie.node_count t)

(* -- arena slot recycling ------------------------------------------- *)

(* Withdck: fragment+compact churn must recycle slots (capacity stays
   put) and kill outstanding handles to the freed nodes. *)
let test_arena_slot_reuse () =
  let t = build paper_routes in
  let cap_before = Bintrie.capacity t and n0 = Bintrie.node_count t in
  let target, _, created =
    Bintrie.fragment t (p "129.10.124.144/28") Bintrie.nil
  in
  check "created alive" true
    (List.for_all (fun n -> Bintrie.Node.alive t n) created);
  ignore (Bintrie.compact_upward t target);
  check_int "node count restored" n0 (Bintrie.node_count t);
  check "stale handles are dead" false
    (List.exists (fun n -> Bintrie.Node.alive t n) (target :: created));
  (* the next fragmentation reuses the freed slots: no growth *)
  let target2, _, _ =
    Bintrie.fragment t (p "129.10.124.144/28") Bintrie.nil
  in
  check "recycled node alive" true (Bintrie.Node.alive t target2);
  check "old handle still dead" false (Bintrie.Node.alive t target);
  check_int "capacity unchanged" cap_before (Bintrie.capacity t);
  check "accounting" true
    (Bintrie.live_slots t + Bintrie.free_slots t = Bintrie.capacity t);
  check "invariant" true (Bintrie.invariant t = Ok ())

(* The update-path allocation gate: churn on a warmed tree allocates
   O(churn), never O(tree). A backend that copied or re-boxed node state
   per update would blow this bound by orders of magnitude. *)
let test_update_alloc_gate () =
  let t = Bintrie.create ~default_nh:9 in
  List.iter (fun (q, nh) -> ignore (Bintrie.add_route t (p q) nh)) paper_routes;
  (* several thousand disjoint /24s make the tree large enough that an
     O(tree) update path would be unmistakable *)
  for i = 0 to 2_999 do
    ignore
      (Bintrie.add_route t
         (Prefix.make (Ipv4.of_octets 10 (i lsr 8) (i land 255) 0) 24)
         (1 + (i mod 8)))
  done;
  Bintrie.extend t;
  let cycle () =
    let target, _, _ =
      Bintrie.fragment t (p "129.10.124.144/28") Bintrie.nil
    in
    ignore (Bintrie.compact_upward t target)
  in
  cycle ();
  (* warmed: slots recycled, arrays at final size *)
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let words = Gc.minor_words () -. before in
  (* each cycle allocates only the constant-size [created] list and
     fragment tuple; with ~12K nodes an O(tree) path would cost
     millions of words *)
  if words > 200_000.0 then
    Alcotest.failf
      "update churn allocated %.0f minor words over 1000 cycles on a %d-node \
       tree"
      words (Bintrie.node_count t)

let prop_extension_invariant =
  let gen_routes =
    QCheck.Gen.(
      list_size (int_bound 80)
        (pair
           (map2
              (fun a l -> Prefix.make (Ipv4.of_int a) l)
              (int_bound 0xFFFFF |> map (fun x -> x * 4096))
              (int_range 1 32))
           (int_range 1 8)))
  in
  QCheck.Test.make ~count:200 ~name:"extension produces a full tree"
    (QCheck.make
       ~print:(fun l ->
         String.concat ";"
           (List.map (fun (q, v) -> Prefix.to_string q ^ "=" ^ string_of_int v) l))
       gen_routes)
    (fun routes ->
      let t = Bintrie.create ~default_nh:9 in
      List.iter (fun (q, nh) -> ignore (Bintrie.add_route t q nh)) routes;
      Bintrie.extend t;
      Bintrie.invariant t = Ok ())

let prop_leaves_cover_address_space =
  let gen_routes =
    QCheck.Gen.(
      list_size (int_bound 40)
        (pair
           (map2
              (fun a l -> Prefix.make (Ipv4.of_int a) l)
              (int_bound 0xFFFFF |> map (fun x -> x * 4096))
              (int_range 1 28))
           (int_range 1 8)))
  in
  QCheck.Test.make ~count:100
    ~name:"every address descends to exactly one leaf that covers it"
    (QCheck.make ~print:(fun _ -> "<routes>") gen_routes)
    (fun routes ->
      let t = Bintrie.create ~default_nh:9 in
      List.iter (fun (q, nh) -> ignore (Bintrie.add_route t q nh)) routes;
      Bintrie.extend t;
      let st = Random.State.make [| List.length routes; 42 |] in
      let ok = ref true in
      for _ = 1 to 100 do
        let a = Ipv4.random st in
        let leaf = Bintrie.descend_to_leaf t a in
        if not (Prefix.mem a (Bintrie.Node.prefix t leaf)) then ok := false
      done;
      !ok)

(* -- Flat_lpm ------------------------------------------------------- *)

let flat_strides =
  [
    ("dir24", 24);
    ("dir16", 16);
    ("dir13", 13);  (* root stride not a multiple of 8: pad path *)
    ("dir8", 8);  (* three spill levels *)
  ]

let test_flat_basic () =
  let routes =
    [
      (p "0.0.0.0/0", 9);
      (p "10.0.0.0/8", 1);
      (p "10.1.0.0/16", 2);
      (p "10.1.2.3/32", 3);
      (p "192.168.0.0/24", 4);
    ]
  in
  List.iter
    (fun (name, root_bits) ->
      let t = Flat_lpm.build ~root_bits routes in
      let got a = Flat_lpm.find_value t (addr a) in
      check_int (name ^ " /32") 3 (got "10.1.2.3");
      check_int (name ^ " /16") 2 (got "10.1.2.4");
      check_int (name ^ " /8") 1 (got "10.2.0.0");
      check_int (name ^ " /24") 4 (got "192.168.0.77");
      check_int (name ^ " default") 9 (got "8.8.8.8");
      let r = Flat_lpm.lookup t (addr "10.1.2.3") in
      check_int (name ^ " matched length") 32 (Flat_lpm.result_length r);
      check_int (name ^ " value") 3 (Flat_lpm.result_value r);
      let r0 = Flat_lpm.lookup t (addr "8.8.8.8") in
      check_int (name ^ " default length") 0 (Flat_lpm.result_length r0))
    flat_strides;
  (* empty table: everything misses *)
  let e = Flat_lpm.build [] in
  check_int "empty misses" Flat_lpm.miss (Flat_lpm.lookup e (addr "1.2.3.4"))

(* One probe list for a route set: every covering-range boundary (the
   addresses where the winning prefix changes), near-boundary spill, a
   couple of members, plus uniform noise. *)
let probes_for routes st =
  let near =
    List.concat_map
      (fun (q, _) ->
        let net = Prefix.network q and last = Prefix.last_address q in
        [
          net;
          last;
          Ipv4.succ last;
          Ipv4.of_int (Ipv4.to_int net - 1);
          Prefix.random_member st q;
          Prefix.random_member st q;
        ])
      routes
  in
  near @ List.init 20 (fun _ -> Ipv4.random st)

let agrees_with_lpm lpm flat a =
  let r = Flat_lpm.lookup flat a in
  match Lpm.lookup lpm a with
  | Some (q, v) ->
      r >= 0
      && Flat_lpm.result_value r = v
      && Flat_lpm.result_length r = Prefix.length q
  | None -> r < 0

let gen_flat_routes =
  QCheck.Gen.(
    let len = frequency [ (1, return 0); (2, return 32); (6, int_range 1 31) ] in
    let addr32 =
      map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF)
    in
    list_size (int_bound 50)
      (pair (map2 (fun a l -> Prefix.make (Ipv4.of_int a) l) addr32 len)
         (int_range 0 1000)))

let print_flat_routes l =
  String.concat ";"
    (List.map (fun (q, v) -> Prefix.to_string q ^ "=" ^ string_of_int v) l)

(* Keep only mutually disjoint prefixes (first binding wins) — the FIB
   snapshot case the issue names; nested sets get their own property. *)
let disjoint routes =
  List.rev
    (List.fold_left
       (fun acc (q, v) ->
         if List.exists (fun (q', _) -> Prefix.overlaps q q') acc then acc
         else (q, v) :: acc)
       [] routes)

let flat_agreement_prop routes =
  let lpm = Lpm.create () in
  List.iter (fun (q, v) -> Lpm.add lpm q v) routes;
  let st = Random.State.make [| List.length routes; 0xF1A7 |] in
  let probes = probes_for routes st in
  List.for_all
    (fun (_, root_bits) ->
      let flat = Flat_lpm.build ~root_bits routes in
      List.for_all (agrees_with_lpm lpm flat) probes)
    (List.filter (fun (_, rb) -> rb <= 16) flat_strides)

let prop_flat_vs_lpm_disjoint =
  QCheck.Test.make ~count:150
    ~name:"Flat_lpm agrees with Lpm on disjoint sets at boundary addresses"
    (QCheck.make ~print:print_flat_routes gen_flat_routes)
    (fun routes -> flat_agreement_prop (disjoint routes))

let prop_flat_vs_lpm_nested =
  QCheck.Test.make ~count:150
    ~name:"Flat_lpm agrees with Lpm on nested sets (leaf pushing)"
    (QCheck.make ~print:print_flat_routes gen_flat_routes)
    flat_agreement_prop

(* Nested lists with repeated prefixes: each route gains a prefix
   inside it (sometimes itself, rebound), and every third entry is
   bound again later in the list. *)
let gen_nested_dup_routes =
  QCheck.Gen.(
    map2
      (fun l seed ->
        let st = Random.State.make [| seed |] in
        let inner =
          List.map
            (fun (q, v) ->
              let len =
                Prefix.length q + Random.State.int st (33 - Prefix.length q)
              in
              (Prefix.make (Prefix.random_member st q) len, v + 1))
            l
        in
        let l = l @ inner in
        l
        @ List.map
            (fun (q, v) -> (q, v + 2))
            (List.filteri (fun i _ -> i mod 3 = 0) l))
      gen_flat_routes nat)

let by_prefix l = List.stable_sort (fun (a, _) (b, _) -> Prefix.compare a b) l

let prop_flat_order_independent =
  QCheck.Test.make ~count:12
    ~name:"build of any order = build of the address-ordered list"
    (QCheck.make ~print:print_flat_routes gen_nested_dup_routes)
    (fun routes ->
      let ordered = by_prefix routes in
      List.for_all
        (fun (_, root_bits) ->
          Flat_lpm.layout (Flat_lpm.build ~root_bits routes)
          = Flat_lpm.layout (Flat_lpm.build ~root_bits ordered))
        flat_strides)

(* Seeded nested sets for the layout pins: /0, a /32, a prefix nested
   inside each outer one, and a quarter of the entries rebound later in
   the list. *)
let pinned_routes seed =
  let st = Random.State.make [| seed; 0x1A70 |] in
  let outer =
    List.init 48 (fun i -> (Prefix.random st ~min_len:1 ~max_len:24 (), i))
  in
  let inner =
    List.map
      (fun (q, v) ->
        let len =
          Prefix.length q + 1 + Random.State.int st (32 - Prefix.length q)
        in
        (Prefix.make (Prefix.random_member st q) len, v + 100))
      outer
  in
  let rebound =
    List.filteri (fun i _ -> i mod 4 = 0) (outer @ inner)
    |> List.map (fun (q, v) -> (q, v + 200))
  in
  ((Prefix.default, 1) :: (Prefix.make (Ipv4.random st) 32, 2) :: outer)
  @ inner @ rebound

(* The hex digest of each marshalled table layout, at strides 8, 13,
   16 and 24, pinned from the earlier compiler, which leaf-pushed a
   binary trie of the list. Equal digests mean the same root cells, the
   same spill blocks in the same order and the same spill base, so a
   layout change shows here even while every lookup still agrees. *)
let test_flat_layout_pinned () =
  List.iter
    (fun (name, routes, digests) ->
      List.iter2
        (fun root_bits want ->
          let t = Flat_lpm.build ~root_bits routes in
          Alcotest.(check string)
            (Printf.sprintf "%s /%d" name root_bits)
            want
            (Digest.to_hex
               (Digest.string
                  (Marshal.to_string (Flat_lpm.layout t) [ Marshal.No_sharing ]))))
        [ 8; 13; 16; 24 ] digests)
    [
      ( "seed 1",
        pinned_routes 1,
        [
          "7d751e400a684f2a2449899761e01ea3";
          "32163238c821c9f57916e0c956a26b1c";
          "023cf3169a1388171718401b67d292b3";
          "b301890ec82f9101ab4190e353d549f7";
        ] );
      ( "seed 2",
        pinned_routes 2,
        [
          "daddb17d68da8ba73bf91b37f665a409";
          "4ab72cf1af1d4d76162313b683f997d7";
          "06849340eca500608fa5ff5b24f1cbb7";
          "5e2cb904d28519ed9c71cfc824a2d24d";
        ] );
      ( "seed 3, address-ordered",
        by_prefix (pinned_routes 3),
        [
          "92decb72c32d4e3763e8f8a65fa174cc";
          "5c64334b3128a69b2d52c4054bd87327";
          "360cab84572d0007fddf0f750133f704";
          "9c13c51c1a5e41adc2c368bfd725f41d";
        ] );
    ]

(* Copies share one spill array, and [copy ~into] reuses a dead root.
   Two copies of one source patched in turn must both keep their
   blocks: the first appends in place past the source's words, the
   second into a new array. A lent root must come out equal to a plain
   copy's, whether it is the copy's unmodified source (only the patched
   runs are written) or not (the whole root is). *)
let test_flat_shared_spill_and_lent_roots () =
  let st = Random.State.make [| 0x5B11 |] in
  let root_bits = 16 in
  (* The tables hold partitions of the address space, covers as
     [patch]'s resolver requires. [carve l n v0] carves [n] random
     prefixes of /8 to /32 out of [l], splitting the prefix holding a
     random address down to the new length; each sibling split off
     keeps the old value. *)
  let rec carve l n v0 =
    if n = 0 then l
    else begin
      let a = Ipv4.random st and len = 8 + Random.State.int st 25 in
      let q, old = List.find (fun (q, _) -> Prefix.mem a q) l in
      let rec split q acc =
        if Prefix.length q >= len then (q, v0) :: acc
        else
          let bit = Ipv4.bit a (Prefix.length q) in
          split (Prefix.child q bit) ((Prefix.child q (not bit), old) :: acc)
      in
      carve
        (split q (List.filter (fun (q', _) -> not (Prefix.equal q q')) l))
        (n - 1) (v0 + 1)
    end
  in
  let resolve lpm a =
    match Lpm.lookup lpm a with
    | None -> Flat_lpm.miss
    | Some (q, v) -> Flat_lpm.encode ~value:v ~length:(Prefix.length q)
  in
  (* patch [t], the table of [l], into the table of [l'] *)
  let patch t l l' =
    let changed =
      List.filter_map
        (fun (q, v) -> if List.mem (q, v) l then None else Some q)
        l'
    in
    match
      Flat_lpm.patch t ~budget:65_536 ~resolve:(resolve (Lpm.of_list l'))
        changed
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "patch refused"
  in
  let answers name t l =
    let lpm = Lpm.of_list l in
    List.iter
      (fun a ->
        if not (agrees_with_lpm lpm t a) then
          Alcotest.failf "%s: wrong answer at %s" name (Ipv4.to_string a))
      (probes_for l st)
  in
  (* a patched source: its spill array has room past its words *)
  let l0 = carve [ (Prefix.default, 0) ] 300 1 in
  let src = Flat_lpm.copy (Flat_lpm.build ~root_bits l0) in
  let ls = carve l0 4 1000 in
  patch src l0 ls;
  let a = Flat_lpm.copy src and b = Flat_lpm.copy src in
  let la = carve ls 40 2000 and lb = carve ls 40 3000 in
  patch a ls la;
  patch b ls lb;
  answers "source" src ls;
  answers "first copy" a la;
  answers "second copy" b lb;
  let plain = Flat_lpm.layout (Flat_lpm.copy a) in
  let a1 = Flat_lpm.copy ~into:src a in
  check "the source's lent root = a plain copy" true
    (Flat_lpm.layout a1 = plain);
  let a2 = Flat_lpm.copy ~into:b a1 in
  check "another lent root = a plain copy" true (Flat_lpm.layout a2 = plain);
  (* a source patched after the copy no longer matches it *)
  let c = Flat_lpm.copy a2 in
  let l2 = carve la 20 4000 in
  patch a2 la l2;
  answers "patched after the copy" a2 l2;
  let c1 = Flat_lpm.copy ~into:a2 c in
  check "a modified source's lent root = a plain copy" true
    (Flat_lpm.layout c1 = plain);
  answers "copy on a lent root" c1 la

(* The hot-path contract: steady-state lookups allocate nothing. *)
let test_flat_alloc_free () =
  let st = Random.State.make [| 7; 0xA110C |] in
  let routes = List.init 500 (fun i -> (Prefix.random st (), i)) in
  let flat = Flat_lpm.build routes in
  let lpm = Lpm.of_list routes in
  let addrs = Array.init 1024 (fun _ -> Ipv4.random st) in
  let minor_words_of f =
    (* warm up so any one-time allocation is done *)
    f addrs.(0);
    let before = Gc.minor_words () in
    for i = 0 to 99_999 do
      f addrs.(i land 1023)
    done;
    Gc.minor_words () -. before
  in
  let assert_alloc_free name f =
    let words = minor_words_of f in
    if words > 1000.0 then
      Alcotest.failf "%s allocated %.0f minor words over 100K lookups" name
        words
  in
  assert_alloc_free "Flat_lpm" (fun a -> ignore (Flat_lpm.lookup flat a));
  assert_alloc_free "Lpm.lookup_value" (fun a ->
      ignore (Lpm.lookup_value lpm a))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trie"
    [
      ( "lpm",
        [
          Alcotest.test_case "basic" `Quick test_lpm_basic;
          Alcotest.test_case "replace/remove" `Quick test_lpm_replace_remove;
          Alcotest.test_case "nested" `Quick test_lpm_match_length_tie;
          Alcotest.test_case "iter order" `Quick test_lpm_iter_order;
        ] );
      ("lpm-properties", qt [ prop_lpm_vs_model ]);
      ( "bintrie",
        [
          Alcotest.test_case "extension fullness" `Quick test_extension_fullness;
          Alcotest.test_case "extension inheritance" `Quick
            test_extension_inheritance;
          Alcotest.test_case "descend to leaf" `Quick test_descend_to_leaf;
          Alcotest.test_case "fragment" `Quick test_fragment;
          Alcotest.test_case "fragment rejects existing" `Quick
            test_fragment_rejects_existing;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "compact stops at REAL" `Quick
            test_compact_stops_at_real;
          Alcotest.test_case "default route" `Quick test_add_route_updates_root;
          Alcotest.test_case "arena slot reuse" `Quick test_arena_slot_reuse;
          Alcotest.test_case "update allocation gate" `Quick
            test_update_alloc_gate;
        ] );
      ( "bintrie-properties",
        qt [ prop_extension_invariant; prop_leaves_cover_address_space ] );
      ( "flat-lpm",
        [
          Alcotest.test_case "basic (all root strides)" `Quick test_flat_basic;
          Alcotest.test_case "allocation-free lookups" `Quick
            test_flat_alloc_free;
          Alcotest.test_case "layout pinned by digest" `Quick
            test_flat_layout_pinned;
          Alcotest.test_case "shared spill and lent roots" `Quick
            test_flat_shared_spill_and_lent_roots;
        ] );
      ( "flat-lpm-properties",
        qt
          [
            prop_flat_vs_lpm_disjoint;
            prop_flat_vs_lpm_nested;
            prop_flat_order_independent;
          ] );
    ]
