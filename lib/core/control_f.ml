(* CFCA's control plane, generic over the address family AND the trie
   backend: the FIB operation type, the aggregation algorithms (paper
   Algorithms 1-5) and the Route Manager. The documented IPv4
   instantiations live in {!Fib_op}, {!Aggregation} and
   {!Route_manager}; IPv6 gets the same control plane via
   [Make (Cfca_prefix.Family.V6)].

   [Make_over] abstracts the trie implementation so the exact same
   aggregation algebra runs on the arena backend ({!Cfca_trie.Bintrie_f},
   the default through [Make]) and on the record reference backend
   ({!Cfca_trie.Bintrie_ref}) — which is how [lib/check] and the update
   bench compare the two differentially. All node state access goes
   through [T.Node] accessors; sinks receive the tree alongside the
   operation ([sink tree op]) since a node handle is meaningless without
   its tree. *)

open Cfca_prefix

module Make_over
    (P : Family.PREFIX)
    (T : Cfca_trie.Bintrie_intf.S
           with type prefix = P.t
            and type addr = P.Addr.t) =
struct
  module Bintrie = T

  module Fib_op = struct
    type t =
      | Install of T.node * T.table
      | Remove of T.node * T.table
      | Update of T.node * T.table * Nexthop.t

    type sink = T.t -> t -> unit

    let null_sink (_ : T.t) (_ : t) = ()

    let node = function Install (n, _) | Remove (n, _) | Update (n, _, _) -> n

    let table = function
      | Install (_, tbl) | Remove (_, tbl) | Update (_, tbl, _) -> tbl

    let table_name : T.table -> string = function
      | T.No_table -> "none"
      | T.L1 -> "L1"
      | T.L2 -> "L2"
      | T.Dram -> "DRAM"

    let pp tr ppf op =
      match op with
      | Install (n, tbl) ->
          Format.fprintf ppf "install %s -> %s @@ %s"
            (P.to_string (T.Node.prefix tr n))
            (Nexthop.to_string (T.Node.installed_nh tr n))
            (table_name tbl)
      | Remove (n, tbl) ->
          Format.fprintf ppf "remove %s @@ %s"
            (P.to_string (T.Node.prefix tr n))
            (table_name tbl)
      | Update (n, tbl, nh) ->
          Format.fprintf ppf "update %s -> %s @@ %s"
            (P.to_string (T.Node.prefix tr n))
            (Nexthop.to_string nh) (table_name tbl)

    let counting_sink () =
      let count = ref 0 in
      ((fun _ _ -> incr count), fun () -> !count)

    module PH = Hashtbl.Make (struct
      type t = P.t

      let equal = P.equal

      let hash = P.hash
    end)

    let changes_sink () =
      let seen = PH.create 64 in
      let changed = ref [] in
      ( (fun tr op ->
          let p = T.Node.prefix tr (node op) in
          if not (PH.mem seen p) then begin
            PH.add seen p ();
            changed := p :: !changed
          end),
        fun () ->
          let l = !changed in
          changed := [];
          PH.reset seen;
          l )
  end

  module Aggregation = struct
    open T

    let set_selected_next_hop tr n =
      let l = child tr n false and r = child tr n true in
      if is_nil l && is_nil r then Node.set_selected tr n (Node.original tr n)
      else begin
        (* The tree is full everywhere the aggregation algorithms run. *)
        assert ((not (is_nil l)) && not (is_nil r));
        if Nexthop.equal (Node.selected tr l) (Node.selected tr r) then
          Node.set_selected tr n (Node.selected tr l)
        else Node.set_selected tr n Nexthop.none
      end

    (* Take [c] out of the FIB if present. *)
    let demote ~sink tr c =
      if Node.status tr c = In_fib then begin
        let tbl = Node.table tr c in
        Node.set_status tr c Non_fib;
        Node.set_table tr c No_table;
        Node.set_installed_nh tr c Nexthop.none;
        sink tr (Fib_op.Remove (c, tbl))
      end

    (* Ensure [c] (a point of aggregation) is in the FIB with its selected
       next-hop; fresh installs go to DRAM, existing entries get an in-place
       next-hop rewrite only when the pushed value actually changes. *)
    let promote_or_refresh ~sink tr c =
      if Node.status tr c = Non_fib then begin
        Node.set_status tr c In_fib;
        Node.set_table tr c Dram;
        Node.set_installed_nh tr c (Node.selected tr c);
        sink tr (Fib_op.Install (c, Dram))
      end
      else if not (Nexthop.equal (Node.installed_nh tr c) (Node.selected tr c))
      then begin
        Node.set_installed_nh tr c (Node.selected tr c);
        sink tr (Fib_op.Update (c, Node.table tr c, Node.selected tr c))
      end

    let reconcile_child ~sink tr c =
      if Nexthop.is_none (Node.selected tr c) then demote ~sink tr c
      else promote_or_refresh ~sink tr c

    let set_fib_status ~sink tr n =
      let l = child tr n false and r = child tr n true in
      if is_nil l && is_nil r then ()
      else begin
        assert ((not (is_nil l)) && not (is_nil r));
        if not (Nexthop.is_none (Node.selected tr n)) then begin
          (* n is (part of) a point of aggregation: its children must not
             shadow it in the data plane. *)
          demote ~sink tr l;
          demote ~sink tr r
        end
        else begin
          reconcile_child ~sink tr l;
          reconcile_child ~sink tr r
        end
      end

    let aggr_init ~sink tr n =
      T.iter_post tr
        (fun n ->
          set_selected_next_hop tr n;
          set_fib_status ~sink tr n)
        n

    let rec post_order_update ~sink tr n nh =
      let l = child tr n false in
      if (not (is_nil l)) && Node.kind tr l = Fake then begin
        Node.set_original tr l nh;
        post_order_update ~sink tr l nh
      end;
      let r = child tr n true in
      if (not (is_nil r)) && Node.kind tr r = Fake then begin
        Node.set_original tr r nh;
        post_order_update ~sink tr r nh
      end;
      set_selected_next_hop tr n;
      set_fib_status ~sink tr n

    let bottom_up_update ~sink tr n =
      let rec go n =
        let p = Node.parent tr n in
        if not (is_nil p) then begin
          let old_selected = Node.selected tr p in
          set_selected_next_hop tr p;
          set_fib_status ~sink tr p;
          if not (Nexthop.equal old_selected (Node.selected tr p)) then go p
        end
      in
      go n

    let fix_root ~sink tr =
      let root = T.root tr in
      if Nexthop.is_none (Node.selected tr root) then demote ~sink tr root
      else promote_or_refresh ~sink tr root
  end

  module Route_manager = struct
    open T

    type t = {
      mutable tree : T.t;
      default_nh : Nexthop.t;
      mutable sink : Fib_op.sink;
      mutable loaded : bool;
    }

    let create ?(sink = Fib_op.null_sink) ~default_nh () =
      { tree = T.create ~default_nh; default_nh; sink; loaded = false }

    let set_sink t sink = t.sink <- sink

    let tree t = t.tree

    let default_nh t = t.default_nh

    let load t routes =
      if t.loaded then invalid_arg "Route_manager.load: already loaded";
      t.loaded <- true;
      Seq.iter (fun (p, nh) -> ignore (T.add_route t.tree p nh)) routes;
      T.extend t.tree;
      Aggregation.aggr_init ~sink:t.sink t.tree (T.root t.tree);
      Aggregation.fix_root ~sink:t.sink t.tree

    (* Watchdog recovery: abandon the (possibly corrupted) tree and
       reload from an authoritative route set. The old tree's nodes
       are garbage after this; any data plane that cached them must be
       cleared first (Pipeline.clear), and the fresh installs flow
       through the current sink like an initial load. *)
    let rebuild t routes =
      t.tree <- T.create ~default_nh:t.default_nh;
      t.loaded <- false;
      load t routes

    (* Next-hop change of the default route: the root stays REAL, the new
       value propagates through all FAKE-inheritance chains. *)
    let update_root t nh =
      let tr = t.tree in
      let root = T.root tr in
      if not (Nexthop.equal (Node.original tr root) nh) then begin
        Node.set_original tr root nh;
        Aggregation.post_order_update ~sink:t.sink tr root nh;
        Aggregation.fix_root ~sink:t.sink tr
      end

    let announce t p nh =
      if Nexthop.is_none nh then
        invalid_arg "Route_manager.announce: null next-hop";
      if P.length p = 0 then update_root t nh
      else begin
        let tr = t.tree in
        let n = T.find tr p in
        if not (is_nil n) then begin
          let was_real = Node.kind tr n = Real in
          Node.set_kind tr n Real;
          if not (was_real && Nexthop.equal (Node.original tr n) nh) then
            if Nexthop.equal (Node.original tr n) nh then
              (* FAKE -> REAL flip with an identical next-hop: the
                 forwarding behaviour and the aggregated state are both
                 unchanged. *)
              ()
            else begin
              let old_selected = Node.selected tr n in
              Node.set_original tr n nh;
              Aggregation.post_order_update ~sink:t.sink tr n nh;
              if not (Nexthop.equal old_selected (Node.selected tr n)) then
                Aggregation.bottom_up_update ~sink:t.sink tr n;
              Aggregation.fix_root ~sink:t.sink tr
            end
        end
        else begin
          let target, anchor, _created = T.fragment tr p nil in
          Node.set_kind tr target Real;
          Node.set_original tr target nh;
          let old_selected = Node.selected tr anchor in
          Aggregation.aggr_init ~sink:t.sink tr anchor;
          if not (Nexthop.equal old_selected (Node.selected tr anchor)) then
            Aggregation.bottom_up_update ~sink:t.sink tr anchor;
          Aggregation.fix_root ~sink:t.sink tr
        end
      end

    let withdraw t p =
      if P.length p = 0 then update_root t t.default_nh
      else begin
        let tr = t.tree in
        let n = T.find tr p in
        if (not (is_nil n)) && Node.kind tr n = Real then begin
          let parent = Node.parent tr n in
          assert (not (is_nil parent));
          let inherited = Node.original tr parent in
          Node.set_kind tr n Fake;
          let old_selected = Node.selected tr n in
          Node.set_original tr n inherited;
          Aggregation.post_order_update ~sink:t.sink tr n inherited;
          if not (Nexthop.equal old_selected (Node.selected tr n)) then
            Aggregation.bottom_up_update ~sink:t.sink tr n;
          ignore (T.compact_upward tr n);
          Aggregation.fix_root ~sink:t.sink tr
        end
      end

    type update = Announce of P.t * Nexthop.t | Withdraw of P.t

    let apply t = function
      | Announce (p, nh) -> announce t p nh
      | Withdraw p -> withdraw t p

    let lookup t addr =
      let n = T.lookup_in_fib t.tree addr in
      if is_nil n then t.default_nh else Node.installed_nh t.tree n

    let fib_size t = T.in_fib_count t.tree

    let route_count t =
      T.fold_nodes
        (fun acc n -> if Node.kind t.tree n = Real then acc + 1 else acc)
        0 t.tree

    let node_count t = T.node_count t.tree

    let entries t =
      List.rev
        (T.fold_nodes
           (fun acc n ->
             if Node.status t.tree n = In_fib then
               (Node.prefix t.tree n, Node.installed_nh t.tree n) :: acc
             else acc)
           [] t.tree)

    let verify t =
      let tr = t.tree in
      match T.invariant tr with
      | Error _ as e -> e
      | Ok () ->
          let exception Violation of string in
          let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
          let rec check n in_fib_above =
            if Node.status tr n = In_fib then begin
              if in_fib_above then
                fail "overlapping IN_FIB entries at %s"
                  (P.to_string (Node.prefix tr n));
              if Nexthop.is_none (Node.selected tr n) then
                fail "IN_FIB node %s has no selected next-hop"
                  (P.to_string (Node.prefix tr n));
              if
                not
                  (Nexthop.equal (Node.installed_nh tr n) (Node.selected tr n))
              then
                fail "installed next-hop of %s (%s) differs from selected (%s)"
                  (P.to_string (Node.prefix tr n))
                  (Nexthop.to_string (Node.installed_nh tr n))
                  (Nexthop.to_string (Node.selected tr n))
            end
            else if not (Nexthop.equal (Node.installed_nh tr n) Nexthop.none)
            then
              fail "NON_FIB node %s has a residual installed next-hop"
                (P.to_string (Node.prefix tr n));
            let covered = in_fib_above || Node.status tr n = In_fib in
            let l = child tr n false and r = child tr n true in
            if is_nil l && is_nil r then begin
              if not (Nexthop.equal (Node.selected tr n) (Node.original tr n))
              then
                fail "leaf %s: selected %s <> original %s"
                  (P.to_string (Node.prefix tr n))
                  (Nexthop.to_string (Node.selected tr n))
                  (Nexthop.to_string (Node.original tr n));
              if not covered then
                fail "leaf %s is not covered by any IN_FIB entry"
                  (P.to_string (Node.prefix tr n))
            end
            else if (not (is_nil l)) && not (is_nil r) then begin
              let expected =
                if Nexthop.equal (Node.selected tr l) (Node.selected tr r) then
                  Node.selected tr l
                else Nexthop.none
              in
              if not (Nexthop.equal (Node.selected tr n) expected) then
                fail "internal %s: selected %s, children give %s"
                  (P.to_string (Node.prefix tr n))
                  (Nexthop.to_string (Node.selected tr n))
                  (Nexthop.to_string expected);
              check l covered;
              check r covered
            end
            else fail "non-full node %s" (P.to_string (Node.prefix tr n))
          in
          (try
             check (T.root tr) false;
             Ok ()
           with Violation msg -> Error msg)
  end
end

module Make (P : Family.PREFIX) =
  Make_over (P) (Cfca_trie.Bintrie_f.Make (P))
