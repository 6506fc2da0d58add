(* Durability subsystem tests (lib/durability):

   - journal codec: qcheck encode/decode round-trip over random update
     streams, and truncate-at-every-byte — every cut yields a clean
     parse or a typed report, never an exception;
   - checkpoint codec: round-trip, and flip-every-byte — every
     single-byte corruption yields a typed [Error], never an exception
     and never a silently-wrong checkpoint;
   - store lifecycle on disk: arm / append / checkpoint / recover from
     the directory, with the recovered route set matching an
     independent evaluator;
   - non-perturbation: attaching a journal to a scenario-pack replay
     changes neither the event-stream digest nor the deterministic
     score (golden engine totals);
   - watchdog tiered recovery mid-[bgpstorm]: the live tree is
     corrupted at a phase mark, the run must complete with a recovery
     recorded and the pack's digest and score still
     baseline-conformant. *)

open Cfca_prefix
open Cfca_bgp
open Cfca_durability
open Cfca_scenario
module Errors = Cfca_resilience.Errors

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let pfx s = Prefix.v s

let nh i = Nexthop.of_int i

(* -- generators ------------------------------------------------------ *)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun bits len -> Prefix.make (Ipv4.of_int bits) len)
      (int_bound 0xFFFFFFFF) (int_range 0 32))

let gen_update =
  QCheck.Gen.(
    map3
      (fun p w h ->
        if w then Bgp_update.withdraw p else Bgp_update.announce p (nh h))
      gen_prefix bool (int_range 1 65535))

let gen_records =
  QCheck.Gen.(
    map
      (List.mapi (fun i u -> { Journal.seq = i + 1; update = u }))
      (list_size (int_range 0 40) gen_update))

let arb_records =
  QCheck.make
    ~print:(fun rs ->
      String.concat "; "
        (List.map
           (fun r ->
             Printf.sprintf "%d:%s" r.Journal.seq
               (Bgp_update.to_string r.Journal.update))
           rs))
    gen_records

let record_equal a b =
  a.Journal.seq = b.Journal.seq && Bgp_update.equal a.Journal.update b.Journal.update

(* -- journal codec --------------------------------------------------- *)

let prop_journal_roundtrip =
  QCheck.Test.make ~count:300 ~name:"journal encode/decode round-trip"
    arb_records (fun records ->
      match Journal.decode_string (Journal.encode records) with
      | Error e -> QCheck.Test.fail_report (Errors.to_string e)
      | Ok (got, rep) ->
          Errors.is_clean rep
          && List.length got = List.length records
          && List.for_all2 record_equal records got)

(* a strict decode of a pristine image is also clean *)
let prop_journal_strict =
  QCheck.Test.make ~count:100 ~name:"strict decode of pristine journal"
    arb_records (fun records ->
      match
        Journal.decode_string ~policy:Errors.Strict (Journal.encode records)
      with
      | Ok (got, _) -> List.for_all2 record_equal records got
      | Error e -> QCheck.Test.fail_report (Errors.to_string e))

let sample_records n =
  let rng = Random.State.make [| 0xD0B5; n |] in
  List.init n (fun i ->
      let p =
        Prefix.make
          (Ipv4.of_int (Random.State.int rng 0x1000000 lsl 8))
          (8 + Random.State.int rng 25)
      in
      let u =
        if Random.State.int rng 4 = 0 then Bgp_update.withdraw p
        else Bgp_update.announce p (nh (1 + Random.State.int rng 100))
      in
      { Journal.seq = i + 1; update = u })

let test_truncate_every_byte () =
  let records = sample_records 24 in
  let image = Journal.encode records in
  let magic_len = String.length Journal.magic in
  for cut = 0 to String.length image do
    let img = String.sub image 0 cut in
    match Journal.decode_string img with
    | exception e ->
        Alcotest.failf "cut %d raised %s" cut (Printexc.to_string e)
    | Error _ ->
        (* only a missing/short magic is a file-level error *)
        check (Printf.sprintf "cut %d: fatal only below the magic" cut) true
          (cut < magic_len)
    | Ok (got, rep) ->
        (* every byte after the magic is accounted for, every decoded
           record is a pristine prefix of the stream, and at most one
           (torn) record drops *)
        check_int
          (Printf.sprintf "cut %d: bytes accounted" cut)
          (cut - magic_len) (Errors.total_bytes rep);
        check
          (Printf.sprintf "cut %d: prefix of the stream" cut)
          true
          (List.for_all2 record_equal
             (List.filteri (fun i _ -> i < List.length got) records)
             got);
        check
          (Printf.sprintf "cut %d: at most one torn drop" cut)
          true
          (Errors.total rep.Errors.errors <= 1)
  done

(* -- checkpoint codec ------------------------------------------------ *)

let sample_checkpoint =
  {
    Checkpoint.ck_seq = 42;
    ck_routes =
      List.sort
        (fun (a, _) (b, _) -> Prefix.compare a b)
        [
          (pfx "0.0.0.0/0", nh 9);
          (pfx "10.0.0.0/8", nh 1);
          (pfx "10.1.0.0/16", nh 2);
          (pfx "192.168.0.0/24", nh 3);
          (pfx "203.0.113.0/25", nh 7);
        ];
    ck_summary =
      {
        Checkpoint.ck_fib_size = 11;
        ck_l1_resident = 4;
        ck_l2_resident = 6;
        ck_lthd_l1 = 2;
        ck_lthd_l2 = 3;
      };
  }

let test_checkpoint_roundtrip () =
  let image = Checkpoint.encode sample_checkpoint in
  match Checkpoint.decode image with
  | Error e -> Alcotest.fail (Errors.to_string e)
  | Ok ck ->
      check_int "seq" sample_checkpoint.Checkpoint.ck_seq ck.Checkpoint.ck_seq;
      check "routes" true
        (List.for_all2
           (fun (p1, h1) (p2, h2) -> Prefix.equal p1 p2 && h1 = h2)
           sample_checkpoint.Checkpoint.ck_routes ck.Checkpoint.ck_routes);
      check "summary" true
        (ck.Checkpoint.ck_summary = sample_checkpoint.Checkpoint.ck_summary)

(* the checksum covers everything after itself and the magic is
   checked, so NO single-byte corruption may decode — and none may
   raise *)
let test_checkpoint_flip_every_byte () =
  let image = Checkpoint.encode sample_checkpoint in
  for i = 0 to String.length image - 1 do
    let b = Bytes.of_string image in
    Bytes.set b i (Char.chr (Char.code image.[i] lxor 0x40));
    match Checkpoint.decode (Bytes.to_string b) with
    | exception e ->
        Alcotest.failf "flip at %d raised %s" i (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "flip at %d decoded anyway" i
    | Error _ -> ()
  done;
  (* and every truncation is typed, never an exception *)
  for cut = 0 to String.length image - 1 do
    match Checkpoint.decode (String.sub image 0 cut) with
    | exception e ->
        Alcotest.failf "cut %d raised %s" cut (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "cut %d decoded anyway" cut
    | Error _ -> ()
  done

let test_checkpoint_filenames () =
  check_str "filename" "ckpt-0000000042.bin" (Checkpoint.filename ~seq:42);
  check "seq_of_filename" true
    (Checkpoint.seq_of_filename "ckpt-0000000042.bin" = Some 42);
  check "foreign names rejected" true
    (Checkpoint.seq_of_filename "journal.wal" = None
    && Checkpoint.seq_of_filename "ckpt-12.bin.tmp" = None)

(* -- store lifecycle on disk ----------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "cfca-test-durability"
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ()
      end)
    (fun () -> f dir)

let test_store_lifecycle () =
  with_temp_dir (fun dir ->
      let base = [ (pfx "10.0.0.0/8", nh 1); (pfx "10.1.0.0/16", nh 2) ] in
      let store = Store.open_ ~checkpoint_every:2 ~dir () in
      check "not armed before arm" false (Store.armed store);
      Store.arm store ~routes:base ~summary:Checkpoint.empty_summary;
      check "armed" true (Store.armed store);
      let s1 = Store.append store (Bgp_update.announce (pfx "10.2.0.0/16") (nh 3)) in
      let s2 = Store.append store (Bgp_update.withdraw (pfx "10.1.0.0/16")) in
      check_int "seqs assigned in order" 1 s1;
      check_int "seqs assigned in order (2)" 2 s2;
      check "cadence reached" true (Store.checkpoint_due store);
      let mid = [ (pfx "10.0.0.0/8", nh 1); (pfx "10.2.0.0/16", nh 3) ] in
      Store.checkpoint store ~routes:mid ~summary:Checkpoint.empty_summary;
      check "cadence reset" false (Store.checkpoint_due store);
      let _s3 =
        Store.append store (Bgp_update.announce (pfx "10.3.0.0/16") (nh 4))
      in
      let st = Store.stats store in
      check_int "records appended" 3 st.Store.st_appended;
      check_int "checkpoints written (incl. 0)" 2 st.Store.st_checkpoints;
      Store.close store;
      match Store.recover ~dir with
      | Error e -> Alcotest.fail (Errors.to_string e)
      | Ok rc ->
          check_int "recovered from the mid checkpoint" 2
            rc.Store.rc_checkpoint_seq;
          check "only the tail replayed" true (rc.Store.rc_applied = [ 3 ]);
          check_int "no checkpoint skipped" 0 rc.Store.rc_skipped_checkpoints;
          check "journal tail decodes clean" true
            (Errors.is_clean rc.Store.rc_report);
          let expect =
            [
              (pfx "10.0.0.0/8", nh 1);
              (pfx "10.2.0.0/16", nh 3);
              (pfx "10.3.0.0/16", nh 4);
            ]
          in
          check "recovered route set" true
            (List.for_all2
               (fun (p1, h1) (p2, h2) -> Prefix.equal p1 p2 && h1 = h2)
               expect rc.Store.rc_routes))

let test_store_append_requires_arm () =
  with_temp_dir (fun dir ->
      let store = Store.open_ ~dir () in
      (match Store.append store (Bgp_update.withdraw (pfx "10.0.0.0/8")) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "append before arm must raise Invalid_argument");
      Store.close store)

(* -- non-perturbation: journaling changes no golden totals ----------- *)

let scale = 0.05

let test_journal_non_perturbation () =
  with_temp_dir (fun dir ->
      let pack = Pack.bgpstorm ~scale () in
      let plain = Runner.run_pack pack in
      let store = Store.open_ ~checkpoint_every:64 ~dir () in
      let journaled = Runner.run_pack ~journal:store pack in
      let js = Store.stats store in
      Store.close store;
      check "journal recorded the pack's update stream" true
        (js.Store.st_appended = plain.Runner.o_score.Score.s_updates);
      check "checkpoints were written" true (js.Store.st_checkpoints > 1);
      check_str "stream digest unchanged with journal attached"
        plain.Runner.o_digest journaled.Runner.o_digest;
      check_str "deterministic score (golden totals) unchanged"
        (Score.deterministic_json plain.Runner.o_score)
        (Score.deterministic_json journaled.Runner.o_score);
      check "journaled replay clean" true (Runner.clean journaled))

(* -- watchdog tiered recovery mid-bgpstorm --------------------------- *)

(* Corrupt the live tree right after the "calm" phase audit: a
   non-resident (DRAM) IN_FIB node's table flag is flipped to L2, so
   the flag census drifts against the L2 membership vector — the exact
   inconsistency the watchdog's full-tree sweep detects
   deterministically, while the packet path (which only consults flags
   of nodes it looks up) keeps forwarding correctly in the interim.
   With the cadence tightened to every event, the watchdog detects and
   rebuilds at the next event, so the storm and recovery audits must
   still be clean, the digest must equal the clean replay's, and the
   score must stay within the committed baseline tolerances. The
   snapshot's patch and rebuild counts are the exception: the baseline
   pins the undisturbed run, and the recovery invalidates the snapshot,
   so they are checked against the clean replay instead. *)
let test_bgpstorm_mid_run_recovery () =
  let module E = Cfca_sim.Engine in
  let module Bintrie = Cfca_trie.Bintrie in
  let pack = Pack.bgpstorm ~scale () in
  let clean_run = Runner.run_pack pack in
  let corrupted = ref false in
  let chaos label (a : E.access) =
    if label = "calm" then begin
      let tree = a.E.a_tree () in
      let victim =
        Bintrie.fold_nodes
          (fun acc n ->
            if
              Bintrie.Node.status tree n = Bintrie.In_fib
              && Bintrie.Node.table tree n = Bintrie.Dram
            then n
            else acc)
          Bintrie.nil tree
      in
      if Bintrie.is_nil victim then
        Alcotest.fail "no DRAM-resident FIB node at calm mark";
      Bintrie.Node.set_table tree victim Bintrie.L2;
      corrupted := true
    end
  in
  let watchdog =
    { Cfca_sim.Watchdog.interval = 1; samples = 32; seed = 0x57a7 }
  in
  let o = Runner.run_pack ~watchdog ~chaos pack in
  check "chaos hook fired" true !corrupted;
  let score = o.Runner.o_score in
  check "a recovery was recorded" true (score.Score.s_recoveries >= 1);
  check_int "every phase audit still clean (oracle)" 0
    score.Score.s_oracle_divergences;
  check_int "every phase audit still clean (invariants)" 0
    score.Score.s_invariant_violations;
  check "event counts still match the metadata" true o.Runner.o_counts_ok;
  check_str "stream digest untouched by the recovery" clean_run.Runner.o_digest
    o.Runner.o_digest;
  let clean = clean_run.Runner.o_score in
  check_int "as many snapshot refreshes as the clean replay"
    (clean.Score.s_snapshot_patches + clean.Score.s_snapshot_full_rebuilds)
    (score.Score.s_snapshot_patches + score.Score.s_snapshot_full_rebuilds);
  check_int "one more full snapshot rebuild per recovery"
    (clean.Score.s_snapshot_full_rebuilds + score.Score.s_recoveries)
    score.Score.s_snapshot_full_rebuilds;
  (* score baseline-conformance: every gated metric within the
     committed tolerance (warn allowed, fail not) *)
  let baselines =
    (* cwd is test/ under [dune runtest], the project root under a
       direct [dune exec] *)
    if Sys.file_exists "../SCENARIO_BASELINES.json" then
      "../SCENARIO_BASELINES.json"
    else "SCENARIO_BASELINES.json"
  in
  match Baseline.of_file baselines with
  | Error e -> Alcotest.fail ("baselines unreadable: " ^ e)
  | Ok b -> (
      match Baseline.pack b "bgpstorm" with
      | None -> Alcotest.fail "no bgpstorm baseline"
      | Some pb ->
          List.iter
            (fun tol ->
              match Score.metric score tol.Baseline.t_metric with
              | None ->
                  Alcotest.failf "metric %s missing" tol.Baseline.t_metric
              | Some v ->
                  check
                    (Printf.sprintf "%s still baseline-conformant (%g)"
                       tol.Baseline.t_metric v)
                    true
                    (Baseline.check tol v <> Baseline.Fail))
            (List.filter
               (fun tol ->
                 not
                   (List.mem tol.Baseline.t_metric
                      [ "snapshot_patches"; "snapshot_full_rebuilds" ]))
               pb.Baseline.pb_metrics))

let () =
  let open Alcotest in
  run "durability"
    [
      ( "journal codec",
        [
          QCheck_alcotest.to_alcotest prop_journal_roundtrip;
          QCheck_alcotest.to_alcotest prop_journal_strict;
          test_case "truncate at every byte" `Quick test_truncate_every_byte;
        ] );
      ( "checkpoint codec",
        [
          test_case "round-trip" `Quick test_checkpoint_roundtrip;
          test_case "flip/cut every byte" `Quick
            test_checkpoint_flip_every_byte;
          test_case "filenames" `Quick test_checkpoint_filenames;
        ] );
      ( "store",
        [
          test_case "lifecycle and recovery" `Quick test_store_lifecycle;
          test_case "append requires arm" `Quick test_store_append_requires_arm;
        ] );
      ( "engine integration",
        [
          test_case "journal does not perturb a replay" `Slow
            test_journal_non_perturbation;
          test_case "watchdog recovery mid-bgpstorm" `Slow
            test_bgpstorm_mid_run_recovery;
        ] );
    ]
