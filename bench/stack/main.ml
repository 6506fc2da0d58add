(* Command line of the stack benchmark:

     main.exe --workload=NAME --seed=N [--seconds=S] [--trace=FILE]

   Runs the workload's fixed number of bursts; --seconds only caps the
   measured loop. Prints one "name value unit" line per metric — the
   end-to-end metrics, or with --trace the per-layer ones (and the
   spans go to FILE) — then "# attempted N" and "# failed N" for the
   output audit.
   Exits 1 when an audited output was wrong, 2 when the run could not
   measure what its workload exists for. *)

open Stack_bench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref None in
  let names = List.map (fun (w : Driver.workload) -> w.name) Driver.workloads in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S cap on the measured loop (default 30)");
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE per-layer run; spans go to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload=NAME --seed=N [--seconds=S] [--trace=FILE]";
  match List.find_opt (fun (w : Driver.workload) -> w.name = !workload) Driver.workloads with
  | None ->
      prerr_endline "--workload is required";
      exit 2
  | Some w ->
      let r = Driver.run ?trace:!trace w ~seed:!seed ~seconds:!seconds in
      List.iter
        (fun m -> Printf.printf "%s %.10g %s\n" m.Driver.name m.Driver.value m.Driver.unit_)
        r.Driver.metrics;
      Printf.printf "# attempted %d\n# failed %d\n%!" r.Driver.attempted r.Driver.failed;
      List.iter prerr_endline r.Driver.problems;
      exit (if r.Driver.failed > 0 then 1 else if r.Driver.problems <> [] then 2 else 0)
