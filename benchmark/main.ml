(* The simulator's benchmark. One invocation runs one workload in one pass
   and prints its metrics; see README.md for the workloads, the metrics
   and how to run it.

   --trace 0 is the plain pass: end-to-end metrics, no wrappers.
   --trace 1 is the layered pass: per-layer spans and tracing overhead.
   --toy runs every workload at toy size through both passes, as a test. *)

let usage =
  "main.exe --workload NAME --seed S --seconds T --trace 0|1\n\
   main.exe --toy"

let names = List.map fst (Engine_workload.all ~toy:false) @ [ Campaign.name ]

let run_one ~toy ~seed ~seconds ~layered name =
  let r =
    Report.create ~workload:name ~pass:(if layered then "layered" else "plain") ~seed
  in
  (try
     match List.assoc_opt name (Engine_workload.all ~toy) with
     | Some w -> Engine_workload.run w r ~seed ~seconds ~layered
     | None -> Campaign.run r ~toy ~seed ~seconds ~layered
   with e -> Report.check r false "raised %s" (Printexc.to_string e));
  Report.print r;
  Report.correct r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. in
  let trace = ref 0 and toy = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " names);
      ("--seed", Arg.Set_int seed, "S seed the workload's inputs derive from (default 1)");
      ("--seconds", Arg.Set_float seconds, "T measuring time (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 plain or layered pass (default 0)");
      ("--toy", Arg.Set toy, " every workload at toy size, both passes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !toy then begin
    let ok =
      List.for_all Fun.id
        (List.concat_map
           (fun name ->
             List.map
               (fun layered -> run_one ~toy:true ~seed:!seed ~seconds:0. ~layered name)
               [ false; true ])
           names)
    in
    exit (if ok then 0 else 1)
  end;
  if not (List.mem !workload names) then begin
    Printf.eprintf "unknown workload %S; one of %s\n" !workload (String.concat ", " names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let ok =
    run_one ~toy:false ~seed:!seed ~seconds:!seconds ~layered:(!trace = 1) !workload
  in
  exit (if ok then 0 else 1)
