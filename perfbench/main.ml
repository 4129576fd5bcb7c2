(* perfbench: the end-to-end benchmark of compo.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --server PATH --work DIR

   Runs one workload (design_session, durable_churn or served_mix) for S
   seconds of whole script rounds, checks every answer against the
   harness's model, and prints one JSON object as its last line: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload design_session|durable_churn|served_mix --seed N --seconds S \
     --trace 0|1 --server PATH --work DIR";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let server = ref "" and work = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--work" :: v :: rest -> work := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !work = "" then usage ();
  if not (Sys.file_exists !work) then Unix.mkdir !work 0o755;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and work = !work in
  let r =
    try
      match !workload with
      | "design_session" -> Local.design_session ~seed ~seconds ~trace ~work
      | "durable_churn" -> Local.durable_churn ~seed ~seconds ~trace ~work
      | "served_mix" -> Served.run ~seed ~seconds ~trace ~work ~server:!server
      | _ -> usage ()
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  in
  Compo_par.Pool.shutdown ();
  if trace then Meter.write_spans (Filename.concat work (!workload ^ ".spans.tsv"));
  List.iter (fun p -> prerr_endline ("problem: " ^ p)) r.Local.problems;
  let metrics =
    List.map
      (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      (if trace then r.layer else r.e2e)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.problems = [])
    r.attempted r.failed (String.concat ", " metrics)
