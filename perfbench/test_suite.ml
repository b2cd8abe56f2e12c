(* Smoke test of the benchmark, a few seconds long: BENCHMARK.json
   describes what Spec defines, a run emits exactly the metrics it
   declares, deliberately wrong answers count as failures, and the
   inputs come from the seed. *)

module Json = Aeq_obs.Json

let fail fmt = Printf.ksprintf failwith fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let spec =
  match Json.parse (read_file "../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> fail "BENCHMARK.json: %s" e

let field k j = match Json.member k j with Some v -> v | None -> fail "missing %S" k

let str j = match Json.to_str j with Some s -> s | None -> fail "not a string"

let number k j = match Json.to_float (field k j) with Some x -> x | None -> fail "%S not a number" k

(* Every metric of one section of BENCHMARK.json, in Spec's terms. *)
let declared section =
  List.map
    (fun m ->
      {
        Spec.name = str (field "name" m);
        units = str (field "unit" m);
        better =
          (match str (field "better" m) with
          | "lower" -> Spec.Lower
          | "higher" -> Spec.Higher
          | b -> fail "better: %S" b);
        bound = (match Json.member "bound" m with Some _ -> Some (number "bound" m) | None -> None);
      })
    (Json.to_list (field section spec))

let workloads = List.map (fun w -> str (field "name" w)) (Json.to_list (field "workloads" spec))

let check_catalogue () =
  if declared "end_to_end" <> Spec.end_to_end then fail "BENCHMARK.json end_to_end differs from Spec";
  if declared "per_layer" <> Spec.per_layer then fail "BENCHMARK.json per_layer differs from Spec";
  if workloads <> List.map fst Spec.workloads then fail "BENCHMARK.json workloads differ from Spec";
  if number "run_seconds" spec <> float_of_int Spec.run_seconds then
    fail "BENCHMARK.json run_seconds differs from Spec"

(* The benchmark's stdout lines; it must exit 0. Its progress report on
   stderr is dropped. *)
let main args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process "./main.exe" (Array.of_list ("./main.exe" :: args)) Unix.stdin w null
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> fail "main.exe %s failed" (String.concat " " args)

let seconds = "0.5"

let digest ~workload seed =
  String.concat "" (main [ "digest"; "--workload"; workload; "--seed"; seed; "--seconds"; seconds ])

(* The inputs digest a run prints, and the result object on its last
   stdout line. *)
let run ?(extra = []) ~workload ~trace () =
  let out =
    main
      ([ "run"; "--workload"; workload; "--seed"; "1"; "--seconds"; seconds; "--trace"; trace ] @ extra)
  in
  let marker = "inputs_digest " in
  let printed =
    List.find_map
      (fun l ->
        let n = String.length marker in
        let rec at i =
          if i + n + 32 > String.length l then None
          else if String.sub l i n = marker then Some (String.sub l (i + n) 32)
          else at (i + 1)
        in
        at 0)
      out
  in
  match Json.parse (List.nth out (List.length out - 1)) with
  | Ok j -> (printed, j)
  | Error e -> fail "result line: %s" e

let check_metrics ~section result =
  let emitted =
    match field "metrics" result with
    | Json.Obj kv -> List.map (fun (name, v) -> (name, str (field "unit" v))) kv
    | _ -> fail "metrics is not an object"
  in
  let declared = List.map (fun m -> (m.Spec.name, m.Spec.units)) (declared section) in
  if List.sort compare emitted <> List.sort compare declared then
    fail "emitted metrics differ from BENCHMARK.json %s" section

let () =
  check_catalogue ();
  (* the seed decides the inputs *)
  List.iter
    (fun w ->
      if digest ~workload:w "1" <> digest ~workload:w "1" then fail "%s: same seed, different inputs" w;
      if digest ~workload:w "1" = digest ~workload:w "2" then fail "%s: different seeds, same inputs" w)
    workloads;
  (* every declared metric, with its unit, correct answers, and the
     digest of the inputs the children actually drew *)
  List.iter
    (fun (workload, trace, section) ->
      let printed, r = run ~workload ~trace () in
      check_metrics ~section r;
      if field "correct" r <> Json.Bool true || number "failed" r <> 0.0 then
        fail "%s: a clean run reports failures" workload;
      if printed <> Some (digest ~workload "1") then
        fail "%s: the run's inputs differ from the digest command's" workload)
    [ ("tpch_adhoc", "0", "end_to_end"); ("wire_meta", "1", "per_layer") ];
  (* corrupted answers are failures *)
  let _, r = run ~extra:[ "--perturb" ] ~workload:"tpch_adhoc" ~trace:"0" () in
  if field "correct" r <> Json.Bool false || number "failed" r <= 0.0 then
    fail "perturbed answers were not counted as failures";
  print_endline "perfbench smoke test: ok"
