(* The benchmark's command line.

     main.exe run --workload W --seed N --seconds S --trace 0|1
         one measured run of one workload; the last stdout line is the
         JSON result
     main.exe suite --seed N [--out FILE] [--seconds S] [--runs R]
         every workload, R untraced runs and one traced run each
     main.exe compare OLD.json NEW.json
         two suite files, metric by metric, against the bounds
     main.exe digest --workload W --seed N [--seconds S]
         the inputs digest of a run, without running it

   A run measures in [Spec.children] fresh child processes
   ([main.exe child ...]). It reports the median of their values, or a
   statistic over all their requests together (see [pooled]). *)

module M = Measure
module Json = Aeq_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- arguments ---------------------------------------------------------- *)

let rec parse_flags acc = function
  | [] -> acc
  | "--perturb" :: rest -> parse_flags (("perturb", "1") :: acc) rest
  | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
    parse_flags ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
  | arg :: _ -> die "unexpected argument %S" arg

let flag flags name ~default = Option.value ~default (List.assoc_opt name flags)

let required flags name =
  match List.assoc_opt name flags with Some v -> v | None -> die "--%s is required" name

let int_flag flags name ~default =
  match int_of_string_opt (flag flags name ~default:(string_of_int default)) with
  | Some n -> n
  | None -> die "--%s takes an integer" name

let float_flag flags name ~default =
  match float_of_string_opt (flag flags name ~default:(string_of_float default)) with
  | Some x when x > 0.0 -> x
  | _ -> die "--%s takes a positive number" name

let workload_flag flags =
  let name = required flags "workload" in
  match Spec.workload_of_name name with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of %s)" name (String.concat ", " (List.map fst Spec.workloads))

let trace_flag flags =
  match flag flags "trace" ~default:"0" with
  | "0" -> false
  | "1" -> true
  | v -> die "--trace takes 0 or 1, not %S" v

(* ---- child processes ---------------------------------------------------- *)

(* Each child measures for its share of the run's [seconds]. *)
let child_seconds seconds = seconds /. float_of_int Spec.children

(* What child [index] of a run sends: the inputs the child draws, and
   the ones [digest] fingerprints. *)
let child_inputs workload ~seed ~seconds index =
  Inputs.draw workload ~seed ~index ~seconds:(child_seconds seconds)

let child flags =
  let workload = workload_flag flags in
  let seed = int_flag flags "seed" ~default:1 in
  let index = int_flag flags "index" ~default:0 in
  let seconds = float_flag flags "seconds" ~default:1.0 in
  let trace = trace_flag flags and perturb = List.mem_assoc "perturb" flags in
  let inputs = child_inputs workload ~seed ~seconds index in
  let seconds = child_seconds seconds in
  let outcome =
    match workload with
    | Spec.Wire_meta -> Wire.run inputs ~seconds ~trace ~perturb
    | w -> Inproc.run w inputs ~seconds ~trace ~perturb
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout (outcome : M.outcome) [];
  flush stdout

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* One child, run to completion; its outcome, or the run fails. *)
let spawn_child ~workload ~seed ~seconds ~trace ~perturb index =
  let args =
    [ Sys.executable_name; "child"; "--workload"; Spec.workload_name workload; "--seed";
      string_of_int seed; "--index"; string_of_int index; "--seconds"; Printf.sprintf "%.17g" seconds;
      "--trace"; (if trace then "1" else "0") ]
    @ if perturb then [ "--perturb" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let data = read_all r in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (Marshal.from_string data 0 : M.outcome)
  | _ -> die "child %d of %s exited abnormally" index (Spec.workload_name workload)

(* ---- a run ------------------------------------------------------------- *)

(* Every distinct (statement, answer) pair the children received,
   checked against Volcano on a catalog of the workload's scale factor:
   the count of requests that got a wrong answer. *)
let wrong_answers workload answers =
  let catalog = Aeq_storage.Catalog.create () in
  Aeq_workload.Tpch.load ~scale_factor:(Spec.scale_factor workload) catalog;
  let refs = Layers.references catalog (List.map (fun ((sql, _), _) -> sql) answers) in
  List.fold_left
    (fun acc ((sql, digest), n) ->
      let expected = M.answer_digest (Layers.rendered catalog (Hashtbl.find refs sql)) in
      if Digest.equal digest expected then acc else acc + n)
    0 answers

type result = {
  digest : string;
  attempted : int;
  failed : int;
  values : (Spec.metric * float * float list) list;  (** median, per-child values *)
}

(* Statistics over the timed requests of all children together. The
   geomean is over the distinct statements of a statistic of each
   statement's latencies: in the closed loops its best, the service time
   with nothing else queued, which the host's other load moves least;
   in wire_meta's open loop its median at the middle rate, since there
   the waiting is what the workload measures. p99 has ten or more
   samples beyond it on every workload but giant_compile (about 280
   requests a run, so about 3). *)
let pooled workload samples =
  let lat = List.map snd samples in
  let keys = List.sort_uniq compare (List.map fst samples) in
  let of_key k = List.filter_map (fun (k', l) -> if k' = k then Some l else None) samples in
  let typical =
    match workload with
    | Spec.Wire_meta -> M.median
    | Spec.Tpch_adhoc | Spec.Tpch_warm | Spec.Giant_compile -> List.fold_left Float.min infinity
  in
  [
    ("geomean_ms", M.ms (M.geomean (List.map (fun k -> typical (of_key k)) keys)));
    ("latency_p50_ms", M.percentile_ms 0.50 lat);
    ("latency_p99_ms", M.percentile_ms 0.99 lat);
  ]

let run_workload ~workload ~seed ~seconds ~trace ~perturb =
  let outcomes = List.init Spec.children (spawn_child ~workload ~seed ~seconds ~trace ~perturb) in
  let pooled =
    if trace then []
    else pooled workload (List.concat_map (fun (o : M.outcome) -> o.M.samples) outcomes)
  in
  let values =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name pooled with
        | Some v -> (m, v, [])
        | None ->
          let vs =
            List.map
              (fun (o : M.outcome) ->
                match List.assoc_opt m.Spec.name o.M.metrics with
                | Some v when Float.is_finite v -> v
                | Some v -> die "%s is %f" m.Spec.name v
                | None -> die "no value for %s" m.Spec.name)
              outcomes
          in
          (m, M.median vs, vs))
      (if trace then Spec.per_layer else Spec.end_to_end @ Spec.informational)
  in
  if trace then begin
    let name = Spec.workload_name workload in
    M.write_file
      (Filename.concat "perfbench" (Filename.concat "out" ("trace_" ^ name ^ ".json")))
      (Spans.chrome ~workload:name (List.map (fun (o : M.outcome) -> o.M.spans) outcomes))
  end;
  {
    digest = Inputs.run_digest (List.map (fun (o : M.outcome) -> o.M.inputs) outcomes);
    attempted = List.fold_left (fun acc (o : M.outcome) -> acc + o.M.attempted) 0 outcomes;
    failed =
      List.fold_left (fun acc (o : M.outcome) -> acc + o.M.errors) 0 outcomes
      + wrong_answers workload (List.concat_map (fun (o : M.outcome) -> o.M.answers) outcomes);
    values;
  }

let print_result ~workload r =
  Printf.printf "%s: inputs_digest %s, %d requests, %d failed\n" (Spec.workload_name workload)
    r.digest r.attempted r.failed;
  List.iter
    (fun ((m : Spec.metric), median, vs) ->
      let note = if List.memq m Spec.informational then ", not bounded" else "" in
      if vs = [] then
        Printf.printf "  %-34s %14.6g %-6s  (all children's requests%s)\n" m.Spec.name median m.Spec.units
          note
      else begin
        let lo, hi = M.Stats.min_max vs in
        Printf.printf "  %-34s %14.6g %-6s  spread %5.1f%%  (children %s%s)\n" m.Spec.name median
          m.Spec.units
          (100.0 *. M.ratio (hi -. lo) (Float.abs median))
          (String.concat " " (List.map (Printf.sprintf "%.6g") vs))
          note
      end)
    r.values;
  flush stdout

(* The result line carries the declared metrics only. *)
let result_json r =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.filter_map
          (fun ((m : Spec.metric), v, _) ->
            if List.memq m Spec.informational then None
            else Some (Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.Spec.name v m.Spec.units))
          r.values))

let run flags =
  let workload = workload_flag flags in
  let seed = int_flag flags "seed" ~default:1 in
  let seconds = float_flag flags "seconds" ~default:(float_of_int Spec.run_seconds) in
  let trace = trace_flag flags and perturb = List.mem_assoc "perturb" flags in
  let r = run_workload ~workload ~seed ~seconds ~trace ~perturb in
  print_result ~workload r;
  print_endline (result_json r)

let digest flags =
  let workload = workload_flag flags and seed = int_flag flags "seed" ~default:1 in
  let seconds = float_flag flags "seconds" ~default:(float_of_int Spec.run_seconds) in
  print_endline
    (Inputs.run_digest
       (List.init Spec.children (fun i -> Inputs.digest (child_inputs workload ~seed ~seconds i))))

(* ---- suite --------------------------------------------------------------- *)

let suite flags =
  let seed = int_flag flags "seed" ~default:1 in
  let seconds = float_flag flags "seconds" ~default:(float_of_int Spec.run_seconds) in
  let runs = int_flag flags "runs" ~default:1 in
  let out = flag flags "out" ~default:(Filename.concat "perfbench" (Filename.concat "out" "suite.json")) in
  let workload_json (name, workload) =
    let untraced =
      List.init runs (fun k ->
          let r = run_workload ~workload ~seed:(seed + k) ~seconds ~trace:false ~perturb:false in
          print_result ~workload r;
          r)
    in
    let traced = run_workload ~workload ~seed ~seconds ~trace:true ~perturb:false in
    print_result ~workload traced;
    let series rs =
      List.map
        (fun ((m : Spec.metric), _, _) ->
          ( m.Spec.name,
            Json.Obj
              [
                ("unit", Json.Str m.Spec.units);
                ( "values",
                  Json.Arr
                    (List.map
                       (fun r ->
                         let _, v, _ = List.find (fun ((m' : Spec.metric), _, _) -> m' = m) r.values in
                         Json.Num v)
                       rs) );
              ] ))
        (List.hd rs).values
    in
    let all = untraced @ [ traced ] in
    ( name,
      Json.Obj
        [
          ("inputs_digest", Json.Str (List.hd untraced).digest);
          ("attempted", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 all)));
          ("failed", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 all)));
          ("metrics", Json.Obj (series untraced @ series [ traced ]));
        ] )
  in
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num seconds);
        ("runs", Json.Num (float_of_int runs));
        ("workloads", Json.Obj (List.map workload_json Spec.workloads));
      ]
  in
  M.write_file out (Json.to_string doc ^ "\n");
  Printf.printf "wrote %s\n" out

(* ---- compare ------------------------------------------------------------- *)

(* Python's statistics.quantiles(xs, n=4), default (exclusive) method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e

let member k j = match Json.member k j with Some v -> v | None -> die "missing field %S" k

let fields = function Json.Obj kv -> kv | _ -> []

let compare_cmd old_path new_path =
  let old_doc = load old_path and new_doc = load new_path in
  let values doc w name =
    List.filter_map Json.to_float
      (Json.to_list (member "values" (member name (member "metrics" (member w (member "workloads" doc))))))
  in
  Printf.printf "%-14s %-34s %11s %-21s %11s %-21s %8s  %s\n" "workload" "metric" "old median"
    "  old [q1, q3]" "new median" "  new [q1, q3]" "delta" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (name, _) ->
          let ov = values old_doc w name and nv = values new_doc w name in
          if ov <> [] && nv <> [] then begin
            let o1, om, o3 = quartiles ov and n1, nm, n3 = quartiles nv in
            let rel = M.ratio (nm -. om) (Float.abs om) in
            let spread = Float.max (M.ratio (o3 -. o1) (Float.abs om)) (M.ratio (n3 -. n1) (Float.abs nm)) in
            let verdict =
              match Spec.find name with
              | Some { Spec.bound = Some b; better; _ } ->
                let worse = if better = Spec.Lower then rel else -.rel in
                if spread > b then "unresolved"
                else if worse > b then "worse"
                else if worse < -.b then "better"
                else "within bound"
              | _ -> "-"
            in
            let range a b = Printf.sprintf "  [%.4g, %.4g]" a b in
            Printf.printf "%-14s %-34s %11.5g %-21s %11.5g %-21s %+7.1f%%  %s\n" w name om (range o1 o3)
              nm (range n1 n3) (100.0 *. rel) verdict
          end)
        (fields (member "metrics" (member w (member "workloads" new_doc)))))
    (fields (member "workloads" new_doc))

(* ---- entry -------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_flags [] rest)
  | _ :: "child" :: rest -> child (parse_flags [] rest)
  | _ :: "suite" :: rest -> suite (parse_flags [] rest)
  | _ :: "digest" :: rest -> digest (parse_flags [] rest)
  | [ _; "compare"; a; b ] -> compare_cmd a b
  | _ -> die "usage: main.exe run|suite|compare|digest ... (see perfbench/README.md)"
