(* Concurrency-discipline lint CLI.

   Walks lib/**/*.ml under --root, applies the per-file rules
   (Aeq_lint.Lint), then runs the whole-tree cross-checks:

   - probe catalogs: every literal [Probe.hit] site in the tree must
     be in [Probe.fault_sites] and every literal [Probe.yield] site in
     [Probe.yield_sites], and every catalog entry must have at least
     one call of its kind — a dead fault entry means the chaos suite
     arms a site that can never fire, a dead yield entry means the
     site table documents a scheduling point that does not exist;
   - registry coverage: every location in DESIGN.md's "Locking
     discipline" table must be declared to [Aeq_race], and every
     declaration must be documented in the table.

   Scoping: lib/race and lib/sim implement (respectively: are exempt
   from) the locking discipline, so the raw-mutex and yield-in-lock
   rules skip them; the sleep rule applies to the supervised execution
   layers (lib/exec, lib/mem) where an uninterruptible sleep can stall
   shutdown or crash reclaim.

   Exit 0 clean, 1 on findings, 2 on usage/IO errors. *)

let usage = "aeq_lint [--root DIR] [--quiet]"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then acc @ ml_files path
        else if Filename.check_suffix name ".ml" then acc @ [ path ]
        else acc)
      [] entries
  | exception Sys_error _ -> []

let under sub path =
  (* true when [path] contains ".../<sub>/..." *)
  let needle = Filename.concat sub "" in
  let needle = "/" ^ needle in
  let l = String.length needle and n = String.length path in
  let rec at i = i + l <= n && (String.sub path i l = needle || at (i + 1)) in
  at 0

let rules_for path =
  let open Aeq_lint.Lint in
  if under "race" path || under "sim" path then
    [ "failpoint-literal"; "declare-literal" ]
  else if under "exec" path || under "mem" path then all_rules
  else List.filter (fun r -> r <> "sleep-in-exec") all_rules

let () =
  let root = ref "." in
  let quiet = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ("--quiet", Arg.Set quiet, " print nothing on success");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let lib = Filename.concat !root "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then begin
    Printf.eprintf "aeq_lint: no lib/ under %s\n" !root;
    exit 2
  end;
  let files = ml_files lib in
  let findings = ref [] in
  let hits = ref [] in
  let yields = ref [] in
  let declares = ref [] in
  List.iter
    (fun path ->
      let scan =
        Aeq_lint.Lint.lint_source ~rules:(rules_for path) ~filename:path
          (read_file path)
      in
      findings := !findings @ scan.sc_findings;
      hits := !hits @ List.map (fun (s, l) -> (s, path, l)) scan.sc_hit_sites;
      yields :=
        !yields @ List.map (fun (s, l) -> (s, path, l)) scan.sc_yield_sites;
      declares :=
        !declares @ List.map (fun (s, l) -> (s, path, l)) scan.sc_declares)
    files;
  (* per-file findings stay typed; tree-level cross-check problems are
     plain lines *)
  let tree_problems = ref [] in
  let tree fmt =
    Printf.ksprintf (fun m -> tree_problems := !tree_problems @ [ m ]) fmt
  in
  (* probe catalogs, one per kind, both directions *)
  let cross_check ~call ~catalog_name catalog calls =
    List.iter
      (fun (site, path, line) ->
        if not (List.mem site catalog) then
          tree "%s:%d: [failpoint-catalog] %s site %S is not in %s" path line
            call site catalog_name)
      calls;
    List.iter
      (fun site ->
        if not (List.exists (fun (s, _, _) -> s = site) calls) then
          tree "lib/util/probe.ml: [failpoint-catalog] catalog site %S has no \
                %s call in lib/ — dead catalog entry"
            site call)
      catalog
  in
  cross_check ~call:"Probe.hit" ~catalog_name:"Probe.fault_sites"
    Aeq_util.Probe.fault_sites !hits;
  cross_check ~call:"Probe.yield" ~catalog_name:"Probe.yield_sites"
    Aeq_util.Probe.yield_sites !yields;
  (* registry coverage vs DESIGN.md *)
  let design_path = Filename.concat !root "DESIGN.md" in
  (if Sys.file_exists design_path then begin
     let table = Aeq_lint.Lint.design_table_names (read_file design_path) in
     if table = [] then
       tree "%s: [registry-coverage] no \"Locking discipline\" table found"
         design_path;
     List.iter
       (fun name ->
         if not (List.exists (fun (d, _, _) -> d = name) !declares) then
           tree "%s: [registry-coverage] location %S is documented but never \
                 declared to Aeq_race"
             design_path name)
       table;
     List.iter
       (fun (name, path, line) ->
         if not (List.mem name table) then
           tree "%s:%d: [registry-coverage] location %S is declared but \
                 missing from DESIGN.md's locking-discipline table"
             path line name)
       !declares
   end
   else tree "%s: [registry-coverage] DESIGN.md not found" design_path);
  let n_findings = List.length !findings + List.length !tree_problems in
  List.iter
    (fun f -> print_endline (Aeq_lint.Lint.finding_to_string f))
    !findings;
  List.iter print_endline !tree_problems;
  if n_findings = 0 then begin
    if not !quiet then
      Printf.printf
        "aeq_lint: %d files, %d hit sites, %d yield sites, %d declared \
         locations — clean\n"
        (List.length files) (List.length !hits) (List.length !yields)
        (List.length !declares);
    exit 0
  end
  else begin
    Printf.eprintf "aeq_lint: %d finding(s)\n" n_findings;
    exit 1
  end
