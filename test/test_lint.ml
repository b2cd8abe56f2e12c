(* Unit tests for the static concurrency lint (Aeq_lint.Lint): each
   rule flags its seeded violation and passes the disciplined
   equivalent, [@lint.allow] waives one subtree, syntax errors degrade
   to a "parse" finding, and the DESIGN.md table extractor feeds the
   registry-coverage cross-check. *)

module L = Aeq_lint.Lint

let scan ?rules src = L.lint_source ?rules ~filename:"test.ml" src
let rules_of sc = List.map (fun f -> f.L.f_rule) sc.L.sc_findings

let check_rules msg expected sc =
  Alcotest.(check (list string)) msg expected (rules_of sc)

let test_raw_mutex () =
  check_rules "Mutex.lock flagged" [ "raw-mutex"; "raw-mutex" ]
    (scan "let f m = Mutex.lock m; Mutex.unlock m");
  check_rules "Mutex.create flagged" [ "raw-mutex" ]
    (scan "let m = Mutex.create ()");
  check_rules "Condition.wait flagged" [ "raw-mutex" ]
    (scan "let f c m = Condition.wait c m");
  check_rules "Aeq_race.Lock is the disciplined spelling" []
    (scan
       "let l = Aeq_race.Lock.create \"x\"\n\
        let f () = Aeq_race.Lock.with_ l (fun () -> ())\n\
        let g c = Aeq_race.Lock.wait c l");
  (* the rule list is honoured: same source, rule off *)
  check_rules "rule selection" []
    (scan ~rules:[ "sleep-in-exec" ] "let m = Mutex.create ()")

let test_yield_in_lock () =
  check_rules "yield inside with_ flagged" [ "yield-in-lock" ]
    (scan
       "let f l = Aeq_race.Lock.with_ l (fun () -> Aeq_util.Probe.yield \
        \"engine.cache\")");
  check_rules "yield inside with_lock helper flagged" [ "yield-in-lock" ]
    (scan "let f t = with_lock t (fun () -> Probe.yield \"engine.cache\")");
  (* a fault site is a scheduling point too, and an armed Delay inside
     the section would stall every peer *)
  check_rules "hit inside with_ flagged" [ "yield-in-lock" ]
    (scan
       "let f l = Aeq_race.Lock.with_ l (fun () -> Aeq_util.Probe.hit \
        \"compile.opt\")");
  check_rules "yield outside a critical section is fine" []
    (scan "let f () = Aeq_util.Probe.yield \"engine.cache\"");
  check_rules "yield after the critical section is fine" []
    (scan
       "let f l = Aeq_race.Lock.with_ l (fun () -> ()); Probe.yield \
        \"engine.cache\"")

let test_sleep_in_exec () =
  check_rules "Unix.sleepf flagged" [ "sleep-in-exec" ]
    (scan "let f () = Unix.sleepf 0.01");
  check_rules "Unix.sleep flagged" [ "sleep-in-exec" ]
    (scan "let f () = Unix.sleep 1");
  check_rules "Waiter.wait is the disciplined spelling" []
    (scan "let f w = ignore (Aeq_util.Waiter.wait w 0.01)")

let test_failpoint_literal () =
  let sc = scan "let f () = Aeq_util.Probe.hit \"compile.opt\"" in
  check_rules "literal site is clean" [] sc;
  Alcotest.(check (list string))
    "literal site collected" [ "compile.opt" ]
    (List.map fst sc.L.sc_hit_sites);
  check_rules "computed site flagged" [ "failpoint-literal" ]
    (scan "let f m = Aeq_util.Probe.hit (site_of m)");
  check_rules "bare reference flagged" [ "failpoint-literal" ]
    (scan "let f = List.iter Aeq_util.Probe.hit");
  let sc = scan "let f () = Aeq_util.Probe.yield \"engine.cache\"" in
  check_rules "literal yield site is clean" [] sc;
  Alcotest.(check (list string))
    "yield site collected apart from hit sites" [ "engine.cache" ]
    (List.map fst sc.L.sc_yield_sites);
  check_rules "computed yield site flagged" [ "failpoint-literal" ]
    (scan "let f m = Aeq_util.Probe.yield (site_of m)")

let test_declare_literal () =
  let sc =
    scan "let () = Aeq_race.declare \"x.y\" (Aeq_race.Lock \"x.lock\")"
  in
  check_rules "literal declare is clean" [] sc;
  Alcotest.(check (list string))
    "declare collected" [ "x.y" ]
    (List.map fst sc.L.sc_declares);
  check_rules "computed declare flagged" [ "declare-literal" ]
    (scan "let f n = Aeq_race.declare (prefix ^ n) Aeq_race.Atomic")

let test_waiver () =
  check_rules "lint.allow waives the annotated subtree" []
    (scan "let m = (Mutex.create () [@lint.allow \"raw-mutex\"])");
  check_rules "waiver is rule-specific" [ "raw-mutex" ]
    (scan "let m = (Mutex.create () [@lint.allow \"sleep-in-exec\"])");
  check_rules "waiver does not leak past its subtree" [ "raw-mutex" ]
    (scan
       "let a = (Mutex.create () [@lint.allow \"raw-mutex\"])\n\
        let b = Mutex.create ()")

let test_parse_error () =
  let sc = scan "let f = (" in
  check_rules "syntax error degrades to one parse finding" [ "parse" ] sc;
  Alcotest.(check bool) "message mentions syntax" true
    (match sc.L.sc_findings with
    | [ f ] ->
      String.length f.L.f_msg >= 6 && String.sub f.L.f_msg 0 6 = "syntax"
    | _ -> false)

let test_design_table () =
  let md =
    "# Design\n\n\
     ## Concurrency analysis: locking discipline\n\n\
     | Location | Guard | Checked by |\n\
     |---|---|---|\n\
     | `a.one` | lock `a.lock` | both |\n\
     | `b.two` | atomic | detector |\n\n\
     ## Next section\n\n\
     | `not.me` | spurious | table |\n"
  in
  Alcotest.(check (list string))
    "names from the discipline table only" [ "a.one"; "b.two" ]
    (L.design_table_names md);
  Alcotest.(check (list string))
    "no table, no names" []
    (L.design_table_names "# Design\n\nprose only\n")

(* the shipped tree must stay clean under the same per-file scoping the
   CLI applies — a cheap in-process mirror of CI's `aeq_lint --root .` *)
let test_shipped_tree_is_clean () =
  (* cwd is _build/default/test under `dune runtest`, the repo root
     when run by hand *)
  let root = if Sys.file_exists "lib" then "lib" else "../lib" in
  if not (Sys.file_exists root) then Alcotest.skip ()
  else begin
    let read path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let rec walk dir =
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then acc @ walk path
          else if Filename.check_suffix name ".ml" then acc @ [ path ]
          else acc)
        []
        (Sys.readdir dir)
    in
    let under sub path =
      let needle = "/" ^ sub ^ "/" in
      let l = String.length needle and n = String.length path in
      let rec at i =
        i + l <= n && (String.sub path i l = needle || at (i + 1))
      in
      at 0
    in
    List.iter
      (fun path ->
        let rules =
          if under "race" path || under "sim" path then
            [ "failpoint-literal"; "declare-literal" ]
          else if under "exec" path || under "mem" path then L.all_rules
          else List.filter (fun r -> r <> "sleep-in-exec") L.all_rules
        in
        let sc = L.lint_source ~rules ~filename:path (read path) in
        List.iter
          (fun f -> Alcotest.failf "%s" (L.finding_to_string f))
          sc.L.sc_findings)
      (walk root)
  end

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "raw-mutex" `Quick test_raw_mutex;
          Alcotest.test_case "yield-in-lock" `Quick test_yield_in_lock;
          Alcotest.test_case "sleep-in-exec" `Quick test_sleep_in_exec;
          Alcotest.test_case "failpoint-literal" `Quick test_failpoint_literal;
          Alcotest.test_case "declare-literal" `Quick test_declare_literal;
          Alcotest.test_case "waiver" `Quick test_waiver;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "integration",
        [
          Alcotest.test_case "design table" `Quick test_design_table;
          Alcotest.test_case "shipped tree clean" `Quick
            test_shipped_tree_is_clean;
        ] );
    ]
