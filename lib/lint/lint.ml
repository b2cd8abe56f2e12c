type finding = {
  f_file : string;
  f_line : int;
  f_col : int;
  f_rule : string;
  f_msg : string;
}

type scan = {
  sc_findings : finding list;
  sc_hit_sites : (string * int) list;
  sc_yield_sites : (string * int) list;
  sc_declares : (string * int) list;
}

let all_rules =
  [
    "raw-mutex";
    "yield-in-lock";
    "sleep-in-exec";
    "failpoint-literal";
    "declare-literal";
  ]

let finding_to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col f.f_rule f.f_msg

(* ---- Parsetree helpers ----------------------------------------------- *)

let flatten lid = try Longident.flatten lid with Invalid_argument _ -> []

let ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lp - ls) path = suffix

(* [@lint.allow "rule"] on an expression waives [rule] for that
   subtree *)
let waived_rules (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "lint.allow" then None
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (r, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          Some r
        | _ -> None)
    attrs

let string_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* [Probe.hit] / [Probe.yield], by their printable name *)
let probe_name path =
  if ends_with ~suffix:[ "Probe"; "hit" ] path then Some "Probe.hit"
  else if ends_with ~suffix:[ "Probe"; "yield" ] path then Some "Probe.yield"
  else None

(* the function position of an application opens a critical section if
   it is one of the lock wrappers used across the tree *)
let is_lock_wrapper path =
  ends_with ~suffix:[ "Lock"; "with_" ] path
  ||
  match List.rev path with
  | ("with_lock" | "locked") :: _ -> true
  | _ -> false

(* ---- the walk -------------------------------------------------------- *)

let lint_source ?(rules = all_rules) ~filename source =
  let findings = ref [] in
  let hit_sites = ref [] in
  let yield_sites = ref [] in
  let declares = ref [] in
  let waived = ref [] in
  let active r = List.mem r rules && not (List.mem r !waived) in
  let add (loc : Location.t) rule msg =
    let p = loc.loc_start in
    findings :=
      {
        f_file = filename;
        f_line = p.pos_lnum;
        f_col = p.pos_cnum - p.pos_bol;
        f_rule = rule;
        f_msg = msg;
      }
      :: !findings
  in
  (* lexical critical-section depth: > 0 inside a lock wrapper's
     argument subtree *)
  let crit = ref 0 in
  let check_probe_in_lock loc name =
    if active "yield-in-lock" && !crit > 0 then
      add loc "yield-in-lock"
        (name
       ^ " inside a critical section: a simulated task suspended while \
          holding a lock deadlocks every peer behind it, and an armed \
          Delay stalls them")
  in
  let check_ident (loc : Location.t) path =
    (match path with
    | _ when ends_with ~suffix:[ "Mutex"; "lock" ] path
             || ends_with ~suffix:[ "Mutex"; "unlock" ] path
             || ends_with ~suffix:[ "Mutex"; "try_lock" ] path
             || ends_with ~suffix:[ "Mutex"; "create" ] path ->
      if active "raw-mutex" then
        add loc "raw-mutex"
          "raw Mutex use: take locks through Aeq_race.Lock so the race \
           detector sees the acquire/release"
    | _ when ends_with ~suffix:[ "Condition"; "wait" ] path ->
      if active "raw-mutex" then
        add loc "raw-mutex"
          "raw Condition.wait: use Aeq_race.Lock.wait so the detector \
           keeps the release/acquire edges of the wait"
    | _ when ends_with ~suffix:[ "Unix"; "sleepf" ] path
             || ends_with ~suffix:[ "Unix"; "sleep" ] path ->
      if active "sleep-in-exec" then
        add loc "sleep-in-exec"
          "uninterruptible sleep on a supervised path: block on \
           Aeq_util.Waiter so shutdown can cut the wait short"
    | _ -> ());
    (* non-literal arguments to probes/declare are caught at the
       application nodes below; a bare reference to any of them
       (partial application, higher-order use) defeats the catalog
       cross-check just the same *)
    (match probe_name path with
    | Some name ->
      check_probe_in_lock loc name;
      if active "failpoint-literal" then
        add loc "failpoint-literal"
          (name
         ^ " referenced without a literal site string: the catalog lint \
            cannot see this site")
    | None -> ());
    if ends_with ~suffix:[ "Aeq_race"; "declare" ] path then
      if active "declare-literal" then
        add loc "declare-literal"
          "Aeq_race.declare referenced without a literal location name: \
           the registry-coverage lint cannot see this declaration"
  in
  let iter = ref Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    let newly = waived_rules e.pexp_attributes in
    let saved_waived = !waived in
    waived := newly @ !waived;
    (match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = fn; loc }; _ }, (_, arg) :: _)
      when probe_name (flatten fn) <> None ->
      let name = Option.get (probe_name (flatten fn)) in
      check_probe_in_lock loc name;
      (match string_literal arg with
      | Some site ->
        let sites = if name = "Probe.hit" then hit_sites else yield_sites in
        sites := (site, e.pexp_loc.loc_start.pos_lnum) :: !sites
      | None ->
        if active "failpoint-literal" then
          add e.pexp_loc "failpoint-literal"
            (name
           ^ " with a computed site string: pass one literal per call \
              site so the catalog cross-check can see it"));
      it.expr it arg
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = fn; _ }; _ }, (_, arg) :: rest)
      when ends_with ~suffix:[ "Aeq_race"; "declare" ] (flatten fn) ->
      (match string_literal arg with
      | Some name ->
        declares := (name, e.pexp_loc.loc_start.pos_lnum) :: !declares
      | None ->
        if active "declare-literal" then
          add e.pexp_loc "declare-literal"
            "Aeq_race.declare with a computed location name: declare \
             with a literal so the registry-coverage check can see it");
      List.iter (fun (_, a) -> it.expr it a) rest
    | Pexp_apply
        (({ pexp_desc = Pexp_ident { txt = fn; _ }; _ } as f), args)
      when is_lock_wrapper (flatten fn) ->
      it.expr it f;
      incr crit;
      List.iter (fun (_, a) -> it.expr it a) args;
      decr crit
    | Pexp_ident { txt; loc } ->
      check_ident loc (flatten txt);
      Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e);
    waived := saved_waived
  in
  iter := { Ast_iterator.default_iterator with expr };
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  (match Parse.implementation lexbuf with
  | str -> !iter.structure !iter str
  | exception exn ->
    let loc, msg =
      match Location.error_of_exn exn with
      | Some (`Ok { main = { loc; _ }; _ }) ->
        (loc, "syntax error: the lint cannot read this file")
      | _ -> (Location.none, "syntax error: " ^ Printexc.to_string exn)
    in
    add loc "parse" msg);
  {
    sc_findings = List.rev !findings;
    sc_hit_sites = List.rev !hit_sites;
    sc_yield_sites = List.rev !yield_sites;
    sc_declares = List.rev !declares;
  }

(* ---- DESIGN.md table extraction -------------------------------------- *)

let design_table_names content =
  let lines = String.split_on_char '\n' content in
  let in_section = ref false in
  let names = ref [] in
  let backticked cell =
    let cell = String.trim cell in
    let n = String.length cell in
    if n >= 3 && cell.[0] = '`' && cell.[n - 1] = '`' then
      Some (String.sub cell 1 (n - 2))
    else None
  in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      if String.length trimmed > 0 && trimmed.[0] = '#' then begin
        (* a heading opens or closes the section *)
        let l = String.lowercase_ascii trimmed in
        let needle = "locking discipline" in
        let contains =
          let nl = String.length needle and ll = String.length l in
          let rec at i =
            i + nl <= ll && (String.sub l i nl = needle || at (i + 1))
          in
          at 0
        in
        in_section := contains
      end
      else if !in_section && String.length trimmed > 0 && trimmed.[0] = '|' then
        match String.split_on_char '|' trimmed with
        | _ :: first :: _ -> (
          match backticked first with
          | Some name -> names := name :: !names
          | None -> ())
        | _ -> ())
    lines;
  List.rev !names
