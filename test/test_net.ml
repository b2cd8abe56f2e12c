(* Tests for the network serving front-end (lib/net): protocol codec
   round-trips, hostile-input totality (malformed / truncated /
   oversized frames can never crash a domain — structured error or
   clean close, and the supervisor crash log stays empty), the
   end-to-end wire path against a live engine (results match a direct
   query), prepared statements and paging over the wire, the
   connection limit (structured Overloaded at the edge), out-of-band
   cancellation of an in-flight query, and graceful drain over the
   wire (SIGTERM: the in-flight query completes its response, new
   connections are refused, the server exits within the deadline). *)

module P = Aeq_net.Protocol
module Server = Aeq_net.Server
module Client = Aeq_net.Client
module FP = Aeq_util.Probe
module Sup = Aeq_exec.Supervisor
module QE = Aeq_exec.Query_error
module Sched = Aeq_exec.Scheduler

let eventually ?(seconds = 10.0) name cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: condition not reached within %.1fs" name seconds
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let small_engine () =
  let e = Aeq.Engine.create ~n_threads:2 () in
  Aeq.Engine.load_tpch e ~scale_factor:0.002;
  e

let with_server ?(config = { Server.default_config with port = 0 }) engine f =
  let server = Server.start ~config:{ config with port = 0 } engine in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Client.error_to_string e)

(* ---- codec round-trips ------------------------------------------------ *)

let payload_of_frame frame =
  (* strip the 4-byte length prefix the encoders prepend *)
  String.sub frame 4 (String.length frame - 4)

let roundtrip_request r =
  match P.decode_request (payload_of_frame (P.encode_request r)) with
  | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
  | Error m -> Alcotest.failf "request failed to decode: %s" m

let roundtrip_response r =
  match P.decode_response (payload_of_frame (P.encode_response r)) with
  | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
  | Error m -> Alcotest.failf "response failed to decode: %s" m

let all_errs =
  [
    P.Query (QE.Trap "division by zero");
    P.Query (QE.Compile_failed (Aeq_backend.Cost_model.Opt, "backend exploded"));
    P.Query (QE.Timeout 1.5);
    P.Query QE.Cancelled;
    P.Query (QE.Memory_budget_exceeded { budget_bytes = 1024; used_bytes = 2048 });
    P.Query (QE.Overloaded { queue_depth = 9; capacity = 8 });
    P.Query (QE.Rejected "draining");
    P.Query (QE.Worker_crashed { domain = "dispatcher-0"; detail = "Injected_crash" });
    P.Query (QE.Parse_failed "unexpected token");
    P.Query (QE.Plan_failed "no such table");
    P.Protocol_violation "frame too large";
  ]

let test_roundtrip_requests () =
  List.iter roundtrip_request
    [
      P.Hello { client = "t"; priority = Sched.Low; deadline_seconds = None };
      P.Hello { client = ""; priority = Sched.Normal; deadline_seconds = Some 2.5 };
      P.Hello { client = "x"; priority = Sched.High; deadline_seconds = Some 0.001 };
      P.Prepare "select 1";
      P.Execute "select count(*) from lineitem";
      P.Execute_prepared 7;
      P.Fetch 128;
      P.Cancel;
      P.Close;
    ]

let test_roundtrip_responses () =
  List.iter roundtrip_response
    ([
       P.Hello_ok { server = "aeq"; version = P.version; fetch_size = 256 };
       P.Prepare_ok { stmt_id = 3; cached = true };
       P.Prepare_ok { stmt_id = 1; cached = false };
       P.Result
         {
           names = [ "a"; "b" ];
           dtypes = [ "int64"; "string" ];
           total_rows = 3;
           rows = [ [ "1"; "x" ]; [ "2"; "y" ] ];
           more = true;
           exec_seconds = 0.125;
         };
       P.Result
         {
           names = [];
           dtypes = [];
           total_rows = 0;
           rows = [];
           more = false;
           exec_seconds = 0.0;
         };
       P.Rows { rows = [ [ "tab\there"; "newline\nthere" ]; [ ""; "" ] ]; more = false };
       P.Ack;
     ]
    @ List.map (fun e -> P.Err e) all_errs)

(* ---- golden frames ------------------------------------------------------ *)

(* The exact bytes of the frames whose OCaml types are shared with the
   engine (the Hello priority, every error class): a change to either
   type must not move a byte on the wire. *)
let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let golden_requests =
  [
    ( P.Hello { client = "golden"; priority = Sched.Low; deadline_seconds = None },
      "00000015010100000006676f6c64656e007ff8000000000001" );
    ( P.Hello { client = "golden"; priority = Sched.Normal; deadline_seconds = Some 2.5 },
      "00000015010100000006676f6c64656e014004000000000000" );
    ( P.Hello { client = "golden"; priority = Sched.High; deadline_seconds = Some 0.25 },
      "00000015010100000006676f6c64656e023fd0000000000000" );
  ]

let golden_errs =
  [
    (P.Query (QE.Trap "division by zero"), "000000168601000000106469766973696f6e206279207a65726f");
    ( P.Query (QE.Compile_failed (Aeq_backend.Cost_model.Unopt, "backend exploded")),
      "0000002586020000000b756e6f7074696d697a6564000000106261636b656e64206578706c6f646564" );
    (P.Query (QE.Timeout 1.5), "0000000a86033ff8000000000000");
    (P.Query QE.Cancelled, "000000028604");
    ( P.Query (QE.Memory_budget_exceeded { budget_bytes = 1024; used_bytes = 2048 }),
      "00000012860500000000000004000000000000000800" );
    (P.Query (QE.Overloaded { queue_depth = 9; capacity = 8 }), "0000000a86060000000900000008");
    (P.Query (QE.Rejected "draining"), "0000000e860700000008647261696e696e67");
    ( P.Query (QE.Worker_crashed { domain = "dispatcher-0"; detail = "boom" }),
      "0000001a86080000000c646973706174636865722d3000000004626f6f6d" );
    (P.Query (QE.Parse_failed "unexpected token"), "00000016860900000010756e657870656374656420746f6b656e");
    (P.Query (QE.Plan_failed "no such table"), "00000013860a0000000d6e6f2073756368207461626c65");
    (P.Protocol_violation "frame too large", "00000015860b0000000f6672616d6520746f6f206c61726765");
  ]

let test_golden_frames () =
  List.iter
    (fun (r, want) -> Alcotest.(check string) "hello bytes" want (hex (P.encode_request r)))
    golden_requests;
  List.iter
    (fun (e, want) ->
      Alcotest.(check string) (P.err_to_string e) want (hex (P.encode_response (P.Err e))))
    golden_errs

(* Code 12 and a Compile_failed naming no execution mode are not
   frames any server sends: the decoder refuses them. *)
let test_unknown_err_rejected () =
  let err_payload fill =
    let b = Buffer.create 16 in
    Buffer.add_char b '\x86';
    fill b;
    Buffer.contents b
  in
  let str b s =
    Buffer.add_int32_be b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  List.iter
    (fun (what, payload) ->
      match P.decode_response payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" what)
    [
      ("error code 12", err_payload (fun b -> Buffer.add_char b '\x0c'; str b "catch-all"));
      ( "unknown mode",
        err_payload (fun b -> Buffer.add_char b '\x02'; str b "turbo"; str b "detail") );
    ]

(* ---- hostile input: decode is total ----------------------------------- *)

let test_fuzz_decode () =
  let rng = Aeq_util.Prng.create 0xF00DL in
  for _ = 1 to 2000 do
    let len = Aeq_util.Prng.int rng 65 in
    let payload = String.init len (fun _ -> Char.chr (Aeq_util.Prng.int rng 256)) in
    (match P.decode_request payload with Ok _ | Error _ -> ());
    match P.decode_response payload with Ok _ | Error _ -> ()
  done;
  (* every truncation of every valid frame decodes to Error or Ok,
     never an exception *)
  let victims =
    List.map P.encode_request
      [
        P.Hello { client = "trunc"; priority = Sched.High; deadline_seconds = Some 1. };
        P.Execute "select 1";
        P.Fetch 10;
      ]
    @ List.map P.encode_response
        [
          P.Result
            {
              names = [ "a" ];
              dtypes = [ "int64" ];
              total_rows = 1;
              rows = [ [ "1" ] ];
              more = false;
              exec_seconds = 0.5;
            };
          P.Err (P.Query (QE.Overloaded { queue_depth = 1; capacity = 1 }));
        ]
  in
  List.iter
    (fun frame ->
      let payload = payload_of_frame frame in
      for cut = 0 to String.length payload - 1 do
        let sub = String.sub payload 0 cut in
        (match P.decode_request sub with Ok _ | Error _ -> ());
        match P.decode_response sub with Ok _ | Error _ -> ()
      done;
      (* trailing garbage must be rejected, not ignored *)
      let padded = payload ^ "\x00" in
      match (P.decode_request padded, P.decode_response padded) with
      | Error _, Error _ -> ()
      | _ -> Alcotest.fail "trailing bytes were accepted")
    victims;
  (* a hostile list count must not drive a huge allocation *)
  let bomb = "\x84" ^ "\xff\xff\xff\xff" in
  (match P.decode_response bomb with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hostile row count accepted")

(* ---- framed socket I/O ------------------------------------------------- *)

let test_frame_io () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let frame = P.encode_request (P.Execute "select 1") in
      (match P.write_frame a frame with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed");
      (match P.read_frame b with
      | Ok payload ->
        Alcotest.(check string) "payload survives" (payload_of_frame frame) payload
      | Error _ -> Alcotest.fail "read failed");
      (* a declared length over the bound is refused without reading it *)
      let huge = Bytes.create 4 in
      Bytes.set_uint8 huge 0 0x7f;
      ignore (Unix.write a huge 0 4);
      (match P.read_frame ~max_bytes:1024 b with
      | Error (`Too_large n) ->
        Alcotest.(check bool) "declared length reported" true (n > 1024)
      | _ -> Alcotest.fail "oversized frame not refused");
      (* EOF surfaces as `Eof *)
      Unix.close a;
      match P.read_frame b with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "closed peer not reported as Eof")

(* ---- end-to-end over the wire ------------------------------------------ *)

let test_end_to_end () =
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let port = Server.port server in
  let sql = "select l_returnflag, count(*) from lineitem group by l_returnflag" in
  (* direct execution is the reference *)
  let direct = Aeq.Engine.query e sql in
  let expect =
    List.map (String.split_on_char '\t') (Aeq.Engine.render_rows e direct)
  in
  let c = ok_or_fail "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r = ok_or_fail "execute" (Client.execute c sql) in
  Alcotest.(check (list string)) "names" direct.Aeq_exec.Driver.names r.Client.names;
  Alcotest.(check int) "row count" (List.length expect) (List.length r.Client.rows);
  let sorted = List.sort compare in
  Alcotest.(check bool) "rows match direct execution" true
    (sorted expect = sorted r.Client.rows);
  (* errors come back structured, and the session survives them *)
  (match Client.execute c "select broken syntax from" with
  | Error (Client.Wire (P.Query (QE.Parse_failed _))) -> ()
  | Error err ->
    Alcotest.failf "expected Parse_failed, got %s" (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "garbage SQL executed");
  (match Client.execute c "select count(*) from no_such_table" with
  | Error (Client.Wire (P.Query (QE.Plan_failed _))) -> ()
  | Error err ->
    Alcotest.failf "expected Plan_failed, got %s" (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "unknown table executed");
  let again = ok_or_fail "execute after errors" (Client.execute c sql) in
  Alcotest.(check int) "session survived the errors"
    (List.length expect) (List.length again.Client.rows)

let test_prepared_and_paging () =
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  let config = { Server.default_config with port = 0; fetch_size = 2 } in
  with_server ~config e @@ fun server ->
  let port = Server.port server in
  let sql = "select l_orderkey from lineitem order by l_orderkey limit 7" in
  let c1 = ok_or_fail "connect c1" (Client.connect ~port ()) in
  let stmt, cached1 = ok_or_fail "prepare" (Client.prepare c1 sql) in
  Alcotest.(check bool) "first prepare is a compile" false cached1;
  (* paging: fetch_size 2 and 7 rows means Result + 3 Fetch pages *)
  let r = ok_or_fail "execute prepared" (Client.execute_prepared c1 stmt) in
  Alcotest.(check int) "all pages fetched" 7 (List.length r.Client.rows);
  Client.close c1;
  (* a second session sees the plan-cache hit *)
  let c2 = ok_or_fail "connect c2" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  let _, cached2 = ok_or_fail "re-prepare" (Client.prepare c2 sql) in
  Alcotest.(check bool) "second session finds it cached" true cached2;
  (* unknown prepared handle: structured violation, then close *)
  match Client.execute_prepared c2 999 with
  | Error (Client.Wire (P.Protocol_violation _)) -> ()
  | Error err ->
    Alcotest.failf "expected Protocol_violation, got %s" (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "unknown statement executed"

(* A wire Execute of a cached statement runs no front end: the server
   submits the text and the engine's plan cache answers, so the second
   request records neither a [parse] nor a [plan] span. An injected
   fault while preparing answers as a structured trap. *)
let test_cached_execute_skips_front_end () =
  Aeq_obs.Control.with_enabled true @@ fun () ->
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let c = ok_or_fail "connect" (Client.connect ~port:(Server.port server) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let sql = "select count(*) from region" in
  ignore (ok_or_fail "first execute" (Client.execute c sql));
  Aeq_obs.Event_log.clear ();
  ignore (ok_or_fail "second execute" (Client.execute c sql));
  let spans =
    List.filter_map
      (fun ev ->
        match ev.Aeq_obs.Event_log.kind with
        | Aeq_obs.Event_log.Span n -> Some n
        | Aeq_obs.Event_log.Decision _ -> None)
      (Aeq_obs.Event_log.snapshot ())
  in
  Alcotest.(check bool) "the cached query executed" true (List.mem "execute" spans);
  Alcotest.(check (list string)) "no parse or plan span" []
    (List.filter (fun n -> n = "parse" || n = "plan") spans);
  FP.clear ();
  Fun.protect ~finally:FP.clear @@ fun () ->
  FP.activate "compile.singleflight" FP.Fail;
  match Client.prepare c "select count(*) from nation" with
  | Error (Client.Wire (P.Query (QE.Trap _))) -> ()
  | Error err -> Alcotest.failf "expected Trap, got %s" (Client.error_to_string err)
  | Ok _ -> Alcotest.fail "prepare succeeded under an injected fault"

(* A wire client prints a query's failure exactly as an in-process
   caller does. *)
let test_wire_error_text () =
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let sql = "select l_quantity / (l_linenumber - l_linenumber) from lineitem" in
  let direct =
    match Aeq.Engine.query e sql with
    | _ -> Alcotest.fail "division by zero ran in process"
    | exception QE.Error qe -> QE.to_string qe
  in
  let c = ok_or_fail "connect" (Client.connect ~port:(Server.port server) ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.execute c sql with
  | Ok _ -> Alcotest.fail "division by zero ran over the wire"
  | Error err -> Alcotest.(check string) "same text" direct (Client.error_to_string err)

(* The load generator tallies a failure under the label the engine's
   [aeq_query_errors_total] carries for it. *)
let test_loadgen_label () =
  Aeq_obs.Control.with_enabled true @@ fun () ->
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let s =
    Aeq_net.Loadgen.run
      {
        Aeq_net.Loadgen.default_config with
        port = Server.port server;
        rate = 20.0;
        duration_seconds = 0.2;
        connections = 1;
        (* traps in every mode, so every arrival fails the same way *)
        statements = [ "select l_quantity / (l_linenumber - l_linenumber) from lineitem" ];
      }
  in
  Alcotest.(check bool) "some arrival was sent" true (s.Aeq_net.Loadgen.attempted > 0);
  Alcotest.(check (list (pair string int)))
    "every failure is trap"
    [ ("trap", s.attempted) ]
    s.failed;
  let counted =
    List.exists
      (fun s ->
        s.Aeq_obs.Metrics.s_name = "aeq_query_errors_total"
        && List.assoc_opt "error" s.Aeq_obs.Metrics.s_labels = Some "trap"
        && s.Aeq_obs.Metrics.s_value <> Aeq_obs.Metrics.Counter 0)
      (Aeq.Engine.metrics ())
  in
  Alcotest.(check bool) "aeq_query_errors_total carries the same label" true counted

(* ---- connection limit --------------------------------------------------- *)

let test_connection_limit () =
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  let config = { Server.default_config with port = 0; max_connections = 1 } in
  with_server ~config e @@ fun server ->
  let port = Server.port server in
  let c1 = ok_or_fail "first connection" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c1) @@ fun () ->
  (match Client.connect ~port () with
  | Error (Client.Wire (P.Query (QE.Overloaded { queue_depth; capacity }))) ->
    Alcotest.(check int) "capacity reported" 1 capacity;
    Alcotest.(check bool) "depth reported" true (queue_depth >= 1)
  | Error err ->
    Alcotest.failf "expected Overloaded, got %s" (Client.error_to_string err)
  | Ok c2 ->
    Client.close c2;
    Alcotest.fail "connection over the limit was accepted");
  Alcotest.(check int) "shed counter" 1 (Server.connections_shed server);
  (* the slot frees up when the session closes *)
  Client.close c1;
  eventually "slot released" (fun () -> Server.active_sessions server = 0);
  let c3 = ok_or_fail "connection after release" (Client.connect ~port ()) in
  Client.close c3

(* ---- hostile bytes over a live socket ----------------------------------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let read_response_payload fd =
  match P.read_frame fd with
  | Ok payload -> Some payload
  | Error _ -> None

let test_malformed_over_socket () =
  Sup.clear_crash_log ();
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let port = Server.port server in
  let rng = Aeq_util.Prng.create 0xBEEFL in
  for _ = 1 to 25 do
    let fd = raw_connect port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = 1 + Aeq_util.Prng.int rng 48 in
        let garbage =
          String.init len (fun _ -> Char.chr (Aeq_util.Prng.int rng 256))
        in
        let frame = Bytes.create (4 + len) in
        Bytes.set_int32_be frame 0 (Int32.of_int len);
        Bytes.blit_string garbage 0 frame 4 len;
        ignore (Unix.write fd frame 0 (Bytes.length frame));
        (* the server must answer with a structured error frame or
           close — it never crashes *)
        match read_response_payload fd with
        | None -> ()
        | Some payload -> (
          match P.decode_response payload with
          | Ok (P.Err _) -> ()
          | Ok _ -> Alcotest.fail "garbage was answered with a success frame"
          | Error m -> Alcotest.failf "server sent a malformed frame: %s" m))
  done;
  (* an oversized declared length is refused as a violation *)
  let fd = raw_connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let frame = Bytes.create 4 in
      Bytes.set_int32_be frame 0 0x7fff_ffffl;
      ignore (Unix.write fd frame 0 4);
      match read_response_payload fd with
      | Some payload -> (
        match P.decode_response payload with
        | Ok (P.Err (P.Protocol_violation _)) -> ()
        | _ -> Alcotest.fail "oversized frame not answered with a violation")
      | None -> ());
  (* a live session stays alive after all that hostility *)
  let c = ok_or_fail "connect after fuzz" (Client.connect ~port ()) in
  let r =
    ok_or_fail "query after fuzz" (Client.execute c "select count(*) from region")
  in
  Alcotest.(check int) "one row" 1 (List.length r.Client.rows);
  Client.close c;
  Alcotest.(check int) "no domain crashed during the fuzz" 0
    (List.length (Sup.crash_log ()))

(* ---- out-of-band cancel -------------------------------------------------- *)

let test_cancel_in_flight () =
  FP.clear ();
  Fun.protect ~finally:FP.clear @@ fun () ->
  let e = small_engine () in
  Fun.protect ~finally:(fun () -> Aeq.Engine.close e) @@ fun () ->
  with_server e @@ fun server ->
  let port = Server.port server in
  let c = ok_or_fail "connect" (Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* slow every morsel down so the query is reliably in flight when
     the cancel frame arrives *)
  FP.activate "driver.morsel" (FP.Delay 0.02);
  let result = ref None in
  let runner =
    Thread.create
      (fun () -> result := Some (Client.execute c "select count(*) from lineitem"))
      ()
  in
  Thread.delay 0.1;
  (match Client.cancel c with
  | Ok () -> ()
  | Error err -> Alcotest.failf "cancel failed: %s" (Client.error_to_string err));
  Thread.join runner;
  match !result with
  | Some (Error (Client.Wire (P.Query QE.Cancelled))) -> ()
  | Some (Error (Client.Wire (P.Query (QE.Timeout _)))) ->
    Alcotest.fail "query timed out before the cancel took effect"
  | Some (Ok _) -> Alcotest.fail "query completed despite the cancel"
  | Some (Error err) ->
    Alcotest.failf "expected Cancelled, got %s" (Client.error_to_string err)
  | None -> Alcotest.fail "runner thread produced nothing"

(* ---- drain over the wire -------------------------------------------------- *)

let test_drain_over_the_wire () =
  FP.clear ();
  Fun.protect ~finally:FP.clear @@ fun () ->
  let e = small_engine () in
  let config = { Server.default_config with port = 0 } in
  let server = Server.start ~config e in
  let port = Server.port server in
  Server.install_signal_handlers ~deadline_seconds:15.0 server;
  let c = ok_or_fail "connect" (Client.connect ~port ()) in
  (* keep a query in flight across the SIGTERM *)
  FP.activate "driver.morsel" (FP.Delay 0.005);
  let result = ref None in
  let runner =
    Thread.create
      (fun () -> result := Some (Client.execute c "select count(*) from lineitem"))
      ()
  in
  Thread.delay 0.08;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* the in-flight query still completes its response *)
  Thread.join runner;
  (match !result with
  | Some (Ok r) -> Alcotest.(check int) "in-flight rows arrive" 1 (List.length r.Client.rows)
  | Some (Error err) ->
    Alcotest.failf "in-flight query lost to the drain: %s"
      (Client.error_to_string err)
  | None -> Alcotest.fail "runner produced nothing");
  FP.clear ();
  (* the server reaches Stopped within the deadline and the engine is
     closed behind it *)
  let t0 = Unix.gettimeofday () in
  let clean = Server.wait server in
  Alcotest.(check bool) "drain finished inside the deadline" true
    (Unix.gettimeofday () -. t0 < 15.0);
  Alcotest.(check bool) "drain completed cleanly" true clean;
  Alcotest.(check bool) "engine closed by the drain" true (Aeq.Engine.closed e);
  (* new connections are refused outright *)
  (match Client.connect ~port () with
  | Ok c2 ->
    Client.close c2;
    Alcotest.fail "connection accepted after drain"
  | Error (Client.Transport _) -> ()
  | Error (Client.Wire err) ->
    Alcotest.failf "expected a refused connect, got %s" (P.err_to_string err));
  Client.close c

let () =
  Alcotest.run "net"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trips" `Quick test_roundtrip_requests;
          Alcotest.test_case "response round-trips" `Quick test_roundtrip_responses;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "unknown error code and mode rejected" `Quick
            test_unknown_err_rejected;
          Alcotest.test_case "hostile decode is total" `Quick test_fuzz_decode;
          Alcotest.test_case "framed socket io" `Quick test_frame_io;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "prepared + paging" `Quick test_prepared_and_paging;
          Alcotest.test_case "cached execute skips the front end" `Quick
            test_cached_execute_skips_front_end;
          Alcotest.test_case "wire error text" `Quick test_wire_error_text;
          Alcotest.test_case "loadgen label" `Quick test_loadgen_label;
          Alcotest.test_case "connection limit" `Quick test_connection_limit;
          Alcotest.test_case "malformed over socket" `Quick test_malformed_over_socket;
          Alcotest.test_case "cancel in flight" `Quick test_cancel_in_flight;
          Alcotest.test_case "drain over the wire" `Quick test_drain_over_the_wire;
        ] );
    ]
