(* The wire server. Sessions are systhreads (they block on sockets and
   scheduler tickets, not CPU), the engine's domains do the work. *)

module Engine = Aeq.Engine
module P = Protocol

let () = Aeq_race.declare "net.server.sessions" (Aeq_race.Lock "net.server.lock")

let () = Aeq_race.declare "net.session.state" (Aeq_race.Lock "net.session.lock")

let () = Aeq_race.declare "net.server.lifecycle" Aeq_race.Atomic

type config = {
  port : int;
  metrics_port : int option;
  max_connections : int;
  fetch_size : int;
}

let default_config =
  {
    port = 7878;
    metrics_port = None;
    max_connections = 64;
    fetch_size = 256;
  }

(* advertised in [Hello_ok] *)
let server_name = "aeq"

(* execution mode of every submitted query *)
let mode = Aeq_exec.Driver.Adaptive

(* lifecycle values (the "net.server.lifecycle" atomic) *)
let lc_serving = 0

let lc_draining = 1

let lc_stopped = 2

type session = {
  ss_id : int;
  ss_fd : Unix.file_descr;
  ss_lock : Aeq_race.Lock.t;
  ss_loc : Aeq_race.location;
  mutable ss_busy : bool;  (* a query is in flight for this session *)
  mutable ss_shut : bool;  (* drain already shut the socket down *)
  mutable ss_thread : Thread.t option;
}

type t = {
  sv_engine : Engine.t;
  sv_config : config;
  sv_wire : Unix.file_descr;
  sv_wire_port : int;
  sv_http : Unix.file_descr option;
  sv_http_port : int option;
  sv_wake_r : Unix.file_descr;
  sv_wake_w : Unix.file_descr;
  sv_lock : Aeq_race.Lock.t;
  sv_loc : Aeq_race.location;
  sv_sessions : (int, session) Hashtbl.t;
  mutable sv_next_id : int;
  mutable sv_shed : int;
  mutable sv_accept : Thread.t option;
  sv_lifecycle : int Atomic.t;
  sv_drain_clean : bool Atomic.t;
      (* false once a drain was forced at its deadline; set before the
         lifecycle reaches stopped *)
}

let bump ?help name =
  if Aeq_obs.Control.enabled () then
    Aeq_obs.Metrics.inc (Aeq_obs.Metrics.counter ?help name)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- session bookkeeping --------------------------------------------- *)

let set_busy ss v =
  Aeq_race.Lock.with_ ss.ss_lock (fun () ->
      Aeq_race.write ~site:"net.session.busy" ss.ss_loc;
      ss.ss_busy <- v)

let is_busy ss =
  Aeq_race.Lock.with_ ss.ss_lock (fun () ->
      Aeq_race.read ~site:"net.session.busy.read" ss.ss_loc;
      ss.ss_busy)

(* Drain-side wakeup: shutdown unblocks the session thread's read
   without freeing the descriptor number (only the session thread ever
   closes the fd, so a recycled number can never be shut down by
   mistake). *)
let shutdown_session ss =
  Aeq_race.Lock.with_ ss.ss_lock (fun () ->
      Aeq_race.write ~site:"net.session.shutdown" ss.ss_loc;
      if not ss.ss_shut then begin
        ss.ss_shut <- true;
        try Unix.shutdown ss.ss_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end)

let session_thread ss =
  Aeq_race.Lock.with_ ss.ss_lock (fun () ->
      Aeq_race.read ~site:"net.session.thread" ss.ss_loc;
      ss.ss_thread)

let remove_session t ss =
  close_quietly ss.ss_fd;
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.write ~site:"net.session.remove" t.sv_loc;
      Hashtbl.remove t.sv_sessions ss.ss_id)

let snapshot_sessions t =
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.read ~site:"net.sessions.snapshot" t.sv_loc;
      Hashtbl.fold (fun _ ss acc -> ss :: acc) t.sv_sessions [])

let active_sessions t =
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.read ~site:"net.sessions.count" t.sv_loc;
      Hashtbl.length t.sv_sessions)

let connections_shed t =
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.read ~site:"net.shed.read" t.sv_loc;
      t.sv_shed)

(* ---- the session protocol loop --------------------------------------- *)

let send fd resp = P.write_frame fd (P.encode_response resp)

let send_ignore fd resp = ignore (send fd resp)

let rec take_rows n = function
  | [] -> ([], [])
  | rest when n <= 0 -> ([], rest)
  | r :: tl ->
    let page, rest = take_rows (n - 1) tl in
    (r :: page, rest)

(* [Engine.prepare] raises [Query_error.Error] for every query failure,
   malformed SQL included; only a domain crash passes through. *)
let prepare_stmt engine sql =
  let cached = Engine.prepared engine sql in
  match Engine.prepare engine sql with
  | () -> Ok cached
  | exception Aeq_exec.Query_error.Error e -> Error (P.Query e)

type inflight_note = Quiet | Gone | Violation of string | Close_after

(* Await the ticket while watching the socket: an out-of-band [Cancel]
   frame must take effect while the query it cancels is running. *)
let await_multiplexed tk ~fd ~cancel =
  let note = ref Quiet in
  let flag n = if !note = Quiet then note := n in
  let rec loop () =
    match Aeq_exec.Scheduler.poll tk with
    | Some outcome -> (outcome, !note)
    | None ->
      let readable =
        match Unix.select [ fd ] [] [] 0.002 with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          flag Gone;
          Aeq_exec.Cancel.cancel cancel;
          false
      in
      if readable then begin
        match P.read_frame fd with
        | Ok payload -> (
          match P.decode_request payload with
          | Ok P.Cancel -> Aeq_exec.Cancel.cancel cancel
          | Ok P.Close ->
            flag Close_after;
            Aeq_exec.Cancel.cancel cancel
          | Ok _ ->
            flag (Violation "request while a query is in flight");
            Aeq_exec.Cancel.cancel cancel
          | Error m ->
            flag (Violation m);
            Aeq_exec.Cancel.cancel cancel)
        | Error `Eof ->
          flag Gone;
          Aeq_exec.Cancel.cancel cancel
        | Error (`Too_large n) ->
          flag (Violation (Printf.sprintf "frame of %d bytes exceeds limit" n));
          Aeq_exec.Cancel.cancel cancel
      end;
      loop ()
  in
  loop ()

let build_result t pending r =
  let { Aeq_exec.Driver.names; dtypes; stats; _ } = r in
  let cells =
    List.map (String.split_on_char '\t') (Engine.render_rows t.sv_engine r)
  in
  let total = List.length cells in
  let page, rest = take_rows t.sv_config.fetch_size cells in
  pending := rest;
  P.Result
    {
      names;
      dtypes = List.map Aeq_storage.Dtype.to_string dtypes;
      total_rows = total;
      rows = page;
      more = rest <> [];
      exec_seconds = stats.Aeq_exec.Driver.exec_seconds;
    }

let serve_session t ss ~priority ~deadline_seconds =
  let fd = ss.ss_fd in
  let stmts : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let next_stmt = ref 1 in
  let pending = ref [] in
  let violation msg =
    bump ~help:"Protocol violations answered with a structured error"
      "aeq_net_protocol_errors_total";
    send_ignore fd (P.Err (P.Protocol_violation msg))
  in
  let run_query sql =
    let cancel = Aeq_exec.Cancel.create () in
    let tk =
      Engine.submit ~mode ~priority ?deadline_seconds ~cancel
        t.sv_engine sql
    in
    set_busy ss true;
    let outcome, note =
      Fun.protect
        ~finally:(fun () -> set_busy ss false)
        (fun () -> await_multiplexed tk ~fd ~cancel)
    in
    if note = Gone then `Stop
    else begin
      let resp =
        match outcome with
        | Ok r -> build_result t pending r
        | Error e -> P.Err (P.Query e)
      in
      match send fd resp with
      | Error _ -> `Stop
      | Ok () -> (
        match note with
        | Quiet -> `Continue
        | Gone -> `Stop
        | Violation m ->
          violation m;
          `Stop
        | Close_after ->
          send_ignore fd P.Ack;
          `Stop)
    end
  in
  let rec loop () =
    if Atomic.get t.sv_lifecycle <> lc_serving then ()
    else
      match P.read_frame fd with
      | Error `Eof -> ()
      | Error (`Too_large n) ->
        violation (Printf.sprintf "frame of %d bytes exceeds limit" n)
      | Ok payload -> (
        bump ~help:"Request frames received" "aeq_net_requests_total";
        match P.decode_request payload with
        | Error msg -> violation msg
        | Ok (P.Hello _) -> violation "unexpected Hello on an open session"
        | Ok (P.Prepare sql) -> (
          match prepare_stmt t.sv_engine sql with
          | Error err ->
            send_ignore fd (P.Err err);
            loop ()
          | Ok cached ->
            let id = !next_stmt in
            incr next_stmt;
            Hashtbl.replace stmts id sql;
            send_ignore fd (P.Prepare_ok { stmt_id = id; cached });
            loop ())
        | Ok (P.Execute sql) -> (
          match run_query sql with `Continue -> loop () | `Stop -> ())
        | Ok (P.Execute_prepared id) -> (
          match Hashtbl.find_opt stmts id with
          | None -> violation (Printf.sprintf "unknown prepared statement %d" id)
          | Some sql -> (
            match run_query sql with `Continue -> loop () | `Stop -> ()))
        | Ok (P.Fetch n) ->
          let page, rest = take_rows n !pending in
          pending := rest;
          send_ignore fd (P.Rows { rows = page; more = rest <> [] });
          loop ()
        | Ok P.Cancel ->
          (* nothing in flight on this session: benign *)
          send_ignore fd P.Ack;
          loop ()
        | Ok P.Close -> send_ignore fd P.Ack)
  in
  loop ()

let handshake t ss =
  match P.read_frame ss.ss_fd with
  | Error `Eof -> None
  | Error (`Too_large n) ->
    send_ignore ss.ss_fd
      (P.Err
         (P.Protocol_violation
            (Printf.sprintf "frame of %d bytes exceeds limit" n)));
    None
  | Ok payload -> (
    match P.decode_request payload with
    | Ok (P.Hello { client = _; priority; deadline_seconds }) ->
      (match
         send ss.ss_fd
           (P.Hello_ok
              {
                server = server_name;
                version = P.version;
                fetch_size = t.sv_config.fetch_size;
              })
       with
      | Ok () -> Some (priority, deadline_seconds)
      | Error _ -> None)
    | Ok _ ->
      send_ignore ss.ss_fd
        (P.Err (P.Protocol_violation "expected Hello as the first frame"));
      None
    | Error msg ->
      send_ignore ss.ss_fd (P.Err (P.Protocol_violation msg));
      None)

let session_main t ss =
  Fun.protect
    ~finally:(fun () -> remove_session t ss)
    (fun () ->
      match handshake t ss with
      | None -> ()
      | Some (priority, deadline_seconds) ->
        serve_session t ss ~priority ~deadline_seconds)

(* ---- accepting -------------------------------------------------------- *)

let register_session t fd =
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.write ~site:"net.accept.register" t.sv_loc;
      let active = Hashtbl.length t.sv_sessions in
      if active >= t.sv_config.max_connections then begin
        t.sv_shed <- t.sv_shed + 1;
        Error active
      end
      else begin
        let id = t.sv_next_id in
        t.sv_next_id <- id + 1;
        let ss =
          {
            ss_id = id;
            ss_fd = fd;
            ss_lock = Aeq_race.Lock.create "net.session.lock";
            ss_loc = Aeq_race.locate "net.session.state";
            ss_busy = false;
            ss_shut = false;
            ss_thread = None;
          }
        in
        Hashtbl.replace t.sv_sessions id ss;
        Ok ss
      end)

let handle_wire_accept t =
  match Unix.accept ~cloexec:true t.sv_wire with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> (
    match Aeq_util.Probe.hit "net.accept" with
    | exception Aeq_util.Probe.Injected _ -> close_quietly fd
    | () -> (
      match register_session t fd with
      | Error active ->
        bump ~help:"Connections shed over the connection limit"
          "aeq_net_connections_shed_total";
        send_ignore fd
          (P.Err
             (P.Query
                (Aeq_exec.Query_error.Overloaded
                   { queue_depth = active; capacity = t.sv_config.max_connections })));
        close_quietly fd
      | Ok ss ->
        bump ~help:"Connections accepted" "aeq_net_connections_total";
        let th = Thread.create (fun () -> session_main t ss) () in
        Aeq_race.Lock.with_ ss.ss_lock (fun () ->
            Aeq_race.write ~site:"net.session.thread.set" ss.ss_loc;
            ss.ss_thread <- Some th)))

(* ---- the metrics / health HTTP listener ------------------------------ *)

let http_write fd body =
  let rec wr off =
    if off < String.length body then
      match Unix.write_substring fd body off (String.length body - off) with
      | 0 -> ()
      | n -> wr (off + n)
      | exception Unix.Unix_error _ -> ()
  in
  wr 0

let http_respond fd ~status ~content_type body =
  http_write fd
    (Printf.sprintf
       "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n%s"
       status content_type (String.length body) body)

let handle_http t fd =
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      let readable =
        match Unix.select [ fd ] [] [] 2.0 with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error _ -> false
      in
      if readable then begin
        let buf = Bytes.create 2048 in
        let n = try Unix.read fd buf 0 2048 with Unix.Unix_error _ -> 0 in
        if n > 0 then begin
          let line =
            let s = Bytes.sub_string buf 0 n in
            match String.index_opt s '\r' with
            | Some i -> String.sub s 0 i
            | None -> s
          in
          match String.split_on_char ' ' line with
          | "GET" :: "/metrics" :: _ ->
            http_respond fd ~status:"200 OK"
              ~content_type:Aeq_obs.Metrics.exposition_content_type
              (Engine.render_metrics ())
          | "GET" :: "/healthz" :: _ ->
            let h = Engine.health t.sv_engine in
            let status =
              match h with
              | Engine.Serving | Engine.Degraded _ -> "200 OK"
              | Engine.Draining | Engine.Stopped -> "503 Service Unavailable"
            in
            http_respond fd ~status ~content_type:"text/plain"
              (Engine.health_name h ^ "\n")
          | _ ->
            http_respond fd ~status:"404 Not Found" ~content_type:"text/plain"
              "not found\n"
        end
      end)

let handle_http_accept t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ -> ignore (Thread.create (fun () -> handle_http t fd) ())

(* ---- the accept loop -------------------------------------------------- *)

let accept_loop t =
  let listeners =
    (t.sv_wake_r :: t.sv_wire :: (match t.sv_http with Some f -> [ f ] | None -> []))
  in
  let rec loop () =
    let rs =
      match Unix.select listeners [] [] (-1.0) with
      | rs, _, _ -> rs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.mem t.sv_wake_r rs then
      ignore (try Unix.read t.sv_wake_r (Bytes.create 1) 0 1 with Unix.Unix_error _ -> 0);
    if Atomic.get t.sv_lifecycle = lc_serving then begin
      if List.mem t.sv_wire rs then handle_wire_accept t;
      (match t.sv_http with
      | Some f when List.mem f rs -> handle_http_accept t f
      | _ -> ());
      loop ()
    end
  in
  loop ()

(* ---- lifecycle -------------------------------------------------------- *)

let listen_on port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd 128
   with e ->
     close_quietly fd;
     raise e);
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, actual)

let start ?(config = default_config) engine =
  (* a client that vanishes mid-write must surface as EPIPE, not kill
     the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wire, wire_port = listen_on config.port in
  let http, http_port =
    match config.metrics_port with
    | None -> (None, None)
    | Some p -> (
      match listen_on p with
      | fd, actual -> (Some fd, Some actual)
      | exception e ->
        close_quietly wire;
        raise e)
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      sv_engine = engine;
      sv_config = config;
      sv_wire = wire;
      sv_wire_port = wire_port;
      sv_http = http;
      sv_http_port = http_port;
      sv_wake_r = wake_r;
      sv_wake_w = wake_w;
      sv_lock = Aeq_race.Lock.create "net.server.lock";
      sv_loc = Aeq_race.locate "net.server.sessions";
      sv_sessions = Hashtbl.create 64;
      sv_next_id = 1;
      sv_shed = 0;
      sv_accept = None;
      sv_lifecycle = Atomic.make lc_serving;
      sv_drain_clean = Atomic.make true;
    }
  in
  Aeq_obs.Metrics.gauge_fn ~help:"Active wire sessions"
    "aeq_net_connections_active" (fun () -> active_sessions t);
  Aeq_obs.Metrics.gauge_fn ~help:"Connections shed over the connection limit"
    "aeq_net_connections_shed" (fun () -> connections_shed t);
  let th = Thread.create (fun () -> accept_loop t) () in
  Aeq_race.Lock.with_ t.sv_lock (fun () ->
      Aeq_race.write ~site:"net.server.accept.set" t.sv_loc;
      t.sv_accept <- Some th);
  t

let port t = t.sv_wire_port

let metrics_port t = t.sv_http_port

let draining t = Atomic.get t.sv_lifecycle = lc_draining

let wake t =
  try ignore (Unix.write_substring t.sv_wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* Idempotent: stop the accept thread and close the listeners (new
   connects are then refused at the TCP level). *)
let stop_accepting t =
  let th =
    Aeq_race.Lock.with_ t.sv_lock (fun () ->
        Aeq_race.write ~site:"net.server.accept.take" t.sv_loc;
        let th = t.sv_accept in
        t.sv_accept <- None;
        th)
  in
  match th with
  | None -> ()
  | Some th ->
    wake t;
    Thread.join th;
    close_quietly t.sv_wire;
    (match t.sv_http with Some f -> close_quietly f | None -> ());
    close_quietly t.sv_wake_r;
    close_quietly t.sv_wake_w

let join_sessions t =
  let sessions = snapshot_sessions t in
  List.iter shutdown_session sessions;
  List.iter
    (fun ss -> match session_thread ss with Some th -> Thread.join th | None -> ())
    sessions

let wait t =
  let rec w () =
    if Atomic.get t.sv_lifecycle <> lc_stopped then begin
      Thread.delay 0.05;
      w ()
    end
  in
  w ();
  Atomic.get t.sv_drain_clean

let drain ?(deadline_seconds = 30.) t =
  if not (Atomic.compare_and_set t.sv_lifecycle lc_serving lc_draining) then begin
    (* someone else is already draining (or stopped): wait it out *)
    wait t
  end
  else begin
    let t0 = Aeq_util.Clock.now () in
    stop_accepting t;
    (* in-flight queries finish (or are cancelled at the deadline), the
       health gauge walks Serving -> Draining -> Stopped, the engine
       closes *)
    let ok = Engine.drain ~deadline_seconds t.sv_engine in
    (* let busy sessions flush their final response before the sockets
       are torn down *)
    let rec settle () =
      if
        List.exists is_busy (snapshot_sessions t)
        && Aeq_util.Clock.now () -. t0 < deadline_seconds
      then begin
        Thread.delay 0.005;
        settle ()
      end
    in
    settle ();
    join_sessions t;
    Atomic.set t.sv_drain_clean ok;
    Atomic.set t.sv_lifecycle lc_stopped;
    ok
  end

let stop t =
  let prev = Atomic.exchange t.sv_lifecycle lc_stopped in
  if prev <> lc_stopped then begin
    stop_accepting t;
    join_sessions t
  end

let install_signal_handlers ?(deadline_seconds = 30.) t =
  let requested = Atomic.make false in
  let handler _ =
    (* flag only: a handler must not take locks or drain in place; a
       second signal force-exits *)
    if not (Atomic.compare_and_set requested false true) then Stdlib.exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  ignore
    (Thread.create
       (fun () ->
         let rec watch () =
           if Atomic.get requested then ignore (drain ~deadline_seconds t)
           else if Atomic.get t.sv_lifecycle = lc_stopped then ()
           else begin
             Thread.delay 0.02;
             watch ()
           end
         in
         watch ())
       ())
