(* The wire server binary: load a TPC-H database, bind the wire and
   metrics listeners, serve until SIGTERM/SIGINT drains it, then report
   whether the drain completed cleanly or was forced at its deadline.

     dune exec bin/aeq_server.exe -- --sf 0.01 --port 7878 \
       --metrics-port 9187
     curl -s localhost:9187/metrics | head *)

open Cmdliner

let serve port metrics_port sf threads max_connections queue_capacity
    fetch_size drain_deadline =
  (* keep the default's 48/64 degradation depth: [Scheduler.claim]
     degrades a ticket only while more than [shed_queue_depth] others
     stay queued, so the default 48 never fires under a queue of 49 or
     less *)
  let scheduler_config =
    Option.map
      (fun queue_capacity ->
        {
          Aeq_exec.Scheduler.default_config with
          queue_capacity;
          shed_queue_depth = 3 * queue_capacity / 4;
        })
      queue_capacity
  in
  let engine = Aeq.Engine.create ?n_threads:threads ?scheduler_config () in
  Aeq.Engine.load_tpch engine ~scale_factor:sf;
  let config = { Aeq_net.Server.port; metrics_port; max_connections; fetch_size } in
  let server = Aeq_net.Server.start ~config engine in
  Aeq_net.Server.install_signal_handlers ~deadline_seconds:drain_deadline
    server;
  Printf.printf "aeq_server: serving on 127.0.0.1:%d%s (sf=%g, %d threads, %d \
                 connections max)\n%!"
    (Aeq_net.Server.port server)
    (match Aeq_net.Server.metrics_port server with
    | Some p -> Printf.sprintf ", metrics on 127.0.0.1:%d" p
    | None -> "")
    sf (Aeq.Engine.n_threads engine) max_connections;
  let clean = Aeq_net.Server.wait server in
  Printf.printf "drain %s\n"
    (if clean then "completed cleanly" else "forced at deadline");
  print_endline "aeq_server: stopped"

let port =
  Arg.(value & opt int 7878 & info [ "port" ] ~docv:"PORT" ~doc:"Wire port (0 = ephemeral).")

let metrics_port =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:"HTTP port for /metrics and /healthz (0 = ephemeral; omit to disable).")

let sf =
  Arg.(value & opt float 0.01 & info [ "sf" ] ~docv:"SF" ~doc:"TPC-H scale factor.")

let threads =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N" ~doc:"Worker pool size (default: cores, max 8).")

let max_connections =
  Arg.(
    value & opt int 64
    & info [ "max-connections" ] ~docv:"N"
        ~doc:"Connection limit; excess connections are shed with a structured \
              Overloaded frame.")

let queue_capacity =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:"Admission queue bound; a query dispatched while more than 3N/4 \
              others wait runs bytecode-only.")

let fetch_size =
  Arg.(value & opt int 256 & info [ "fetch-size" ] ~docv:"ROWS" ~doc:"Rows per result page.")

let drain_deadline =
  Arg.(
    value & opt float 30.0
    & info [ "drain-deadline" ] ~docv:"SECONDS"
        ~doc:"SIGTERM drain deadline: in-flight queries get this long to finish.")

let cmd =
  let doc = "serve the adaptive query engine over the wire protocol" in
  Cmd.v
    (Cmd.info "aeq_server" ~doc)
    Term.(
      const serve $ port $ metrics_port $ sf $ threads $ max_connections
      $ queue_capacity $ fetch_size $ drain_deadline)

let () = Stdlib.exit (Cmd.eval cmd)
