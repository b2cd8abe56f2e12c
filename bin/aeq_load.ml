(* The open-loop load generator CLI: drive a running aeq_server at a
   fixed offered rate and report the latency distribution.

     dune exec bin/aeq_load.exe -- --port 7878 --rate 100 \
       --duration 10 --connections 16 --out BENCH_serving.json

   Latency is measured from each arrival's *scheduled* instant
   (seeded Poisson process), so queueing delay behind a saturated
   server is reported, not silently absorbed (no coordinated
   omission). With aeq_server it is the one way to load the serving
   stack from outside a test. *)

open Cmdliner

let run host port rate duration connections seed sql tpch prepared priority
    deadline out =
  let statements =
    match (tpch, sql) with
    | [], [] -> [ "select count(*) from lineitem" ]
    | tpch, sql -> List.map Aeq_workload.Queries.tpch_q tpch @ sql
  in
  let cfg =
    {
      Aeq_net.Loadgen.host;
      port;
      rate;
      duration_seconds = duration;
      connections;
      seed = Int64.of_int seed;
      statements;
      use_prepared = prepared;
      priority;
      deadline_seconds = deadline;
    }
  in
  let s = Aeq_net.Loadgen.run cfg in
  let json =
    Aeq_net.Loadgen.summary_to_json
      ~extra:
        [
          ("rate_requested_qps", Aeq_obs.Json.Num rate);
          ("connections", Aeq_obs.Json.Num (Float.of_int connections));
          ("seed", Aeq_obs.Json.Num (Float.of_int seed));
        ]
      s
  in
  (match out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Aeq_obs.Json.to_string json ^ "\n");
    close_out oc;
    Printf.printf "wrote %s\n" path);
  Printf.printf
    "offered %.1f qps, achieved %.1f qps (%d/%d completed, %d attempted)\n\
     latency p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n%!"
    s.Aeq_net.Loadgen.offered_rate s.achieved_rate s.completed s.offered
    s.attempted (s.p50_seconds *. 1e3) (s.p95_seconds *. 1e3)
    (s.p99_seconds *. 1e3) (s.max_seconds *. 1e3);
  if s.failed <> [] then begin
    print_string "errors:";
    List.iter (fun (l, c) -> Printf.printf " %s=%d" l c) s.failed;
    print_newline ()
  end;
  if s.connect_errors > 0 then
    Printf.printf "connect errors: %d\n" s.connect_errors

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")

let port = Arg.(value & opt int 7878 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")

let rate =
  Arg.(
    value & opt float 50.0
    & info [ "rate" ] ~docv:"QPS" ~doc:"Offered arrival rate (Poisson), queries/second.")

let duration =
  Arg.(
    value & opt float 5.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Arrival schedule length.")

let connections =
  Arg.(
    value & opt int 8
    & info [ "connections" ] ~docv:"N" ~doc:"Wire connections (worker threads).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Arrival schedule seed.")

let sql =
  Arg.(
    value & opt_all string []
    & info [ "sql" ] ~docv:"SQL" ~doc:"Statement to drive (repeatable; round-robin).")

let tpch =
  Arg.(
    value & opt_all int []
    & info [ "tpch" ] ~docv:"N" ~doc:"TPC-H query number to drive (repeatable).")

let prepared =
  Arg.(
    value & flag
    & info [ "prepared" ] ~doc:"Prepare once per connection, then Execute_prepared.")

let priority =
  let classes =
    List.map
      (fun p -> (Aeq_exec.Scheduler.priority_name p, p))
      Aeq_exec.Scheduler.[ Low; Normal; High ]
  in
  Arg.(
    value
    & opt (enum classes) Aeq_exec.Scheduler.Normal
    & info [ "priority" ] ~docv:"CLASS" ~doc:"Admission class: low, normal or high.")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-query deadline.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON summary here (e.g. BENCH_serving.json).")

let cmd =
  let doc = "open-loop load generator for aeq_server" in
  Cmd.v
    (Cmd.info "aeq_load" ~doc)
    Term.(
      const run $ host $ port $ rate $ duration $ connections $ seed $ sql
      $ tpch $ prepared $ priority $ deadline $ out)

let () = Stdlib.exit (Cmd.eval cmd)
