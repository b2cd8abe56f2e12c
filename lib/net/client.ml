module P = Protocol

type error = Wire of P.err | Transport of string

let error_to_string = function
  | Wire e -> P.err_to_string e
  | Transport m -> "transport: " ^ m

type t = {
  fd : Unix.file_descr;
  max_frame_bytes : int;
  mutable cl_fetch_size : int;
  mutable closed : bool;
}

let fetch_size t = t.cl_fetch_size

let transport_of_read = function
  | `Eof -> Transport "connection closed by server"
  | `Too_large n -> Transport (Printf.sprintf "oversized frame (%d bytes)" n)

let send t req =
  match P.write_frame t.fd (P.encode_request req) with
  | Ok () -> Ok ()
  | Error `Closed -> Error (Transport "connection closed by server")

(* Read the next response frame. Stray [Ack]s (the reply to a [Cancel]
   that raced the query's completion) are skipped unless asked for. *)
let rec recv ?(accept_ack = false) t =
  match P.read_frame ~max_bytes:t.max_frame_bytes t.fd with
  | Error e -> Error (transport_of_read e)
  | Ok payload -> (
    match P.decode_response payload with
    | Error m -> Error (Transport ("malformed response: " ^ m))
    | Ok P.Ack when not accept_ack -> recv ~accept_ack t
    | Ok resp -> Ok resp)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let connect ?(host = "127.0.0.1") ?(client = "aeq-client")
    ?(priority = Aeq_exec.Scheduler.Normal) ?deadline_seconds ~port () =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Transport (Unix.error_message e))
  | fd -> (
    let fail e =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e
    in
    match
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    with
    | exception Unix.Unix_error (e, _, _) ->
      fail (Transport (Unix.error_message e))
    | () -> (
      let t =
        {
          fd;
          max_frame_bytes = P.default_max_frame_bytes;
          cl_fetch_size = 256;
          closed = false;
        }
      in
      match
        let* () = send t (P.Hello { client; priority; deadline_seconds }) in
        recv t
      with
      | Ok (P.Hello_ok { fetch_size; _ }) ->
        t.cl_fetch_size <- fetch_size;
        Ok t
      | Ok (P.Err e) -> fail (Wire e)
      | Ok _ -> fail (Transport "unexpected handshake response")
      | Error e -> fail e))

type rows = {
  names : string list;
  dtypes : string list;
  rows : string list list;
  exec_seconds : float;
}

let prepare t sql =
  let* () = send t (P.Prepare sql) in
  match recv t with
  | Ok (P.Prepare_ok { stmt_id; cached }) -> Ok (stmt_id, cached)
  | Ok (P.Err e) -> Error (Wire e)
  | Ok _ -> Error (Transport "unexpected response to Prepare")
  | Error e -> Error e

let rec fetch_rest t acc =
  let* () = send t (P.Fetch t.cl_fetch_size) in
  match recv t with
  | Ok (P.Rows { rows; more }) ->
    let acc = acc @ rows in
    if more then fetch_rest t acc else Ok acc
  | Ok (P.Err e) -> Error (Wire e)
  | Ok _ -> Error (Transport "unexpected response to Fetch")
  | Error e -> Error e

let run_result t = function
  | P.Result { names; dtypes; total_rows = _; rows; more; exec_seconds } ->
    let* rows = if more then fetch_rest t rows else Ok rows in
    Ok { names; dtypes; rows; exec_seconds }
  | P.Err e -> Error (Wire e)
  | _ -> Error (Transport "unexpected response to Execute")

let execute t sql =
  let* () = send t (P.Execute sql) in
  let* resp = recv t in
  run_result t resp

let execute_prepared t stmt_id =
  let* () = send t (P.Execute_prepared stmt_id) in
  let* resp = recv t in
  run_result t resp

let cancel t = send t P.Cancel

let close t =
  if not t.closed then begin
    t.closed <- true;
    ignore (P.write_frame t.fd (P.encode_request P.Close));
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
