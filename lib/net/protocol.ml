(* Length-prefixed binary frames. The codec is a pure function of the
   payload string both ways; socket I/O lives at the bottom with the
   net.read / net.write failpoints, which fail the call as a lost
   peer would. *)

let version = 1

let default_max_frame_bytes = 4 * 1024 * 1024

module QE = Aeq_exec.Query_error
module Sched = Aeq_exec.Scheduler

type request =
  | Hello of {
      client : string;
      priority : Sched.priority;
      deadline_seconds : float option;
    }
  | Prepare of string
  | Execute of string
  | Execute_prepared of int
  | Fetch of int
  | Cancel
  | Close

type err = Query of QE.t | Protocol_violation of string

let err_to_string = function
  | Query e -> QE.to_string e
  | Protocol_violation m -> "protocol violation: " ^ m

type response =
  | Hello_ok of { server : string; version : int; fetch_size : int }
  | Prepare_ok of { stmt_id : int; cached : bool }
  | Result of {
      names : string list;
      dtypes : string list;
      total_rows : int;
      rows : string list list;
      more : bool;
      exec_seconds : float;
    }
  | Rows of { rows : string list list; more : bool }
  | Ack
  | Err of err

(* ---- encoding --------------------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Protocol: u32 out of range (%d)" v);
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_i64 b v =
  for shift = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (shift * 8)) land 0xff))
  done

let put_f64 b v = put_i64 b (Int64.bits_of_float v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let put_rows b rows = put_list b (fun b row -> put_list b put_str row) rows

let priority_code = function Sched.Low -> 0 | Sched.Normal -> 1 | Sched.High -> 2

(* frame type tags; requests are < 0x80, responses ≥ 0x80 *)
let tag_hello = 0x01
let tag_prepare = 0x02
let tag_execute = 0x03
let tag_execute_prepared = 0x04
let tag_fetch = 0x05
let tag_cancel = 0x06
let tag_close = 0x07
let tag_hello_ok = 0x81
let tag_prepare_ok = 0x82
let tag_result = 0x83
let tag_rows = 0x84
let tag_ack = 0x85
let tag_err = 0x86

let frame_of_payload payload =
  let b = Buffer.create (String.length payload + 4) in
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

let with_payload tag fill =
  let b = Buffer.create 64 in
  put_u8 b tag;
  fill b;
  frame_of_payload (Buffer.contents b)

let encode_request = function
  | Hello { client; priority; deadline_seconds } ->
    with_payload tag_hello (fun b ->
        put_u8 b version;
        put_str b client;
        put_u8 b (priority_code priority);
        put_f64 b
          (match deadline_seconds with Some s -> s | None -> Float.nan))
  | Prepare sql -> with_payload tag_prepare (fun b -> put_str b sql)
  | Execute sql -> with_payload tag_execute (fun b -> put_str b sql)
  | Execute_prepared id ->
    with_payload tag_execute_prepared (fun b -> put_u32 b id)
  | Fetch max_rows -> with_payload tag_fetch (fun b -> put_u32 b max_rows)
  | Cancel -> with_payload tag_cancel (fun _ -> ())
  | Close -> with_payload tag_close (fun _ -> ())

(* structured error codes: 1-10 are the [Query_error] classes, 11 a
   protocol violation *)
let put_err b = function
  | Query (QE.Trap m) ->
    put_u8 b 1;
    put_str b m
  | Query (QE.Compile_failed (mode, detail)) ->
    put_u8 b 2;
    put_str b (Aeq_backend.Cost_model.mode_name mode);
    put_str b detail
  | Query (QE.Timeout s) ->
    put_u8 b 3;
    put_f64 b s
  | Query QE.Cancelled -> put_u8 b 4
  | Query (QE.Memory_budget_exceeded { budget_bytes; used_bytes }) ->
    put_u8 b 5;
    put_i64 b (Int64.of_int budget_bytes);
    put_i64 b (Int64.of_int used_bytes)
  | Query (QE.Overloaded { queue_depth; capacity }) ->
    put_u8 b 6;
    put_u32 b queue_depth;
    put_u32 b capacity
  | Query (QE.Rejected m) ->
    put_u8 b 7;
    put_str b m
  | Query (QE.Worker_crashed { domain; detail }) ->
    put_u8 b 8;
    put_str b domain;
    put_str b detail
  | Query (QE.Parse_failed m) ->
    put_u8 b 9;
    put_str b m
  | Query (QE.Plan_failed m) ->
    put_u8 b 10;
    put_str b m
  | Protocol_violation m ->
    put_u8 b 11;
    put_str b m

let encode_response = function
  | Hello_ok { server; version = v; fetch_size } ->
    with_payload tag_hello_ok (fun b ->
        put_u8 b v;
        put_str b server;
        put_u32 b fetch_size)
  | Prepare_ok { stmt_id; cached } ->
    with_payload tag_prepare_ok (fun b ->
        put_u32 b stmt_id;
        put_bool b cached)
  | Result { names; dtypes; total_rows; rows; more; exec_seconds } ->
    with_payload tag_result (fun b ->
        put_list b put_str names;
        put_list b put_str dtypes;
        put_u32 b total_rows;
        put_rows b rows;
        put_bool b more;
        put_f64 b exec_seconds)
  | Rows { rows; more } ->
    with_payload tag_rows (fun b ->
        put_rows b rows;
        put_bool b more)
  | Ack -> with_payload tag_ack (fun _ -> ())
  | Err e -> with_payload tag_err (fun b -> put_err b e)

(* ---- decoding --------------------------------------------------------- *)

exception Bad of string

type cursor = { buf : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.buf then
    raise (Bad (Printf.sprintf "truncated payload (need %d bytes at %d of %d)"
                  n c.pos (String.length c.buf)))

let get_u8 c =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v =
    (Char.code c.buf.[c.pos] lsl 24)
    lor (Char.code c.buf.[c.pos + 1] lsl 16)
    lor (Char.code c.buf.[c.pos + 2] lsl 8)
    lor Char.code c.buf.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code c.buf.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_f64 c = Int64.float_of_bits (get_i64 c)

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_bool c = get_u8 c <> 0

let get_list c get =
  let n = get_u32 c in
  (* each element consumes at least one byte, so a count beyond the
     remaining bytes is malformed — checked up front so a hostile
     count cannot drive a huge allocation loop *)
  need c n;
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (get c :: acc) in
  go n []

let get_rows c = get_list c (fun c -> get_list c get_str)

let get_priority c =
  match get_u8 c with
  | 0 -> Sched.Low
  | 1 -> Sched.Normal
  | 2 -> Sched.High
  | n -> raise (Bad (Printf.sprintf "unknown priority %d" n))

let finished c name v =
  if c.pos <> String.length c.buf then
    raise
      (Bad (Printf.sprintf "%d trailing bytes after %s frame"
              (String.length c.buf - c.pos) name));
  v

let decode payload of_tag =
  if String.length payload = 0 then Error "empty payload"
  else
    let c = { buf = payload; pos = 1 } in
    match of_tag (Char.code payload.[0]) c with
    | v -> Ok v
    | exception Bad m -> Error m

let decode_request payload =
  decode payload (fun tag c ->
      if tag = tag_hello then begin
        let v = get_u8 c in
        if v <> version then
          raise (Bad (Printf.sprintf "protocol version %d (want %d)" v version));
        let client = get_str c in
        let priority = get_priority c in
        let d = get_f64 c in
        let deadline_seconds =
          if Float.is_nan d then None
          else if d <= 0.0 || not (Float.is_finite d) then
            raise (Bad (Printf.sprintf "bad deadline %g" d))
          else Some d
        in
        finished c "hello" (Hello { client; priority; deadline_seconds })
      end
      else if tag = tag_prepare then finished c "prepare" (Prepare (get_str c))
      else if tag = tag_execute then finished c "execute" (Execute (get_str c))
      else if tag = tag_execute_prepared then
        finished c "execute_prepared" (Execute_prepared (get_u32 c))
      else if tag = tag_fetch then finished c "fetch" (Fetch (get_u32 c))
      else if tag = tag_cancel then finished c "cancel" Cancel
      else if tag = tag_close then finished c "close" Close
      else raise (Bad (Printf.sprintf "unknown request frame 0x%02x" tag)))

let get_mode c =
  let name = get_str c in
  match
    List.find_opt
      (fun m -> Aeq_backend.Cost_model.mode_name m = name)
      Aeq_backend.Cost_model.[ Bytecode; Unopt; Opt ]
  with
  | Some m -> m
  | None -> raise (Bad (Printf.sprintf "unknown mode %S" name))

let get_err c =
  match get_u8 c with
  | 1 -> Query (QE.Trap (get_str c))
  | 2 ->
    let mode = get_mode c in
    Query (QE.Compile_failed (mode, get_str c))
  | 3 -> Query (QE.Timeout (get_f64 c))
  | 4 -> Query QE.Cancelled
  | 5 ->
    let budget_bytes = Int64.to_int (get_i64 c) in
    Query
      (QE.Memory_budget_exceeded
         { budget_bytes; used_bytes = Int64.to_int (get_i64 c) })
  | 6 ->
    let queue_depth = get_u32 c in
    Query (QE.Overloaded { queue_depth; capacity = get_u32 c })
  | 7 -> Query (QE.Rejected (get_str c))
  | 8 ->
    let domain = get_str c in
    Query (QE.Worker_crashed { domain; detail = get_str c })
  | 9 -> Query (QE.Parse_failed (get_str c))
  | 10 -> Query (QE.Plan_failed (get_str c))
  | 11 -> Protocol_violation (get_str c)
  | n -> raise (Bad (Printf.sprintf "unknown error code %d" n))

let decode_response payload =
  decode payload (fun tag c ->
      if tag = tag_hello_ok then begin
        let version = get_u8 c in
        let server = get_str c in
        finished c "hello_ok" (Hello_ok { server; version; fetch_size = get_u32 c })
      end
      else if tag = tag_prepare_ok then begin
        let stmt_id = get_u32 c in
        finished c "prepare_ok" (Prepare_ok { stmt_id; cached = get_bool c })
      end
      else if tag = tag_result then begin
        let names = get_list c get_str in
        let dtypes = get_list c get_str in
        let total_rows = get_u32 c in
        let rows = get_rows c in
        let more = get_bool c in
        finished c "result"
          (Result { names; dtypes; total_rows; rows; more; exec_seconds = get_f64 c })
      end
      else if tag = tag_rows then begin
        let rows = get_rows c in
        finished c "rows" (Rows { rows; more = get_bool c })
      end
      else if tag = tag_ack then finished c "ack" Ack
      else if tag = tag_err then finished c "err" (Err (get_err c))
      else raise (Bad (Printf.sprintf "unknown response frame 0x%02x" tag)))

(* ---- framed socket I/O ------------------------------------------------ *)

type read_error = [ `Eof | `Too_large of int ]

type write_error = [ `Closed ]

(* exactly [n] bytes, riding out partial reads and EINTR; [`Eof] on an
   orderly close mid-frame or a peer reset (both are "the connection
   is gone", which is all the session loop needs to know) *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Error `Eof
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
        Error `Eof
  in
  go 0

let read_frame ?(max_bytes = default_max_frame_bytes) fd =
  match Aeq_util.Probe.hit "net.read" with
  | exception Aeq_util.Probe.Injected _ -> Error `Eof
  | () -> (
    match really_read fd 4 with
    | Error `Eof -> Error `Eof
    | Ok hdr ->
      let len =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if len < 1 || len > max_bytes then Error (`Too_large len)
      else (really_read fd len :> (string, read_error) result))

let write_frame fd frame =
  match Aeq_util.Probe.hit "net.write" with
  | exception Aeq_util.Probe.Injected _ -> Error `Closed
  | () ->
    let buf = Bytes.unsafe_of_string frame in
    let n = Bytes.length buf in
    let rec go off =
      if off = n then Ok ()
      else
        match Unix.write fd buf off (n - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception
            Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
          Error `Closed
    in
    go 0
