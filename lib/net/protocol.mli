(** The wire protocol: length-prefixed binary frames.

    Every frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is the frame type, the rest is
    the body (see DESIGN.md "Wire protocol" for the exact layout of
    every frame). The codec is strict both ways: {!decode_request} /
    {!decode_response} never raise on hostile input — a truncated,
    oversized or malformed payload comes back as [Error reason], which
    the server answers with a structured {!err} frame or a close,
    never a crash.

    Body primitives: [u8], [u32]/[i64] big-endian, [f64] as IEEE-754
    bits in an [i64], strings as [u32] length + bytes, lists as [u32]
    count + elements. *)

val version : int
(** Protocol version carried in [Hello] / [Hello_ok] (currently 1). *)

val default_max_frame_bytes : int
(** Frame-size bound both sides enforce by default (4 MiB). *)

(** Client-to-server frames. *)
type request =
  | Hello of {
      client : string;  (** client name, for logs/metrics *)
      priority : Aeq_exec.Scheduler.priority;
          (** admission class for the session's queries ([u8] 0/1/2
              for low/normal/high) *)
      deadline_seconds : float option;
          (** per-query deadline applied to every execute *)
    }  (** must be the first frame on a fresh connection *)
  | Prepare of string  (** plan + compile; returns [Prepare_ok] *)
  | Execute of string  (** one-shot execute of a SQL text *)
  | Execute_prepared of int  (** execute a [Prepare_ok] handle *)
  | Fetch of int
      (** next page (at most this many rows) of the pending result *)
  | Cancel
      (** cancel the in-flight query (sent while an execute is
          pending); idle sessions get an [Ack] *)
  | Close  (** finish the session ([Ack], then the server closes) *)

(** The structured error taxonomy over the wire: the engine's own
    {!Aeq_exec.Query_error.t} (codes 1–10), plus the front end's
    protocol violation (code 11). *)
type err =
  | Query of Aeq_exec.Query_error.t
      (** the query's failure; a connection over the server's
          connection limit is shed with [Query (Overloaded _)], whose
          [queue_depth]/[capacity] then count sessions *)
  | Protocol_violation of string
      (** malformed/oversized/out-of-order frame; the server answers
          with this and closes the session *)

val err_to_string : err -> string
(** {!Aeq_exec.Query_error.to_string} for a query error, so a wire
    client prints what an in-process caller prints. *)

(** Server-to-client frames. *)
type response =
  | Hello_ok of { server : string; version : int; fetch_size : int }
  | Prepare_ok of { stmt_id : int; cached : bool }
      (** [cached]: the statement was already resident in the plan
          cache (the compile cost was paid by an earlier session) *)
  | Result of {
      names : string list;
      dtypes : string list;
      total_rows : int;
      rows : string list list;  (** first page, decoded cells *)
      more : bool;  (** further pages pending; [Fetch] to page *)
      exec_seconds : float;
    }
  | Rows of { rows : string list list; more : bool }  (** a [Fetch] page *)
  | Ack
  | Err of err

(* ---- codec ----------------------------------------------------------- *)

val encode_request : request -> string
(** The complete frame: length prefix + payload. *)

val encode_response : response -> string

val decode_request : string -> (request, string) result
(** Decode a payload (frame minus the length prefix). Total: hostile
    input yields [Error], never an exception. *)

val decode_response : string -> (response, string) result
(** Total like {!decode_request}; an unknown error code or an unknown
    mode name in [Compile_failed] is an [Error]. *)

(* ---- framed socket I/O ----------------------------------------------- *)

type read_error =
  [ `Eof  (** orderly close (or reset) from the peer *)
  | `Too_large of int  (** declared payload length over the bound *) ]

val read_frame :
  ?max_bytes:int -> Unix.file_descr -> (string, read_error) result
(** Read one frame; returns the payload. Blocks until a full frame,
    EOF or error. Evaluates the ["net.read"] failpoint first; an
    injected fault reads as [`Eof]. A
    [`Too_large] frame leaves the stream unsynchronized — the caller
    must answer with [Protocol_violation] and close. *)

type write_error = [ `Closed  (** peer gone (EPIPE/reset) *) ]

val write_frame : Unix.file_descr -> string -> (unit, write_error) result
(** Write one complete frame (as built by the encoders). Evaluates the
    ["net.write"] failpoint first; an injected fault writes as
    [`Closed]. *)
