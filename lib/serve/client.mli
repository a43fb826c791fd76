(** A minimal blocking client for the {!Server} protocol — the engine
    behind [sttc client], the serve benchmark's load generator and the
    integration tests.

    One connection, strict request/response alternation: {!request}
    sends a frame and blocks for the next response line.  For pipelined
    or concurrent traffic open one connection per in-flight request. *)

type t

val request : t -> Request.t -> (Response.t, string) result
(** One round trip.  The [Error] case is a transport or framing
    failure; application failures arrive as {!Response.Error} /
    {!Response.Overloaded} values. *)

val send_raw : t -> string -> (unit, string) result
(** Ship one raw frame (newline appended) — for malformed-frame tests. *)

val recv_line : t -> (string, string) result
(** Block for the next response frame, undecoded. *)

val with_connection : string -> (t -> ('a, string) result) -> ('a, string) result
(** Connect to the daemon's Unix-domain socket at the given path, run,
    always close.  A failed connect is an [Error]. *)
