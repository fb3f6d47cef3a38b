(** The query server's network front door: a TCP request/response
    protocol in the {!Legodb_wire.Wire} frame format, a single-threaded
    [select] tick loop that batches concurrently-arriving work into
    shared {!Serve.run_texts} calls and group-commits appends, and the
    small blocking client the CLI's [legodb query --connect] uses.

    {2 The protocol}

    Every message — either direction — is one {!Legodb_wire.Wire.frame}
    with magic [LEGODB-NET], version 1: a header line

    {v LEGODB-NET 1 <crc32-hex> <payload-bytes> v}

    followed by exactly [<payload-bytes>] of payload, CRC-checked
    before any decoding — the same frame shape as the WAL's records
    and the snapshot files, so a bit flip anywhere in a frame is a
    checksum mismatch, never a mis-parsed request.  Payloads use the
    shared token/length-prefix codec; queries travel as XQuery source
    text and appends as XML source text (both parsed server-side, so a
    malformed body is a structured {!Error_reply}, not a dead server).

    A peer that sends garbage — bad magic, impossible length, checksum
    mismatch — gets one {!Error_reply} frame and then a clean
    disconnect: after a framing error the byte stream has no reliable
    resynchronization point, so the connection is the unit of failure.
    Other connections are unaffected.

    {2 The tick loop}

    The server is one [select] loop.  Each tick: accept (unless at the
    [max_conns] cap), one read per ready connection into its
    persistent input buffer, frame extraction by offset arithmetic
    (never re-scanning or re-copying buffered bytes — see {!Iobuf}),
    then {e all} decodable queries from {e all} connections this tick
    are answered by one shared {!Serve.run_texts} (one pinned
    snapshot, one pool fan-out per tick instead of one per
    connection).  The loop hands the server query texts and never
    parses them itself: a text whose statement shape the server knows
    reaches its compiled plan without being parsed, and a text that
    does not parse comes back as its batch slot's error.  Appends
    accumulate into a group committed by one
    {!Serve.append_group} (one WAL write + one fsync for the whole
    group) when the group reaches [max_group] appends or its oldest
    member has waited [group_commit_ms]; an append is acknowledged
    ({!Acked}) only after its group's fsync returns, so the PR 8
    invariant survives the network.  Responses are encoded straight
    into each connection's persistent output buffer and written
    optimistically in the same tick; a partial write just advances an
    offset.  Responses are delivered per connection in request order
    (a pipelined client can match them positionally), and each answer
    is the one a sequential server would give: a {!Publish} first
    answers the queries queued before it, on the snapshot they were
    sent against, then commits the open append group, then swaps the
    snapshot.  The loop publishes its own observability counters as
    {!net_stats}. *)

(** {1 Messages} *)

type request =
  | Query of string  (** XQuery source text, parsed server-side *)
  | Append of string  (** XML document text, parsed server-side *)
  | Publish  (** the {!Serve.publish} barrier *)
  | Stats
  | Ping

(** What the event loop itself did — engine-side counters live in
    {!Serve.stats}.  [batch_hist.(k)] counts select ticks whose shared
    query batch held [k] queries (texts that do not parse included),
    the last bucket absorbing everything at or above it; mass at index
    ≥ 2 proves cross-connection (or pipelined) batching actually
    formed.  [select_s]/[work_s] split
    wall time into waiting-for-readiness vs processing.  The loop
    counts into one record of its own; a {!Stats_reply} and {!serve}'s
    result are copies of it, [batch_hist] included, so nothing a caller
    holds changes under it. *)
type net_stats = {
  mutable ticks : int;
  mutable batches : int;
  mutable batched_queries : int;
  batch_hist : int array;
  mutable max_batch : int;
  mutable replayed : int;
      (** queries answered from the front-door replay cache — the
          finished frame of an identical earlier query against the same
          published snapshot, blitted straight into the output buffer *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable select_s : float;
  mutable work_s : float;
  mutable accepted : int;
  mutable idle_reaped : int;  (** connections reaped by [idle_timeout_ms] *)
  mutable at_capacity : int;
      (** ticks the listener was parked by [max_conns] *)
}

val net_stats_zero : net_stats
(** Every counter zero.  The loop starts from a copy of it. *)

val hist_buckets : int

val shared_batches : net_stats -> int
(** Batches of size ≥ 2 — the cross-connection-batching evidence the
    bench and CI smoke assert on. *)

val pp_net_stats : Format.formatter -> net_stats -> unit

type response =
  | Rows of {
      rows : Legodb_relational.Rtype.value list list;
      cached : bool;
    }  (** a query's answer — same payload as {!Serve.reply} *)
  | Acked  (** the append's group fsync returned; it is durable *)
  | Published
  | Stats_reply of { serve : Serve.stats; net : net_stats }
      (** engine counters plus the serving loop's own, every field of
          both on the wire *)
  | Pong
  | Error_reply of string
      (** a structured failure: parse error, untranslatable query,
          timeout, shred rejection, or a framing error (after which
          the server closes this connection) *)

val encode_request : request -> string
(** The full frame bytes (header line + payload) — what travels. *)

val encode_response : response -> string

val decode_request : string -> request
(** Decode a frame's {e payload} (the frame itself already validated).
    @raise Legodb_wire.Wire.Corrupt on a malformed payload. *)

val decode_response : string -> response
(** @raise Legodb_wire.Wire.Corrupt *)

val extract_frame : Iobuf.t -> [ `Frame of string | `Partial | `Broken of string ]
(** The streaming frame extractor both ends parse the byte stream
    with: [`Frame payload] is one validated frame's payload, whose
    bytes have been consumed from the buffer; [`Partial] means the
    bytes so far are a legal prefix (keep reading — the buffer's scan
    watermark makes the re-poll O(1)); [`Broken] is a framing defect —
    bad magic, impossible length, checksum mismatch — with a one-line
    diagnosis.  The header is parsed in place, inside the buffer, so a
    frame costs one copy — its payload; the length and checksum tokens
    are judged by the {!Legodb_wire.Wire} header rules the WAL and
    snapshot files share ({!Legodb_wire.Wire.len_at},
    {!Legodb_wire.Wire.checksum_error_at}). *)

(** {1 Server} *)

val serve :
  ?host:string ->
  ?group_commit_ms:int ->
  ?max_group:int ->
  ?idle_timeout_ms:int ->
  ?max_conns:int ->
  ?timeout_ms:int ->
  ?max_write:int ->
  ?stop:bool ref ->
  ?on_listen:(int -> unit) ->
  port:int ->
  Serve.t ->
  net_stats
(** Run the tick loop until [!stop] (checked at least every 250ms)
    becomes true, then close every connection and return the loop's
    final {!net_stats}.  [?host] (default ["127.0.0.1"]) is the bind
    address; [~port] [0] binds an ephemeral port.  [?on_listen] is
    called once with the actually bound port, after [listen] succeeds
    and before the first accept — the tests' startup handshake.
    [?group_commit_ms] (default [5]) bounds how long the oldest staged
    append waits for its group's fsync; [0] still groups appends that
    arrived in the same tick.  [?max_group] (default [64]) caps a
    group's size.  [?idle_timeout_ms] reaps connections that have
    neither transferred a byte nor been owed a response for that long
    (default: never).  [?max_conns] parks the listener while that many
    connections are open — pending peers wait in the kernel backlog
    and are accepted as slots free up (default: unbounded).
    [?timeout_ms] is handed to {!Serve.run_texts} as each query's
    budget.  [?max_write] caps the bytes any single [write] may move —
    the tests' short-write injection seam, not for production use.
    Appends still waiting for a group at stop time were never
    acknowledged, and are dropped with their connections.
    @raise Invalid_argument on [group_commit_ms < 0], [max_group < 1],
    [idle_timeout_ms < 1], [max_conns < 1], or [max_write < 1]
    @raise Unix.Unix_error e.g. when the port is already bound
    ([EADDRINUSE] — the CLI maps this family to exit code 9). *)

(** {1 Client} *)

type client
(** A blocking connection to a server.  Not thread-safe; one request
    pipeline per client.  Received bytes accumulate in a persistent
    offset-carrying buffer, so multi-frame and multi-read responses
    cost one pass over their bytes. *)

exception Protocol_error of string
(** The peer broke the framing protocol (bad magic, checksum mismatch,
    connection closed mid-frame).  The connection is unusable. *)

exception Closed
(** Orderly EOF: the server closed the connection between frames. *)

val connect : ?host:string -> port:int -> unit -> client
(** @raise Unix.Unix_error e.g. [ECONNREFUSED] (CLI exit code 9). *)

val send : client -> request -> unit
(** Write one request frame.  [send] without an intervening {!recv}
    pipelines: the server answers in order, so [k] sends followed by
    [k] recvs match positionally — and pipelined appends land in the
    same commit group. *)

val send_raw : client -> string -> unit
(** Write arbitrary bytes — the protocol tests' and the CLI
    corrupt-probe's way of sending deliberately damaged frames. *)

val recv : client -> response
(** Block for the next response frame.
    @raise Protocol_error @raise Closed *)

val recv_raw : client -> string
(** Like {!recv} but return the CRC-validated payload without decoding
    it — for replay tools and throughput clients that only sample-decode.
    @raise Protocol_error @raise Closed *)

val rpc : client -> request -> response
(** [send] then [recv]. *)

val close : client -> unit

val parse_endpoint : string -> (string * int, string) result
(** Split a [HOST:PORT] endpoint; [Error] is a one-line diagnosis
    (the CLI's [--connect] validation). *)
