module Wire = Legodb_wire.Wire
module Rtype = Legodb_relational.Rtype
module Storage = Legodb_relational.Storage
module Xml_parse = Legodb_xml.Xml_parse

(* ------------------------------------------------------------------ *)
(* messages                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Query of string
  | Append of string
  | Publish
  | Stats
  | Ping

(* What the event loop did, as opposed to what the engine behind it
   did ([Serve.stats]).  [batch_hist.(k)] counts select ticks whose
   shared query batch held [k] queries (the last bucket absorbs
   everything at or above it) — mass above index 1 is the proof that
   cross-connection batching actually formed.  The loop counts into
   one record of its own; callers get copies. *)
type net_stats = {
  mutable ticks : int;
  mutable batches : int;
  mutable batched_queries : int;
  batch_hist : int array;
  mutable max_batch : int;
  mutable replayed : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable select_s : float;
  mutable work_s : float;
  mutable accepted : int;
  mutable idle_reaped : int;
  mutable at_capacity : int;
}

let hist_buckets = 17
let hist_slot k = if k >= hist_buckets then hist_buckets - 1 else k

(* a copy that shares nothing mutable with [s] *)
let copy_stats s = { s with batch_hist = Array.copy s.batch_hist }

let net_stats_zero =
  {
    ticks = 0;
    batches = 0;
    batched_queries = 0;
    batch_hist = Array.make hist_buckets 0;
    max_batch = 0;
    replayed = 0;
    bytes_in = 0;
    bytes_out = 0;
    select_s = 0.;
    work_s = 0.;
    accepted = 0;
    idle_reaped = 0;
    at_capacity = 0;
  }

let shared_batches s =
  let n = ref 0 in
  Array.iteri (fun k c -> if k >= 2 then n := !n + c) s.batch_hist;
  !n

let pp_net_stats fmt s =
  let hist = Buffer.create 64 in
  Array.iteri
    (fun k c ->
      if c > 0 then
        Buffer.add_string hist
          (Printf.sprintf "%s%s:%d"
             (if Buffer.length hist = 0 then "" else " ")
             (if k = hist_buckets - 1 then string_of_int k ^ "+"
              else string_of_int k)
             c))
    s.batch_hist;
  Format.fprintf fmt
    "@[<v>net: %d ticks (%.3fs in select, %.3fs working), %d B in, %d B out@,\
     net: %d batches (%d with size>1, max %d) covering %d queries, %d \
     replayed, hist [%s]@,\
     net: %d conns accepted, %d idle-reaped, %d at-capacity ticks@]"
    s.ticks s.select_s s.work_s s.bytes_in s.bytes_out s.batches
    (shared_batches s) s.max_batch s.batched_queries s.replayed
    (Buffer.contents hist) s.accepted s.idle_reaped s.at_capacity

type response =
  | Rows of { rows : Rtype.value list list; cached : bool }
  | Acked
  | Published
  | Stats_reply of { serve : Serve.stats; net : net_stats }
  | Pong
  | Error_reply of string

let net_magic = "LEGODB-NET"
let net_version = 1

(* the leading header tokens {!Wire.frame} writes for this magic and
   version, for the server's in-place response framer *)
let net_lead = Printf.sprintf "%s %d" net_magic net_version

(* a frame header is four short tokens; anything longer without a
   newline is garbage, not a slow sender *)
let max_header = 128

(* requests carry whole XML documents, so the cap is generous — but it
   exists: a flipped length byte must not make the server try to
   buffer gigabytes before the CRC can call it out *)
let max_payload = 64 * 1024 * 1024

let encode_request r =
  let b = Buffer.create 256 in
  (match r with
  | Query q ->
      Wire.w_line b "query";
      Wire.w_str b q
  | Append x ->
      Wire.w_line b "append";
      Wire.w_str b x
  | Publish -> Wire.w_line b "publish"
  | Stats -> Wire.w_line b "stats"
  | Ping -> Wire.w_line b "ping");
  Wire.frame ~magic:net_magic ~version:net_version (Buffer.contents b)

let decode_request payload =
  let cur = Wire.cursor payload in
  let req =
    match Wire.r_line cur with
    | "query" -> Query (Wire.r_str cur)
    | "append" -> Append (Wire.r_str cur)
    | "publish" -> Publish
    | "stats" -> Stats
    | "ping" -> Ping
    | s -> Wire.corrupt "unknown request tag %S" s
  in
  if not (Wire.at_end cur) then
    Wire.corrupt "malformed payload: %d trailing bytes in request"
      (String.length payload - cur.Wire.pos);
  req

let w_row b row = Wire.w_list b Storage.write_value row
let r_row cur = Wire.r_list cur Storage.read_value

(* The payload writer is separate from the framer so the server can
   encode straight into a connection's output buffer without ever
   materializing the full frame as one string. *)
let write_response_payload b r =
  match r with
  | Rows { rows; cached } ->
      Wire.w_line b "rows";
      Wire.w_int b (if cached then 1 else 0);
      Wire.w_list b w_row rows
  | Acked -> Wire.w_line b "acked"
  | Published -> Wire.w_line b "published"
  | Stats_reply { serve = s; net = n } ->
      Wire.w_line b "stats";
      List.iter (Wire.w_int b)
        [
          s.Serve.served;
          s.Serve.cache_hits;
          s.Serve.cache_misses;
          s.Serve.snapshot_rows;
          s.Serve.snapshots_published;
          s.Serve.pending_appends;
          s.Serve.wal_appends;
          s.Serve.wal_fsyncs;
          s.Serve.wal_groups;
          s.Serve.wal_max_group;
          s.Serve.batches;
          s.Serve.max_batch;
          s.Serve.written_bytes;
        ];
      List.iter (Wire.w_int b)
        [ n.ticks; n.batches; n.batched_queries; n.max_batch; n.replayed ];
      Wire.w_list b Wire.w_int (Array.to_list n.batch_hist);
      Wire.w_int b n.bytes_in;
      Wire.w_int b n.bytes_out;
      Wire.w_float b n.select_s;
      Wire.w_float b n.work_s;
      List.iter (Wire.w_int b) [ n.accepted; n.idle_reaped; n.at_capacity ]
  | Pong -> Wire.w_line b "pong"
  | Error_reply m ->
      Wire.w_line b "error";
      Wire.w_str b m

let encode_response r =
  let b = Buffer.create 256 in
  write_response_payload b r;
  Wire.frame ~magic:net_magic ~version:net_version (Buffer.contents b)

let decode_response payload =
  let cur = Wire.cursor payload in
  let resp =
    match Wire.r_line cur with
    | "rows" ->
        let cached = Wire.r_int cur <> 0 in
        let rows = Wire.r_list cur r_row in
        Rows { rows; cached }
    | "acked" -> Acked
    | "published" -> Published
    | "stats" ->
        let i () = Wire.r_int cur in
        let served = i () in
        let cache_hits = i () in
        let cache_misses = i () in
        let snapshot_rows = i () in
        let snapshots_published = i () in
        let pending_appends = i () in
        let wal_appends = i () in
        let wal_fsyncs = i () in
        let wal_groups = i () in
        let wal_max_group = i () in
        let batches = i () in
        let max_batch = i () in
        let written_bytes = i () in
        let serve =
          {
            Serve.served;
            cache_hits;
            cache_misses;
            snapshot_rows;
            snapshots_published;
            pending_appends;
            wal_appends;
            wal_fsyncs;
            wal_groups;
            wal_max_group;
            batches;
            max_batch;
            written_bytes;
          }
        in
        let ticks = i () in
        let nbatches = i () in
        let batched_queries = i () in
        let nmax_batch = i () in
        let replayed = i () in
        let batch_hist = Array.of_list (Wire.r_list cur Wire.r_int) in
        let bytes_in = i () in
        let bytes_out = i () in
        let select_s = Wire.r_float cur in
        let work_s = Wire.r_float cur in
        let accepted = i () in
        let idle_reaped = i () in
        let at_capacity = i () in
        Stats_reply
          {
            serve;
            net =
              {
                ticks;
                batches = nbatches;
                batched_queries;
                batch_hist;
                max_batch = nmax_batch;
                replayed;
                bytes_in;
                bytes_out;
                select_s;
                work_s;
                accepted;
                idle_reaped;
                at_capacity;
              };
          }
    | "pong" -> Pong
    | "error" -> Error_reply (Wire.r_str cur)
    | s -> Wire.corrupt "unknown response tag %S" s
  in
  if not (Wire.at_end cur) then
    Wire.corrupt "malformed payload: %d trailing bytes in response"
      (String.length payload - cur.Wire.pos);
  resp

(* ------------------------------------------------------------------ *)
(* stream framing                                                      *)
(* ------------------------------------------------------------------ *)

(* the first ' ' of [buf] in [i, stop), or [stop] *)
let rec next_space buf i stop =
  if i >= stop || Char.equal (Iobuf.get buf i) ' ' then i
  else next_space buf (i + 1) stop

let rec same_from buf pos s i =
  i = String.length s
  || Char.equal (Iobuf.get buf (pos + i)) s.[i]
     && same_from buf pos s (i + 1)

(* [buf]'s bytes [pos, pos + len) are exactly [s] *)
let same buf ~pos ~len s = len = String.length s && same_from buf pos s 0

let net_version_token = string_of_int net_version

(* Pull one frame off the front of [buf], consuming its bytes on
   success.  The header is parsed in place — its four tokens are
   located and judged inside [buf], so a frame costs one copy, its
   payload.  The length token is validated ({!Wire.len_at}, then
   bounded) before any payload is awaited, so a flipped length digit is
   caught by the CRC (the frame slice it delimits hashes wrong) or by
   the bound — never by an unbounded buffer.  The checksum token is
   judged by {!Wire.checksum_error_at} once the payload is in, exactly as
   every other framed format judges it.  [`Partial] means the bytes so
   far are a legal prefix: keep reading (and [Iobuf.find_newline]'s
   watermark makes the re-poll O(1), not a rescan). *)
let extract_frame buf =
  match Iobuf.find_newline buf with
  | None ->
      if Iobuf.length buf > max_header then
        `Broken "malformed frame: no header line"
      else `Partial
  | Some nl -> (
      let broken () =
        `Broken
          (Printf.sprintf "malformed frame header %S"
             (Iobuf.sub buf ~pos:0 ~len:(min nl 64)))
      in
      (* four tokens at the first three spaces; a fourth space would
         sit in the length token, which then fails as not a number *)
      let s1 = next_space buf 0 nl in
      let s2 = next_space buf (s1 + 1) nl in
      let s3 = next_space buf (s2 + 1) nl in
      if s3 >= nl || not (same buf ~pos:0 ~len:s1 net_magic) then broken ()
      else
        let get = Iobuf.get buf in
        match Wire.len_at get ~pos:(s3 + 1) ~len:(nl - s3 - 1) with
        | Some n when n <= max_payload -> (
            let total = nl + 1 + n in
            if Iobuf.length buf < total then `Partial
            else
              let v_pos = s1 + 1 and v_len = s2 - s1 - 1 in
              let version =
                if same buf ~pos:v_pos ~len:v_len net_version_token then
                  Ok net_version
                else
                  (* another spelling of a number is read as text *)
                  let v = Iobuf.sub buf ~pos:v_pos ~len:v_len in
                  match int_of_string_opt v with
                  | Some ver -> Ok ver
                  | None -> Error v
              in
              match version with
              | Error v ->
                  `Broken
                    (Printf.sprintf
                       "malformed header: version %S is not a number" v)
              | Ok ver when ver <> net_version ->
                  `Broken
                    (Printf.sprintf
                       "unsupported network frame version %d (this build \
                        reads %d)"
                       ver net_version)
              | Ok _ -> (
                  let payload = Iobuf.sub buf ~pos:(nl + 1) ~len:n in
                  match
                    Wire.checksum_error_at get ~pos:(s2 + 1)
                      ~len:(s3 - s2 - 1) payload
                  with
                  | None ->
                      Iobuf.consume buf total;
                      `Frame payload
                  | Some m -> `Broken m))
        | _ -> broken ())

(* ------------------------------------------------------------------ *)
(* shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* OCaml's Unix has no MSG_NOSIGNAL: a write to a connection the peer
   already closed raises SIGPIPE, which would kill the process instead
   of surfacing EPIPE.  Ignore it once, idempotently. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" -> (
      try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
      with Invalid_argument _ -> ())
  | _ -> ()

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let parse_endpoint s =
  let malformed () =
    Error (Printf.sprintf "malformed endpoint %S (expected HOST:PORT)" s)
  in
  match String.rindex_opt s ':' with
  | None -> malformed ()
  | Some i -> (
      let host = String.sub s 0 i in
      let port_s = String.sub s (i + 1) (String.length s - i - 1) in
      if String.equal host "" then malformed ()
      else
        match int_of_string_opt port_s with
        | Some p when p >= 1 && p <= 65535 -> Ok (host, p)
        | _ -> malformed ())

let listen_socket ~host ~port ?on_listen () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (resolve host, port));
     Unix.listen lfd 64;
     Unix.set_nonblock lfd
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let bound =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  Option.iter (fun f -> f bound) on_listen;
  lfd

(* ------------------------------------------------------------------ *)
(* server                                                              *)
(* ------------------------------------------------------------------ *)

(* Per-connection state.  [q] holds one cell per request, in arrival
   order; a cell is filled when its request's answer exists (queries at
   the end of the tick's shared batch, appends at their group's fsync)
   and responses are encoded strictly from the front of the queue, so a
   pipelined client can match responses to requests positionally.
   [inbuf]/[outbuf] persist across ticks: reads land at [inbuf]'s tail,
   frame extraction consumes its front by offset arithmetic, encoded
   responses append to [outbuf] and partial writes consume its front —
   no byte is ever re-copied or re-scanned. *)
(* a filled cell holds either a response still to encode, or a
   finished frame — a query replayed from the front-door cache, or a
   fresh answer whose frame the cache now shares — appended to the
   output buffer as one blit *)
type answer = Resp of response | Framed of string

type conn = {
  fd : Unix.file_descr;
  inbuf : Iobuf.t;
  outbuf : Iobuf.t;
  q : answer option ref Queue.t;
  mutable closing : bool;  (* no more input: EOF or framing error *)
  mutable last_active : float;  (* last byte read or written *)
}

let serve ?(host = "127.0.0.1") ?(group_commit_ms = 5) ?(max_group = 64)
    ?idle_timeout_ms ?max_conns ?timeout_ms ?max_write ?stop ?on_listen ~port
    t =
  if group_commit_ms < 0 then
    invalid_arg "Net.serve: group_commit_ms must be >= 0";
  if max_group < 1 then invalid_arg "Net.serve: max_group must be >= 1";
  (match idle_timeout_ms with
  | Some ms when ms < 1 -> invalid_arg "Net.serve: idle_timeout_ms must be >= 1"
  | _ -> ());
  (match max_conns with
  | Some m when m < 1 -> invalid_arg "Net.serve: max_conns must be >= 1"
  | _ -> ());
  (match max_write with
  | Some m when m < 1 -> invalid_arg "Net.serve: max_write must be >= 1"
  | _ -> ());
  ignore_sigpipe ();
  let lfd = listen_socket ~host ~port ?on_listen () in
  Fun.protect
    ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      let st = copy_stats net_stats_zero in
      let idle_s =
        Option.map (fun ms -> float_of_int ms /. 1000.) idle_timeout_ms
      in
      let gc_s = float_of_int group_commit_ms /. 1000. in
      let conns = ref [] in
      let dead = ref [] in
      let drop c =
        if not (List.memq c !dead) then begin
          dead := c :: !dead;
          (try Unix.close c.fd with Unix.Unix_error _ -> ())
        end
      in
      (* queries collected this tick across every ready connection,
         answered by one shared run_texts *)
      let queries = ref [] in
      (* front-door replay cache: query text -> the finished response
         frame, valid for one published snapshot.  Queries run against
         the frozen snapshot, so pending appends invalidate nothing —
         only a publish does, and every publish swaps in a fresh frozen
         store, so the cache notices one by the snapshot's identity (a
         lock-free read).  The stored frame says cached=true, which is
         exactly what the plan cache would report on the repeat
         execution the replay stands in for, so replayed bytes are
         identical to what the slow path would send. *)
      let replay_cap = 4096 in
      let replay = Hashtbl.create 256 in
      let replay_snap = ref (Serve.snapshot t) in
      let check_snapshot () =
        let snap = Serve.snapshot t in
        if snap != !replay_snap then begin
          replay_snap := snap;
          Hashtbl.reset replay
        end
      in
      (* the open append group: parsed documents waiting for their
         shared fsync, oldest first, with the time the group opened *)
      let appends = Queue.create () in
      let group_opened = ref None in
      let flush_appends () =
        if not (Queue.is_empty appends) then begin
          let items = List.of_seq (Queue.to_seq appends) in
          Queue.clear appends;
          group_opened := None;
          match Serve.append_group t (List.map snd items) with
          | results ->
              List.iter2
                (fun (cell, _) res ->
                  cell :=
                    Some
                      (Resp
                         (match res with
                         | Ok () -> Acked
                         | Error m -> Error_reply m)))
                items results
          | exception e ->
              (* WAL write failure: nothing in the group was
                 acknowledged and the server is fail-stop for writes,
                 but it keeps answering queries *)
              let m = Printexc.to_string e in
              List.iter
                (fun (cell, _) -> cell := Some (Resp (Error_reply m)))
                items
        end
      in
      let enqueue_cell c =
        let cell = ref None in
        Queue.push cell c.q;
        cell
      in
      (* answer the queries collected so far — across every connection —
         as one shared batch on the pool *)
      let answer_queries () =
        match List.rev !queries with
        | [] -> ()
        | qs ->
            queries := [];
            let arr = Array.of_list (List.map snd qs) in
            let k = Array.length arr in
            st.batches <- st.batches + 1;
            st.batched_queries <- st.batched_queries + k;
            st.max_batch <- max st.max_batch k;
            st.batch_hist.(hist_slot k) <- st.batch_hist.(hist_slot k) + 1;
            let res = Serve.run_texts ?timeout_ms t arr in
            List.iteri
              (fun i (cell, text) ->
                match res.(i) with
                | Ok (r : Serve.reply) ->
                    let rows = r.Serve.rows in
                    let fresh = Resp (Rows { rows; cached = r.Serve.cached }) in
                    cell :=
                      Some
                        (if Hashtbl.length replay >= replay_cap then fresh
                         else
                           let frame =
                             encode_response (Rows { rows; cached = true })
                           in
                           Hashtbl.replace replay text frame;
                           (* an answer from a cached plan is the
                              replayed frame, byte for byte: frame it
                              once *)
                           if r.Serve.cached then Framed frame else fresh)
                | Error m -> cell := Some (Resp (Error_reply m)))
              qs
      in
      let handle c req =
        let cell = enqueue_cell c in
        match req with
        | Ping -> cell := Some (Resp Pong)
        | Stats ->
            cell :=
              Some
                (Resp
                   (Stats_reply { serve = Serve.stats t; net = copy_stats st }))
        | Publish -> (
            (* the publish barrier orders everything before it: queries
               already queued are answered on the snapshot they were
               sent against, and the open group commits first so its
               documents make the new one *)
            answer_queries ();
            flush_appends ();
            match Serve.publish t with
            | () ->
                check_snapshot ();
                cell := Some (Resp Published)
            | exception e ->
                cell := Some (Resp (Error_reply (Printexc.to_string e))))
        | Query text -> (
            match Hashtbl.find_opt replay text with
            | Some frame ->
                st.replayed <- st.replayed + 1;
                cell := Some (Framed frame)
            | None -> queries := (cell, text) :: !queries)
        | Append text -> (
            match Xml_parse.parse_string text with
            | doc ->
                if Queue.is_empty appends then
                  group_opened := Some (Unix.gettimeofday ());
                Queue.push (cell, doc) appends;
                if Queue.length appends >= max_group then flush_appends ()
            | exception Xml_parse.Parse_error { position; message } ->
                cell :=
                  Some
                    (Resp
                       (Error_reply
                          (Printf.sprintf "XML parse error at offset %d: %s"
                             position message))))
      in
      let protocol_error c m =
        (* one structured error frame, then the connection is done:
           after a framing error there is no resynchronization point *)
        enqueue_cell c := Some (Resp (Error_reply m));
        c.closing <- true
      in
      let read_conn ~now c =
        match Iobuf.read_from c.inbuf c.fd with
        | 0 -> c.closing <- true
        | n ->
            st.bytes_in <- st.bytes_in + n;
            c.last_active <- now;
            let continue = ref true in
            while !continue && not c.closing do
              match extract_frame c.inbuf with
              | `Partial -> continue := false
              | `Broken m ->
                  protocol_error c m;
                  continue := false
              | `Frame payload -> (
                  match decode_request payload with
                  | req -> handle c req
                  | exception Wire.Corrupt m -> protocol_error c m)
            done
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ()
        | exception Unix.Unix_error _ -> drop c
      in
      (* move the queue's filled prefix into the connection's output
         buffer — strictly in order, stopping at the first answer
         still pending.  One scratch Buffer is shared across every
         connection and tick: the payload is built there, then framed
         straight into [outbuf] (the only per-response string is the
         payload itself, which the CRC needs anyway). *)
      let scratch = Buffer.create 1024 in
      let add_response_frame out resp =
        Buffer.clear scratch;
        write_response_payload scratch resp;
        let payload = Buffer.contents scratch in
        Iobuf.add_string out (Wire.header_line net_lead payload);
        Iobuf.add_string out payload
      in
      let drain c =
        let continue = ref true in
        while !continue && not (Queue.is_empty c.q) do
          match !(Queue.peek c.q) with
          | Some (Resp resp) ->
              ignore (Queue.pop c.q);
              add_response_frame c.outbuf resp
          | Some (Framed frame) ->
              ignore (Queue.pop c.q);
              Iobuf.add_string c.outbuf frame
          | None -> continue := false
        done
      in
      let write_conn ~now c =
        match Iobuf.write_to ?max:max_write c.outbuf c.fd with
        | n ->
            st.bytes_out <- st.bytes_out + n;
            if n > 0 then c.last_active <- now
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ()
        | exception Unix.Unix_error _ -> drop c
      in
      let stopped () = match stop with Some r -> !r | None -> false in
      while not (stopped ()) do
        let t0 = Unix.gettimeofday () in
        (* deadline-aware poll: wake for the open group's fsync, the
           earliest idle deadline, and at least every 250ms for the
           stop flag *)
        let timeout =
          let cap = 0.25 in
          let d =
            match !group_opened with
            | None -> cap
            | Some opened -> opened +. gc_s -. t0
          in
          let d =
            match idle_s with
            | None -> d
            | Some idle ->
                List.fold_left
                  (fun acc c -> Float.min acc (c.last_active +. idle -. t0))
                  d !conns
          in
          Float.max 0. (Float.min cap d)
        in
        let at_cap =
          match max_conns with
          | Some m -> List.length !conns >= m
          | None -> false
        in
        let readable = List.filter (fun c -> not c.closing) !conns in
        let writable =
          List.filter (fun c -> not (Iobuf.is_empty c.outbuf)) !conns
        in
        let rs, _, _ =
          try
            Unix.select
              (* a full house parks the listener: pending peers wait in
                 the backlog instead of growing the connection list *)
              ((if at_cap then [] else [ lfd ])
              @ List.map (fun c -> c.fd) readable)
              (List.map (fun c -> c.fd) writable)
              [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let t1 = Unix.gettimeofday () in
        st.select_s <- st.select_s +. (t1 -. t0);
        st.ticks <- st.ticks + 1;
        if at_cap then st.at_capacity <- st.at_capacity + 1;
        if List.memq lfd rs then begin
          let accepting = ref true in
          while !accepting do
            if
              match max_conns with
              | Some m -> List.length !conns >= m
              | None -> false
            then accepting := false
            else
              match Unix.accept lfd with
              | fd, _ ->
                  Unix.set_nonblock fd;
                  (try Unix.setsockopt fd Unix.TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  st.accepted <- st.accepted + 1;
                  conns :=
                    {
                      fd;
                      inbuf = Iobuf.create 4096;
                      outbuf = Iobuf.create 4096;
                      q = Queue.create ();
                      closing = false;
                      last_active = t1;
                    }
                    :: !conns
              | exception
                  Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                  accepting := false
              | exception Unix.Unix_error _ -> accepting := false
          done
        end;
        (* an out-of-band publish (another thread sharing [t]) must not
           leave stale frames replayable *)
        check_snapshot ();
        List.iter
          (fun c -> if List.memq c.fd rs then read_conn ~now:t1 c)
          readable;
        answer_queries ();
        (* commit the open group once its oldest member has waited out
           the window *)
        (match !group_opened with
        | Some opened when Unix.gettimeofday () >= opened +. gc_s ->
            flush_appends ()
        | _ -> ());
        (* drain and write optimistically in the same tick: the socket
           is nonblocking, so a full send buffer costs one EAGAIN and
           the remainder waits for select's writable set — but in the
           common case the response leaves this tick instead of the
           next one *)
        List.iter
          (fun c ->
            drain c;
            if not (Iobuf.is_empty c.outbuf) then write_conn ~now:t1 c;
            (* a closing connection lingers only until its queued
               responses are answered and written *)
            if c.closing && Queue.is_empty c.q && Iobuf.is_empty c.outbuf
            then drop c)
          !conns;
        (match idle_s with
        | None -> ()
        | Some idle ->
            let now = Unix.gettimeofday () in
            List.iter
              (fun c ->
                (* reap only a connection that is owed nothing: queued
                   responses and unflushed output always win *)
                if
                  (not (List.memq c !dead))
                  && Queue.is_empty c.q
                  && Iobuf.is_empty c.outbuf
                  && now -. c.last_active >= idle
                then begin
                  drop c;
                  st.idle_reaped <- st.idle_reaped + 1
                end)
              !conns);
        if !dead <> [] then begin
          conns := List.filter (fun c -> not (List.memq c !dead)) !conns;
          dead := []
        end;
        st.work_s <- st.work_s +. (Unix.gettimeofday () -. t1)
      done;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      copy_stats st)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

type client = { cfd : Unix.file_descr; cbuf : Iobuf.t }

exception Protocol_error of string
exception Closed

let connect ?(host = "127.0.0.1") ~port () =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (resolve host, port));
     try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ()
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { cfd = fd; cbuf = Iobuf.create 4096 }

let rec write_all fd s pos =
  if pos < String.length s then
    match Unix.write_substring fd s pos (String.length s - pos) with
    | n -> write_all fd s (pos + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos

let send c req = write_all c.cfd (encode_request req) 0
let send_raw c bytes = write_all c.cfd bytes 0

(* the receive buffer persists across frames: reads land at its tail,
   [extract_frame] consumes its front — a response spanning many 64 KiB
   reads costs one pass over its bytes, not one per read *)
let rec recv_raw c =
  match extract_frame c.cbuf with
  | `Frame payload -> payload
  | `Broken m -> raise (Protocol_error m)
  | `Partial -> (
      match Iobuf.read_from c.cbuf c.cfd with
      | 0 ->
          if Iobuf.is_empty c.cbuf then raise Closed
          else raise (Protocol_error "connection closed mid-frame")
      | _ -> recv_raw c
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv_raw c)

let recv c =
  match decode_response (recv_raw c) with
  | resp -> resp
  | exception Wire.Corrupt m -> raise (Protocol_error m)

let rpc c req =
  send c req;
  recv c

let close c = try Unix.close c.cfd with Unix.Unix_error _ -> ()
