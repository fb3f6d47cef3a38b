(* The load generator's connections: nonblocking sockets driven by one
   select loop, so one client process keeps a reader and a writer (or
   two readers) busy without threads.  Request frames arrive here
   already encoded; responses are framed and CRC-checked by the
   server's own extractor and handed back undecoded. *)

open Legodb

type conn = {
  fd : Unix.file_descr;
  inbuf : Iobuf.t;
  out : Iobuf.t;
  sent : (float * int) Queue.t;  (* send time and caller tag, in order *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a whole append group fits the send buffer, so it leaves in one
     write and the server sees it within one group-commit window *)
  Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20);
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Iobuf.create 65536;
    out = Iobuf.create 65536;
    sent = Queue.create ();
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let outstanding c = Queue.length c.sent

(* queue one encoded request frame; [flush] puts it on the wire *)
let send c ~at ~tag frame =
  Iobuf.add_string c.out frame;
  Queue.push (at, tag) c.sent

let flush c =
  try
    while (not (Iobuf.is_empty c.out)) && Iobuf.write_to c.out c.fd > 0 do
      ()
    done
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* read what the socket holds and hand every complete response to
   [on_frame send_time tag payload], in request order *)
let receive c on_frame =
  match Iobuf.read_from c.inbuf c.fd with
  | 0 -> failwith "loadgen: server closed the connection"
  | _ ->
      let rec drain () =
        match Net.extract_frame c.inbuf with
        | `Frame payload ->
            let at, tag = Queue.pop c.sent in
            on_frame at tag payload;
            drain ()
        | `Partial -> ()
        | `Broken m -> failwith ("loadgen: broken response frame: " ^ m)
      in
      drain ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* one select round over [conns]: write what is queued, read what has
   arrived, waiting at most [timeout] seconds *)
let pump ?(timeout = 0.05) conns on_frame =
  let fds p =
    List.filter_map (fun c -> if p c then Some c.fd else None) conns
  in
  let rd = fds (fun c -> outstanding c > 0) in
  let wr = fds (fun c -> not (Iobuf.is_empty c.out)) in
  match Unix.select rd wr [] timeout with
  | r, w, _ ->
      List.iter (fun c -> if List.memq c.fd w then flush c) conns;
      List.iter (fun c -> if List.memq c.fd r then receive c (on_frame c)) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* a blocking request/response exchange on an idle connection *)
let rpc c frame =
  let got = ref None in
  send c ~at:0. ~tag:0 frame;
  flush c;
  while !got = None do
    pump ~timeout:1. [ c ] (fun _ _ _ payload -> got := Some payload)
  done;
  Option.get !got

(* the response kind, read off the payload's first line without
   decoding the rest *)
let is_kind payload k =
  let n = String.length k in
  String.length payload > n
  && payload.[n] = '\n'
  &&
  let rec eq j = j = n || (payload.[j] = k.[j] && eq (j + 1)) in
  eq 0

let kind payload =
  match String.index_opt payload '\n' with
  | Some i -> String.sub payload 0 i
  | None -> payload
