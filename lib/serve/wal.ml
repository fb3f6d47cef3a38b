module Wire = Legodb_wire.Wire
module Storage = Legodb_relational.Storage
module Rtype = Legodb_relational.Rtype
module Checkpoint = Legodb_search.Checkpoint

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let wrap_corrupt f x = try f x with Wire.Corrupt m -> raise (Corrupt m)
let snapshot_file dir = Filename.concat dir "snapshot.legodb"
let wal_file dir = Filename.concat dir "wal.legodb"

(* ------------------------------------------------------------------ *)
(* records                                                             *)
(* ------------------------------------------------------------------ *)

type record = { seq : int; rows : (string * Storage.row list) list }

(* The payload carries the sequence number, so any bit flip in it —
   seq included — is a checksum mismatch, never a silently re-sequenced
   record.  Per table: name, arity (so the reader needs no catalog),
   rows. *)
let w_table b ((tname : string), (rows : Storage.row list)) =
  Wire.w_str b tname;
  Wire.w_int b (match rows with [] -> 0 | r :: _ -> Array.length r);
  Wire.w_list b Storage.write_row rows

let r_table cur =
  let tname = Wire.r_str cur in
  let arity = Wire.r_int cur in
  if arity < 0 then Wire.corrupt "malformed payload: negative arity %d" arity;
  let rows = Wire.r_list cur (fun cur -> Storage.read_row cur ~arity) in
  (tname, rows)

let encode_payload r =
  let b = Buffer.create 256 in
  Wire.w_int b r.seq;
  Wire.w_list b w_table r.rows;
  Buffer.contents b

let decode_payload payload =
  wrap_corrupt
    (fun payload ->
      let cur = Wire.cursor payload in
      let seq = Wire.r_int cur in
      let rows = Wire.r_list cur r_table in
      if not (Wire.at_end cur) then
        Wire.corrupt "malformed payload: %d trailing bytes in WAL record"
          (String.length payload - cur.Wire.pos);
      { seq; rows })
    payload

(* One record on disk: a [R <crc32> <len>] line, [<len>] payload bytes,
   a ['\n'] terminator.  The whole thing goes to the kernel in a single
   [write], so the only artifact a crash (or short write) can leave is
   a strict prefix — exactly what replay classifies as a torn tail. *)
let encode_unit tag payload = Wire.header_line tag payload ^ payload ^ "\n"
let encode_record r = encode_unit "R" (encode_payload r)

(* A group commit unit: [G <crc32> <len>], then a payload carrying the
   first member's sequence number, the member count, and each member's
   tables — all under one CRC.  The members share the unit, so a torn
   write truncates the *whole* group: no prefix of an unacknowledged
   group can ever replay as if it had committed.  Singleton groups
   encode as plain [R] records, byte-identical to the
   fsync-per-append format. *)
let encode_group_payload = function
  | [] -> invalid_arg "Wal.encode_group: empty group"
  | first :: _ as members ->
      let b = Buffer.create 512 in
      Wire.w_int b first.seq;
      Wire.w_int b (List.length members);
      List.iteri
        (fun i r ->
          if r.seq <> first.seq + i then
            invalid_arg "Wal.encode_group: non-contiguous sequence numbers";
          Wire.w_list b w_table r.rows)
        members;
      Buffer.contents b

let encode_group = function
  | [ r ] -> encode_record r
  | members -> encode_unit "G" (encode_group_payload members)

let decode_group_payload payload =
  wrap_corrupt
    (fun payload ->
      let cur = Wire.cursor payload in
      let first = Wire.r_int cur in
      let count = Wire.r_int cur in
      if count < 2 then
        Wire.corrupt "malformed payload: WAL group of %d records" count;
      let members =
        List.init count (fun i ->
            { seq = first + i; rows = Wire.r_list cur r_table })
      in
      if not (Wire.at_end cur) then
        Wire.corrupt "malformed payload: %d trailing bytes in WAL group"
          (String.length payload - cur.Wire.pos);
      members)
    payload

let record_equal a b =
  a.seq = b.seq
  && List.length a.rows = List.length b.rows
  && List.for_all2
       (fun (ta, ra) (tb, rb) ->
         String.equal ta tb
         && List.length ra = List.length rb
         && List.for_all2
              (fun (x : Storage.row) (y : Storage.row) ->
                Array.length x = Array.length y
                && Array.for_all2
                     (fun u v ->
                       match (u, v) with
                       | Rtype.V_null, Rtype.V_null -> true
                       | Rtype.V_int m, Rtype.V_int n -> m = n
                       | Rtype.V_string s, Rtype.V_string t -> String.equal s t
                       | _ -> false)
                     x y)
              ra rb)
       a.rows b.rows

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let wal_magic = "LEGODB-WAL"
let wal_version = 1
let wal_header = Printf.sprintf "%s %d\n" wal_magic wal_version
let header_bytes = String.length wal_header

type replay = {
  records : record list;
  dropped_bytes : int;
  torn : string option;
}

(* A header shorter than expected is only legal as a crash artifact: a
   strict prefix of the true header (create fsyncs the header before
   any append is acknowledged, so nothing is lost).  Anything else that
   differs is corruption. *)
let check_header s =
  let n = String.length s in
  if n >= header_bytes then begin
    let got = String.sub s 0 header_bytes in
    if String.equal got wal_header then `Ok
    else
      (* distinguish wrong magic from wrong version for the report *)
      let magic_len = String.length wal_magic in
      if n >= magic_len && String.equal (String.sub s 0 magic_len) wal_magic
      then
        corrupt "unsupported WAL version (this build reads %s)"
          (String.trim wal_header)
      else corrupt "bad magic: not a LegoDB WAL"
  end
  else if String.equal s (String.sub wal_header 0 n) then `Torn
  else corrupt "bad magic: not a LegoDB WAL"

let replay_string s =
  let len = String.length s in
  match check_header s with
  | `Torn ->
      { records = []; dropped_bytes = len; torn = Some "torn WAL header" }
  | `Ok ->
      let records = ref [] in
      let pos = ref header_bytes in
      let torn = ref None in
      let dropped = ref 0 in
      let stop why =
        torn := Some why;
        dropped := len - !pos
      in
      (try
         while !pos < len && !torn = None do
           match String.index_from_opt s !pos '\n' with
           | None -> stop "torn record header"
           | Some nl -> (
               let line = String.sub s !pos (nl - !pos) in
               (* the line is complete (it has its newline), so a shape
                  failure is corruption, not a torn write.  The tokens
                  are judged by the Wire header rules, so no bit flip
                  survives by parsing to the same values (hex case,
                  leading zeros) *)
               match String.split_on_char ' ' line with
               | [ (("R" | "G") as tag); crc; len_s ] ->
                   let plen =
                     match Wire.len_of_token len_s with
                     | Some n -> n
                     | None -> corrupt "malformed WAL record header %S" line
                   in
                   if nl + 1 + plen + 1 > len then stop "torn record payload"
                   else begin
                     let payload = String.sub s (nl + 1) plen in
                     if s.[nl + 1 + plen] <> '\n' then
                       corrupt
                         "malformed WAL record: missing terminator after \
                          payload";
                     Option.iter (corrupt "WAL record %s")
                       (Wire.checksum_error crc payload);
                     let members =
                       if String.equal tag "R" then [ decode_payload payload ]
                       else decode_group_payload payload
                     in
                     (* the first member of a commit unit must extend the
                        log contiguously; members within a unit are
                        contiguous by construction (decode derives their
                        seqs from the first) *)
                     (match (members, !records) with
                     | r :: _, prev :: _ when r.seq <> prev.seq + 1 ->
                         corrupt
                           "non-contiguous WAL: record %d follows record %d"
                           r.seq prev.seq
                     | _ -> ());
                     List.iter (fun r -> records := r :: !records) members;
                     pos := nl + 1 + plen + 1
                   end
               | _ -> corrupt "malformed WAL record header %S" line)
         done
       with Wire.Corrupt m -> raise (Corrupt m));
      { records = List.rev !records; dropped_bytes = !dropped; torn = !torn }

let replay_file path =
  if Sys.file_exists path then replay_string (Wire.read_file path)
  else { records = []; dropped_bytes = 0; torn = None }

(* ------------------------------------------------------------------ *)
(* the log handle                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  fs : Wire.fs;
  mutable next : int;  (* sequence number of the next append *)
  mutable staged : record list;  (* the open group, newest first *)
  mutable s_appends : int;
  mutable s_fsyncs : int;
  mutable s_groups : int;
  mutable s_max_group : int;
}

let create ?(fs = Wire.real_fs) ~next_seq path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  fs.Wire.write fd wal_header;
  fs.Wire.fsync fd;
  {
    fd;
    fs;
    next = next_seq;
    staged = [];
    s_appends = 0;
    s_fsyncs = 0;
    s_groups = 0;
    s_max_group = 0;
  }

let reopen ?(fs = Wire.real_fs) ~valid_bytes ~next_seq path =
  (* a tail so torn even the header is incomplete is rewritten whole *)
  if valid_bytes < header_bytes then create ~fs ~next_seq path
  else begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_bytes;
    fs.Wire.fsync fd;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    {
      fd;
      fs;
      next = next_seq;
      staged = [];
      s_appends = 0;
      s_fsyncs = 0;
      s_groups = 0;
      s_max_group = 0;
    }
  end

let stage t rows =
  let seq = t.next in
  t.staged <- { seq; rows } :: t.staged;
  t.next <- seq + 1;
  seq

let flush t =
  match t.staged with
  | [] -> ()
  | staged ->
      let group = List.rev staged in
      let image = encode_group group in
      (* one write, one fsync for the whole group; the staged buffer is
         cleared only after the fsync returns — a raise leaves it in
         place for the caller's fail-stop *)
      t.fs.Wire.write t.fd image;
      t.fs.Wire.fsync t.fd;
      let n = List.length group in
      t.staged <- [];
      t.s_appends <- t.s_appends + n;
      t.s_fsyncs <- t.s_fsyncs + 1;
      t.s_groups <- t.s_groups + 1;
      if n > t.s_max_group then t.s_max_group <- n

let staged t = List.length t.staged

let append t rows =
  let seq = stage t rows in
  flush t;
  seq

type stats = { appends : int; fsyncs : int; groups : int; max_group : int }

let stats t =
  {
    appends = t.s_appends;
    fsyncs = t.s_fsyncs;
    groups = t.s_groups;
    max_group = t.s_max_group;
  }

let reset t =
  Unix.ftruncate t.fd header_bytes;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
  t.fs.Wire.fsync t.fd

let next_seq t = t.next
let close t = Unix.close t.fd

(* ------------------------------------------------------------------ *)
(* snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let snap_magic = "LEGODB-SNAP"
let snap_version = 1

let write_snapshot ?fs ~path ~schema ~ordered ~last_seq db =
  let b = Buffer.create 4096 in
  Wire.w_int b last_seq;
  Wire.w_line b (if ordered then "o" else "-");
  Checkpoint.write_schema b schema;
  Storage.write_rows b db;
  Wire.write_atomic ?fs ~path
    (Wire.frame ~magic:snap_magic ~version:snap_version (Buffer.contents b))

type snapshot = {
  s_schema : Legodb_xtype.Xschema.t;
  s_ordered : bool;
  s_last_seq : int;
  s_fill : Storage.t -> unit;
}

let load_snapshot path =
  wrap_corrupt
    (fun path ->
      let body =
        Wire.unframe ~magic:snap_magic ~version:snap_version
          ~kind:"storage snapshot" (Wire.read_file path)
      in
      let cur = Wire.cursor body in
      let s_last_seq = Wire.r_int cur in
      let s_ordered =
        match Wire.r_line cur with
        | "o" -> true
        | "-" -> false
        | s -> Wire.corrupt "malformed payload: unknown order flag %S" s
      in
      let s_schema = Checkpoint.read_schema cur in
      let s_fill db =
        wrap_corrupt
          (fun db ->
            Storage.read_rows cur db;
            if not (Wire.at_end cur) then
              Wire.corrupt
                "malformed payload: %d trailing bytes in storage snapshot"
                (String.length cur.Wire.buf - cur.Wire.pos))
          db
      in
      { s_schema; s_ordered; s_last_seq; s_fill })
    path
