module Wire = Legodb_wire.Wire
module Storage = Legodb_relational.Storage
module Checkpoint = Legodb_search.Checkpoint

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let wrap_corrupt f x = try f x with Wire.Corrupt m -> raise (Corrupt m)
let snapshot_file dir = Filename.concat dir "snapshot.legodb"
let wal_file dir = Filename.concat dir "wal.legodb"
let manifest_name = "manifest.legodb"
let manifest_file dir = Filename.concat dir manifest_name
let segment_file ~first ~last = Printf.sprintf "segment-%d-%d.legodb" first last

let is_segment_file name =
  String.starts_with ~prefix:"segment-" name
  && Filename.check_suffix name ".legodb"

(* ------------------------------------------------------------------ *)
(* records                                                             *)
(* ------------------------------------------------------------------ *)

type record = { seq : int; rows : (string * Storage.row list) list }

(* Per table: name, arity (so the reader needs no catalog), rows. *)
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

(* One commit unit on disk: a [G <crc32> <len>] line, [<len>] payload
   bytes, a ['\n'] terminator.  The payload carries the first member's
   sequence number, the member count and each member's tables, all
   under one CRC, so a bit flip anywhere — a sequence number included —
   is a checksum mismatch, never a silently re-sequenced record.  The
   whole unit goes to the kernel in a single [write], so the only
   artifact a crash (or short write) can leave is a strict prefix of
   it: the members share the unit, and no prefix of an unacknowledged
   group can ever replay as if it had committed. *)
let encode_group = function
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
      let payload = Buffer.contents b in
      Wire.header_line "G" payload ^ payload ^ "\n"

let decode_group payload =
  wrap_corrupt
    (fun payload ->
      let cur = Wire.cursor payload in
      let first = Wire.r_int cur in
      let count = Wire.r_int cur in
      if count < 1 then
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

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let wal_magic = "LEGODB-WAL"
let wal_version = 2
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
               | [ "G"; crc; len_s ] ->
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
                     let members = decode_group payload in
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

type stats = {
  mutable appends : int;
  mutable fsyncs : int;
  mutable groups : int;
  mutable max_group : int;
  mutable bytes : int;
}

type t = {
  fd : Unix.file_descr;
  fs : Wire.fs;
  mutable next : int;  (* sequence number of the next append *)
  mutable staged : record list;  (* the open group, newest first *)
  counts : stats;  (* since this handle opened *)
}

let handle ~fs ~next_seq ~bytes fd =
  {
    fd;
    fs;
    next = next_seq;
    staged = [];
    counts = { appends = 0; fsyncs = 0; groups = 0; max_group = 0; bytes };
  }

let create ?(fs = Wire.real_fs) ~next_seq path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  fs.Wire.write fd wal_header;
  fs.Wire.fsync fd;
  handle ~fs ~next_seq ~bytes:header_bytes fd

let reopen ?(fs = Wire.real_fs) ~valid_bytes ~next_seq path =
  (* a tail so torn even the header is incomplete is rewritten whole *)
  if valid_bytes < header_bytes then create ~fs ~next_seq path
  else begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_bytes;
    fs.Wire.fsync fd;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    handle ~fs ~next_seq ~bytes:0 fd
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
      let n = List.length group and c = t.counts in
      t.staged <- [];
      c.appends <- c.appends + n;
      c.fsyncs <- c.fsyncs + 1;
      c.groups <- c.groups + 1;
      c.bytes <- c.bytes + String.length image;
      if n > c.max_group then c.max_group <- n

let staged t = List.length t.staged
let stats t = { t.counts with appends = t.counts.appends }

let reset t =
  Unix.ftruncate t.fd header_bytes;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
  t.fs.Wire.fsync t.fd

let next_seq t = t.next
let close t = Unix.close t.fd

(* ------------------------------------------------------------------ *)
(* the store: segments, the manifest, and the whole-store image       *)
(* ------------------------------------------------------------------ *)

(* what the manifest and the whole-store image both open with: the last
   append covered, the mapping's order flag, the p-schema *)
let w_store_header b ~last_seq ~ordered ~schema =
  Wire.w_int b last_seq;
  Wire.w_line b (if ordered then "o" else "-");
  Checkpoint.write_schema b schema

let snap_magic = "LEGODB-SNAP"
let snap_version = 1

let write_snapshot ?fs ~path ~schema ~ordered ~last_seq db =
  ignore
    (Wire.write_frame_atomic ?fs ~path ~magic:snap_magic ~version:snap_version
       (fun b spill ->
         w_store_header b ~last_seq ~ordered ~schema;
         Storage.write_rows ~spill b db)
      : int)

let seg_magic = "LEGODB-SEG"
let seg_version = 1
let manifest_magic = "LEGODB-MANIFEST"
let manifest_version = 2

let write_segment ?fs ~dir ~first ~last db seg =
  let file = segment_file ~first ~last in
  let bytes =
    Wire.write_frame_synced ?fs ~path:(Filename.concat dir file)
      ~magic:seg_magic ~version:seg_version (fun b spill ->
        Wire.w_int b first;
        Wire.w_int b last;
        Storage.write_segment ~spill b db seg)
  in
  (file, bytes)

type segment = { g_first : int; g_last : int; g_fill : Storage.t -> unit }

let load_segment path =
  if not (Sys.file_exists path) then
    corrupt "the manifest names a missing segment %s" (Filename.basename path);
  wrap_corrupt
    (fun path ->
      let cur =
        Wire.cursor
          (Wire.unframe ~magic:seg_magic ~version:seg_version
             ~kind:"storage segment" (Wire.read_file path))
      in
      let g_first = Wire.r_int cur in
      let g_last = Wire.r_int cur in
      let g_fill db =
        wrap_corrupt
          (fun db ->
            Storage.read_rows cur db;
            if not (Wire.at_end cur) then
              Wire.corrupt
                "malformed payload: %d trailing bytes in storage segment"
                (String.length cur.Wire.buf - cur.Wire.pos))
          db
      in
      { g_first; g_last; g_fill })
    path

type manifest = {
  m_schema : Legodb_xtype.Xschema.t;
  m_ordered : bool;
  m_last_seq : int;
  m_segments : (string * int * int) list;
}

let write_manifest ?fs ~dir m =
  Wire.write_frame_atomic ?fs ~path:(manifest_file dir) ~magic:manifest_magic
    ~version:manifest_version (fun b _ ->
      w_store_header b ~last_seq:m.m_last_seq ~ordered:m.m_ordered
        ~schema:m.m_schema;
      Wire.w_list b
        (fun b (file, first, last) ->
          Wire.w_str b file;
          Wire.w_int b first;
          Wire.w_int b last)
        m.m_segments)

let load_manifest dir =
  wrap_corrupt
    (fun path ->
      let cur =
        Wire.cursor
          (Wire.unframe ~magic:manifest_magic ~version:manifest_version
             ~kind:"storage manifest" (Wire.read_file path))
      in
      let m_last_seq = Wire.r_int cur in
      let m_ordered =
        match Wire.r_line cur with
        | "o" -> true
        | "-" -> false
        | s -> Wire.corrupt "malformed payload: unknown order flag %S" s
      in
      let m_schema = Checkpoint.read_schema cur in
      let m_segments =
        Wire.r_list cur (fun cur ->
            let file = Wire.r_str cur in
            let first = Wire.r_int cur in
            let last = Wire.r_int cur in
            if not (String.equal file (segment_file ~first ~last)) then
              Wire.corrupt "malformed manifest: segment %S for records %d-%d"
                file first last;
            (file, first, last))
      in
      if not (Wire.at_end cur) then
        Wire.corrupt "malformed payload: trailing bytes in storage manifest";
      (* the segments cover the appends from 0 (the rows the store was
         created over) on, contiguously *)
      ignore
        (List.fold_left
           (fun next (_, first, last) ->
             if first <> next then
               Wire.corrupt
                 "malformed manifest: a segment from record %d where record %d \
                  is next"
                 first next;
             if last < first || last > m_last_seq then
               Wire.corrupt "malformed manifest: segment for records %d-%d"
                 first last;
             last + 1)
           0 m_segments
          : int);
      { m_schema; m_ordered; m_last_seq; m_segments })
    (manifest_file dir)

let check_format dir =
  if Sys.file_exists (snapshot_file dir) then
    corrupt
      "%s is a store format 1 directory (it holds snapshot.legodb); this \
       build reads format 2"
      dir

let remove_unnamed ~dir m =
  let named name = List.exists (fun (f, _, _) -> String.equal f name) in
  Array.iter
    (fun name ->
      if
        (is_segment_file name && not (named name m.m_segments))
        || String.equal name (manifest_name ^ ".tmp")
      then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)
