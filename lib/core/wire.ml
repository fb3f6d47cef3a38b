(* Shared wire primitives: the line/length-prefixed text codec, CRC-32,
   header framing, and fsync-hardened atomic file replacement.  Factored
   out of the PR 4 checkpoint codec so storage snapshots and the query
   server's write-ahead log speak the same format (and share the same
   corruption detection) instead of growing three codecs. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                   *)
(* ------------------------------------------------------------------ *)

(* computed in native ints (CRC-32 fits in OCaml's 63-bit int with room
   to spare): the boxed-Int32 version allocated three boxes per input
   byte, which made checksumming the dominant cost of the network
   serving path.  Only the final result is boxed, so the public
   signature keeps its Int32. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* payload writers                                                     *)
(* ------------------------------------------------------------------ *)

(* tokens (tags, ints, floats) are newline-terminated; strings are
   length-prefixed so they may contain anything, newlines included *)

let w_line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let w_int b n = w_line b (string_of_int n)
let w_float b f = w_line b (Printf.sprintf "%h" f)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

let w_opt b f = function
  | None -> w_line b "-"
  | Some v ->
      w_line b "+";
      f b v

(* ------------------------------------------------------------------ *)
(* payload readers                                                     *)
(* ------------------------------------------------------------------ *)

type cursor = { buf : string; mutable pos : int }

let cursor buf = { buf; pos = 0 }
let at_end cur = cur.pos >= String.length cur.buf

let r_line cur =
  match String.index_from_opt cur.buf cur.pos '\n' with
  | None -> corrupt "malformed payload: unterminated token at byte %d" cur.pos
  | Some nl ->
      let s = String.sub cur.buf cur.pos (nl - cur.pos) in
      cur.pos <- nl + 1;
      s

let r_int cur =
  let s = r_line cur in
  match int_of_string_opt s with
  | Some n -> n
  | None -> corrupt "malformed payload: expected an integer, got %S" s

let r_float cur =
  let s = r_line cur in
  match float_of_string_opt s with
  | Some f -> f
  | None -> corrupt "malformed payload: expected a float, got %S" s

let r_str cur =
  let n = r_int cur in
  if n < 0 || cur.pos + n + 1 > String.length cur.buf then
    corrupt "malformed payload: string of %d bytes overruns the payload" n
  else begin
    let s = String.sub cur.buf cur.pos n in
    if cur.buf.[cur.pos + n] <> '\n' then
      corrupt "malformed payload: unterminated string at byte %d" cur.pos;
    cur.pos <- cur.pos + n + 1;
    s
  end

let r_list cur f =
  let n = r_int cur in
  if n < 0 then corrupt "malformed payload: negative list length %d" n;
  List.init n (fun _ -> f cur)

let r_opt cur f =
  match r_line cur with
  | "-" -> None
  | "+" -> Some (f cur)
  | s -> corrupt "malformed payload: expected an option marker, got %S" s

(* ------------------------------------------------------------------ *)
(* file image: header + checksummed payload                            *)
(* ------------------------------------------------------------------ *)

(* The header-token rules every framed format shares (see the .mli).
   Tokens are judged as text because [int_of_string] and hex parsing
   each accept several spellings of one value, and "any single bit flip
   is rejected" is a contract the fuzz tests hold every format to. *)
let len_of_token s =
  match int_of_string_opt s with
  | Some n when n >= 0 && String.equal s (string_of_int n) -> Some n
  | _ -> None

let crc_token payload = Printf.sprintf "%08lx" (crc32 payload)

let checksum_error token payload =
  let actual = crc_token payload in
  if String.equal token actual then None
  else
    Some
      (Printf.sprintf "checksum mismatch: header says %s, payload hashes to %s"
         token actual)

let header_line lead payload =
  Printf.sprintf "%s %s %d\n" lead (crc_token payload) (String.length payload)

let frame ~magic ~version payload =
  header_line (Printf.sprintf "%s %d" magic version) payload ^ payload

let unframe ~magic ~version ~kind image =
  let header, body =
    match String.index_opt image '\n' with
    | None -> corrupt "truncated %s: no header line" kind
    | Some nl ->
        ( String.sub image 0 nl,
          String.sub image (nl + 1) (String.length image - nl - 1) )
  in
  let m, v, crc, len =
    match String.split_on_char ' ' header with
    | [ m; v; crc; len ] -> (m, v, crc, len)
    | _ -> corrupt "bad magic: not a LegoDB %s" kind
  in
  if not (String.equal m magic) then corrupt "bad magic: not a LegoDB %s" kind;
  (match int_of_string_opt v with
  | Some v when v = version -> ()
  | Some v ->
      corrupt "unsupported %s version %d (this build reads %d)" kind v version
  | None -> corrupt "malformed header: version %S is not a number" v);
  let len =
    match len_of_token len with
    | Some n -> n
    | None -> corrupt "malformed header: payload length %S" len
  in
  if String.length body < len then
    corrupt "truncated %s: header promises %d payload bytes, found %d" kind len
      (String.length body);
  if String.length body > len then
    corrupt "malformed %s: %d bytes beyond the declared payload" kind
      (String.length body - len);
  Option.iter (corrupt "%s") (checksum_error crc body);
  body

(* ------------------------------------------------------------------ *)
(* file I/O through the injectable fault seam                          *)
(* ------------------------------------------------------------------ *)

type fs = {
  write : Unix.file_descr -> string -> unit;
  fsync : Unix.file_descr -> unit;
  rename : string -> string -> unit;
}

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let real_fs = { write = write_all; fsync = Unix.fsync; rename = Sys.rename }

(* tmp + fsync + rename + parent-directory fsync: the rename is what
   publishes the new bytes, so they must be on disk before it, and the
   rename itself lives in the directory, so the directory must be
   synced after it — otherwise a power cut can roll either back *)
let write_atomic ?(fs = real_fs) ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  (match
     fs.write fd data;
     fs.fsync fd
   with
  | () -> Unix.close fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  fs.rename tmp path;
  let dir = Filename.dirname path in
  let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  (match fs.fsync dfd with
  | () -> Unix.close dfd
  | exception e ->
      (try Unix.close dfd with Unix.Unix_error _ -> ());
      raise e)

let read_file path =
  let ic = open_in_bin path in
  match really_input_string ic (in_channel_length ic) with
  | s ->
      close_in ic;
      s
  | exception e ->
      close_in_noerr ic;
      raise e
