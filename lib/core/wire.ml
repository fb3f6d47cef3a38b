(* Shared wire primitives: the line/length-prefixed text codec, CRC-32,
   header framing, and fsync-hardened atomic file replacement.  Factored
   out of the PR 4 checkpoint codec so storage snapshots and the query
   server's write-ahead log speak the same format (and share the same
   corruption detection) instead of growing three codecs. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), slicing-by-8                                   *)
(* ------------------------------------------------------------------ *)

(* Computed in native ints (CRC-32 fits in OCaml's 63-bit int with room
   to spare); only the final result is boxed, so the public signature
   keeps its Int32.  [tables.(k * 256 + b)] is the CRC of byte [b]
   followed by [k] zero bytes: table 0 is the classic byte-at-a-time
   table, and eight of them fold eight input bytes per step — two
   little-endian 32-bit reads, eight lookups — into the same value the
   byte loop computes. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* [c] (the register, pre- and post-inverted by the callers) folded
   over [s.[pos .. pos + len - 1]] *)
let crc_update c s pos len =
  let t = tables in
  let stop = pos + len in
  let c = ref c in
  let i = ref pos in
  while !i + 8 <= stop do
    let lo =
      !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF)
    and hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      t.((7 * 256) + (lo land 0xff))
      lxor t.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor t.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor t.((4 * 256) + (lo lsr 24))
      lxor t.((3 * 256) + (hi land 0xff))
      lxor t.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor t.(256 + ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      t.((!c lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c

let crc32_int s = crc_update 0xFFFFFFFF s 0 (String.length s) lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc32_int s)

(* ------------------------------------------------------------------ *)
(* payload writers                                                     *)
(* ------------------------------------------------------------------ *)

(* tokens (tags, ints, floats) are newline-terminated; strings are
   length-prefixed so they may contain anything, newlines included *)

let w_line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

(* the digits of [n <= 0], most significant first: negative remainders
   keep [min_int] in range *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [string_of_int n]'s bytes, without the string *)
let w_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n);
  Buffer.add_char b '\n'

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
let rec decimal_from get i stop acc =
  if i = stop then Some acc
  else
    let c = get i in
    if c < '0' || c > '9' then None
    else
      let d = Char.code c - Char.code '0' in
      if acc > (max_int - d) / 10 then None
      else decimal_from get (i + 1) stop ((acc * 10) + d)

(* [string_of_int n]'s spelling for some [n >= 0], and nothing else:
   digits only, no leading zero but "0" itself, within [max_int] *)
let len_at get ~pos ~len =
  if len = 0 || (len > 1 && Char.equal (get pos) '0') then None
  else decimal_from get pos (pos + len) 0

let len_of_token s = len_at (String.get s) ~pos:0 ~len:(String.length s)

(* character [i] of the checksum token, [%08lx] of the CRC: lowercase
   and zero-padded *)
let token_char crc i = "0123456789abcdef".[(crc lsr (4 * (7 - i))) land 0xf]

let crc_token_of crc = String.init 8 (token_char crc)

let rec token_from crc get pos i =
  i = 8
  || Char.equal (get (pos + i)) (token_char crc i)
     && token_from crc get pos (i + 1)

(* the token is judged in place against the computed CRC; only a
   mismatch copies it out, for the message *)
let checksum_error_at get ~pos ~len payload =
  let crc = crc32_int payload in
  if len = 8 && token_from crc get pos 0 then None
  else
    Some
      (Printf.sprintf "checksum mismatch: header says %s, payload hashes to %s"
         (String.init len (fun i -> get (pos + i)))
         (crc_token_of crc))

let checksum_error token payload =
  checksum_error_at (String.get token) ~pos:0 ~len:(String.length token)
    payload

let decimal_width n =
  let rec go w n = if n < 10 then w else go (w + 1) (n / 10) in
  go 1 n

(* [n >= 0]'s decimal digits into [b], ending just before [stop] *)
let rec blit_decimal b stop n =
  Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then blit_decimal b (stop - 1) (n / 10)

(* "<lead> <crc-token> <len>\n" and then [body] (the payload, or
   nothing), written straight into one string *)
let framed_crc lead ~crc ~len body =
  let ll = String.length lead and lw = decimal_width len in
  let header = ll + 1 + 8 + 1 + lw + 1 in
  let b = Bytes.create (header + String.length body) in
  Bytes.blit_string lead 0 b 0 ll;
  Bytes.unsafe_set b ll ' ';
  for i = 0 to 7 do
    Bytes.unsafe_set b (ll + 1 + i) (token_char crc i)
  done;
  Bytes.unsafe_set b (ll + 9) ' ';
  blit_decimal b (header - 1) len;
  Bytes.unsafe_set b (header - 1) '\n';
  Bytes.blit_string body 0 b header (String.length body);
  Bytes.unsafe_to_string b

let framed lead payload body =
  framed_crc lead ~crc:(crc32_int payload) ~len:(String.length payload) body

let header_line lead payload = framed lead payload ""
let frame_lead ~magic ~version = magic ^ " " ^ string_of_int version

let frame ~magic ~version payload =
  framed (frame_lead ~magic ~version) payload payload

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

(* The bytes a streamed payload is cut into: a producer's output is
   handed to the file (or to the checksum) whenever this much has
   accumulated, so no image is ever built as one string. *)
let chunk_bytes = 1 lsl 16

(* [produce] run over a buffer (holding [lead] to begin with) that is
   handed to [consume] in chunks of about [chunk_bytes]; returns the
   bytes consumed *)
let drain ?(lead = "") produce consume =
  let b = Buffer.create (chunk_bytes + 4096) in
  Buffer.add_string b lead;
  let total = ref 0 in
  let emit () =
    let s = Buffer.contents b in
    Buffer.clear b;
    total := !total + String.length s;
    consume s
  in
  produce b (fun () -> if Buffer.length b >= chunk_bytes then emit ());
  if Buffer.length b > 0 then emit ();
  !total

(* The header carries the payload's checksum and length, so it is known
   only after the whole payload: the producer runs twice, once into the
   checksum and once into the file.  Both runs must produce the same
   bytes, which holds for the immutable data every caller streams. *)
let write_frame ?(fs = real_fs) fd ~magic ~version produce =
  let crc = ref 0xFFFFFFFF in
  let len =
    drain produce (fun s -> crc := crc_update !crc s 0 (String.length s))
  in
  let header =
    framed_crc (frame_lead ~magic ~version) ~crc:(!crc lxor 0xFFFFFFFF) ~len ""
  in
  (* the header rides the first chunk: an image under one chunk is
     still a single write *)
  let written = drain ~lead:header produce (fs.write fd) in
  if written <> String.length header + len then
    invalid_arg "Wire.write_frame: the producer is not deterministic";
  written

let fsync_dir fs path =
  let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  match fs.fsync dfd with
  | () -> Unix.close dfd
  | exception e ->
      (try Unix.close dfd with Unix.Unix_error _ -> ());
      raise e

(* open [path] fresh, let [write] fill it, fsync, close *)
let write_synced fs ~path write =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  match
    let r = write fd in
    fs.fsync fd;
    r
  with
  | r ->
      Unix.close fd;
      r
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* tmp + fsync + rename + parent-directory fsync: the rename is what
   publishes the new bytes, so they must be on disk before it, and the
   rename itself lives in the directory, so the directory must be
   synced after it — otherwise a power cut can roll either back *)
let replace_atomic ?(fs = real_fs) ~path write =
  let tmp = path ^ ".tmp" in
  let r = write_synced fs ~path:tmp write in
  fs.rename tmp path;
  fsync_dir fs path;
  r

let write_atomic ?(fs = real_fs) ~path data =
  replace_atomic ~fs ~path (fun fd -> fs.write fd data)

let write_frame_atomic ?(fs = real_fs) ~path ~magic ~version produce =
  replace_atomic ~fs ~path (fun fd -> write_frame ~fs fd ~magic ~version produce)

let write_frame_synced ?(fs = real_fs) ~path ~magic ~version produce =
  write_synced fs ~path (fun fd -> write_frame ~fs fd ~magic ~version produce)

let read_file path =
  let ic = open_in_bin path in
  match really_input_string ic (in_channel_length ic) with
  | s ->
      close_in ic;
      s
  | exception e ->
      close_in_noerr ic;
      raise e
