(* A growable byte window: [data.[off .. off+len-1]] are the live
   bytes, [scanned] of them are known to hold no '\n'.  All front-door
   I/O goes through one of these so consuming bytes is offset
   arithmetic and partial reads/writes never re-copy what is already
   buffered. *)

type t = {
  mutable data : Bytes.t;
  mutable off : int;
  mutable len : int;
  mutable scanned : int;
}

let min_capacity = 64

(* a drained buffer larger than this gives its storage back: one giant
   frame must not pin megabytes for the life of its connection *)
let shrink_capacity = 1 lsl 20

let create cap =
  { data = Bytes.create (max min_capacity cap); off = 0; len = 0; scanned = 0 }

let length t = t.len
let is_empty t = t.len = 0
let capacity t = Bytes.length t.data
let contents t = Bytes.sub_string t.data t.off t.len

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Iobuf.sub: range outside the live window";
  Bytes.sub_string t.data (t.off + pos) len

(* make room for [n] more bytes at the tail: compact first (free the
   consumed prefix), grow only when the live bytes genuinely do not
   fit *)
let reserve t n =
  let cap = Bytes.length t.data in
  if t.off + t.len + n > cap then
    if t.len + n <= cap then begin
      Bytes.blit t.data t.off t.data 0 t.len;
      t.off <- 0
    end
    else begin
      let target = ref (max min_capacity (cap * 2)) in
      while t.len + n > !target do
        target := !target * 2
      done;
      let grown = Bytes.create !target in
      Bytes.blit t.data t.off grown 0 t.len;
      t.data <- grown;
      t.off <- 0
    end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Iobuf.get: outside the live window";
  Bytes.unsafe_get t.data (t.off + i)

let add_substring t s ~pos ~len =
  reserve t len;
  Bytes.blit_string s pos t.data (t.off + t.len) len;
  t.len <- t.len + len

let add_string t s = add_substring t s ~pos:0 ~len:(String.length s)

let reset_storage t =
  if Bytes.length t.data > shrink_capacity then t.data <- Bytes.create min_capacity

let clear t =
  t.off <- 0;
  t.len <- 0;
  t.scanned <- 0;
  reset_storage t

let consume t n =
  if n < 0 || n > t.len then invalid_arg "Iobuf.consume: beyond the live window";
  t.off <- t.off + n;
  t.len <- t.len - n;
  t.scanned <- max 0 (t.scanned - n);
  if t.len = 0 then begin
    t.off <- 0;
    t.scanned <- 0;
    reset_storage t
  end

let of_string s =
  let t = create (String.length s) in
  add_string t s;
  t

let find_newline t =
  if t.scanned >= t.len then None
  else
    match Bytes.index_from_opt t.data (t.off + t.scanned) '\n' with
    | Some abs when abs < t.off + t.len ->
        let pos = abs - t.off in
        (* park the watermark on the newline: re-finding it while the
           frame's payload trickles in is O(1) *)
        t.scanned <- pos;
        Some pos
    | _ ->
        t.scanned <- t.len;
        None

let read_from ?(chunk = 65536) t fd =
  reserve t chunk;
  let n = Unix.read fd t.data (t.off + t.len) chunk in
  t.len <- t.len + n;
  n

let write_to ?max t fd =
  let n =
    Unix.write fd t.data t.off
      (match max with Some m -> min m t.len | None -> t.len)
  in
  consume t n;
  n
