(* The framing bytes.  The CRC, the header tokens and the frames are
   written without [Printf] and checked a word at a time; each is held
   here to the spelling it replaced — the bitwise CRC, the [Printf]
   formats, [string_of_int], the split-based network header parser —
   and images written before the rewrite still load and re-encode to
   the same bytes. *)

open Legodb
open Test_util

let prop name ?(count = 200) ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen f)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* the definition: reflected polynomial, one bit at a time *)
let crc_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let gen_bytes = QCheck2.Gen.(string_size ~gen:char (int_range 0 300))

let crc_known () =
  (* the standard check value, and every length residue mod 8 at each
     offset of one buffer *)
  check_bool "check value" true (Wire.crc32 "123456789" = 0xCBF43926l);
  let s = String.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  for off = 0 to 8 do
    for len = 0 to 40 do
      let sub = String.sub s off len in
      if Wire.crc32 sub <> crc_bitwise sub then
        Alcotest.failf "crc32 differs at offset %d length %d" off len
    done
  done

let prop_crc =
  prop "crc32 equals the bitwise CRC on random strings" gen_bytes (fun s ->
      Wire.crc32 s = crc_bitwise s)

(* ------------------------------------------------------------------ *)
(* header tokens and frames, against their Printf spellings            *)
(* ------------------------------------------------------------------ *)

let printf_token s = Printf.sprintf "%08lx" (Wire.crc32 s)

let prop_header =
  prop "header_line and frame (and so the token) equal their Printf spellings"
    QCheck2.Gen.(
      triple gen_bytes
        (oneofl [ "LEGODB-NET 1"; "R"; "G"; "" ])
        (pair
           (oneofl [ "LEGODB-NET"; "LEGODB-CKPT"; "X" ])
           (int_range (-12) 12)))
    (fun (s, lead, (magic, version)) ->
      String.equal
           (Wire.header_line lead s)
           (Printf.sprintf "%s %s %d\n" lead (printf_token s) (String.length s))
      && String.equal
           (Wire.frame ~magic ~version s)
           (Printf.sprintf "%s %d %s %d\n%s" magic version (printf_token s)
              (String.length s) s))

let length_widths () =
  (* every decimal width of the length token the frames can carry *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      check_string
        (Printf.sprintf "header for %d bytes" n)
        (Printf.sprintf "T %s %d\n" (printf_token s) n)
        (Wire.header_line "T" s))
    [ 0; 1; 9; 10; 99; 100; 999; 1000; 9999; 10_000; 99_999; 100_000 ]

let checksum_tokens () =
  let mismatch token s =
    Printf.sprintf "checksum mismatch: header says %s, payload hashes to %s"
      token (printf_token s)
  in
  List.iter
    (fun s ->
      let t = printf_token s in
      check_bool "canonical token accepted" true
        (Wire.checksum_error t s = None);
      List.iter
        (fun bad ->
          if not (String.equal bad t) then
            match Wire.checksum_error bad s with
            | Some m -> check_string ("message for " ^ bad) (mismatch bad s) m
            | None -> Alcotest.failf "token %S accepted for %08lx" bad
                        (Wire.crc32 s))
        [
          String.uppercase_ascii t;
          String.sub t 1 7;
          "0" ^ t;
          t ^ "0";
          "+" ^ t;
          " " ^ t;
          t ^ " ";
          "0x" ^ String.sub t 2 6;
          "";
        ])
    (* tokens with letters, so uppercase differs, and without *)
    [ ""; "a"; "hello"; "123456789"; String.make 300 'z' ];
  (* the in-place reader judges a window of a larger buffer *)
  let s = "payload" in
  let framed = "xx " ^ printf_token s ^ " yy" in
  check_bool "in place" true
    (Wire.checksum_error_at (String.get framed) ~pos:3 ~len:8 s = None);
  check_bool "in place, shifted" true
    (Wire.checksum_error_at (String.get framed) ~pos:2 ~len:8 s
    = Some (mismatch (String.sub framed 2 8) s))

let w_int_digits () =
  List.iter
    (fun n ->
      let b = Buffer.create 8 in
      Wire.w_int b n;
      check_string (string_of_int n) (string_of_int n ^ "\n")
        (Buffer.contents b))
    [ 0; 1; -1; 9; 10; -10; 12345; -98765; max_int; min_int; max_int - 1;
      min_int + 1 ]

let prop_w_int =
  prop "w_int writes string_of_int's digits" QCheck2.Gen.int (fun n ->
      let b = Buffer.create 8 in
      Wire.w_int b n;
      Wire.w_int b (-n);
      String.equal (Buffer.contents b)
        (string_of_int n ^ "\n" ^ string_of_int (-n) ^ "\n"))

(* the rule the length token had as [int_of_string] text *)
let len_by_text s =
  match int_of_string_opt s with
  | Some n when n >= 0 && String.equal s (string_of_int n) -> Some n
  | _ -> None

let prop_len =
  prop "len_of_token keeps the int_of_string rule"
    QCheck2.Gen.(
      oneof
        [
          string_size ~gen:(oneofl [ '0'; '1'; '9'; '+'; '-'; '_'; 'x'; ' ' ])
            (int_range 0 6);
          map string_of_int int;
          return "4611686018427387903";
          return "4611686018427387904";
          return "99999999999999999999";
        ])
    (fun s ->
      Wire.len_of_token s = len_by_text s
      && Wire.len_at (String.get ("#" ^ s)) ~pos:1 ~len:(String.length s)
         = len_by_text s)

(* ------------------------------------------------------------------ *)
(* the network header parser, against the split-based one it replaced  *)
(* ------------------------------------------------------------------ *)

let max_payload = 64 * 1024 * 1024

(* the extractor before in-place parsing, with the token rules as they
   were spelled then: [int_of_string] text for the length, a [Printf]
   token compared as a string for the checksum *)
let old_checksum_error token payload =
  let actual = printf_token payload in
  if String.equal token actual then None
  else
    Some
      (Printf.sprintf "checksum mismatch: header says %s, payload hashes to %s"
         token actual)

let split_extract buf =
  match Iobuf.find_newline buf with
  | None ->
      if Iobuf.length buf > 128 then `Broken "malformed frame: no header line"
      else `Partial
  | Some nl -> (
      let line = Iobuf.sub buf ~pos:0 ~len:nl in
      let broken () =
        let shown =
          if String.length line <= 64 then line else String.sub line 0 64
        in
        `Broken (Printf.sprintf "malformed frame header %S" shown)
      in
      match String.split_on_char ' ' line with
      | [ m; v; crc; len ] when String.equal m "LEGODB-NET" -> (
          match len_by_text len with
          | Some n when n <= max_payload -> (
              let total = nl + 1 + n in
              if Iobuf.length buf < total then `Partial
              else
                match int_of_string_opt v with
                | None ->
                    `Broken
                      (Printf.sprintf
                         "malformed header: version %S is not a number" v)
                | Some ver when ver <> 1 ->
                    `Broken
                      (Printf.sprintf
                         "unsupported network frame version %d (this build \
                          reads %d)"
                         ver 1)
                | Some _ -> (
                    let payload = Iobuf.sub buf ~pos:(nl + 1) ~len:n in
                    match old_checksum_error crc payload with
                    | None ->
                        Iobuf.consume buf total;
                        `Frame payload
                    | Some m -> `Broken m))
          | _ -> broken ())
      | _ -> broken ())

(* header edits: a token's index and what becomes of it — other
   spellings of the same value, and near misses *)
let gen_header_edit =
  let set text _ = text in
  QCheck2.Gen.oneofl
    [
      (0, set "LEGODB-NEt");
      (0, set "LEGODB-NET ");
      (0, set "");
      (1, set "01");
      (1, set "+1");
      (1, set "0x1");
      (1, set "1_");
      (1, set "2");
      (1, set "one");
      (1, set "");
      (2, set "");
      (2, String.uppercase_ascii);
      (2, fun t -> String.sub t 0 7);
      (2, fun t -> "0" ^ t);
      (3, set "+5");
      (3, set "05");
      (3, set "");
      (3, set "0");
      (3, set "99999999");
      (3, set "4611686018427387904");
      (3, fun t -> "0" ^ t);
    ]

let edit_header frame (tok, edit) =
  let nl = String.index frame '\n' in
  let tokens =
    List.mapi
      (fun i t -> if i = tok then edit t else t)
      (String.split_on_char ' ' (String.sub frame 0 nl))
  in
  String.concat " " tokens ^ String.sub frame nl (String.length frame - nl)

let gen_stream =
  QCheck2.Gen.(
    let* payload = string_size ~gen:char (int_range 0 80) in
    let frame = Net.encode_request (Net.Query payload) in
    let* damage =
      oneof
        [
          return (fun f -> f);
          map (fun e f -> edit_header f e) gen_header_edit;
          map2
            (fun pos bit f ->
              let b = Bytes.of_string f in
              let p = pos mod Bytes.length b in
              Bytes.set b p
                (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
              Bytes.to_string b)
            (int_range 0 10_000) (int_range 0 7);
          map (fun cut f -> String.sub f 0 (cut mod (String.length f + 1)))
            (int_range 0 10_000);
          map (fun g f -> g ^ f) (string_size ~gen:char (int_range 1 20));
        ]
    in
    let* next = oneofl [ ""; Net.encode_request Net.Ping ] in
    return (damage frame ^ next))

let prop_extract =
  prop "extract_frame agrees with the split-based header parser" ~count:500
    ~print:(Printf.sprintf "%S") gen_stream (fun bytes ->
      let a = Iobuf.of_string bytes and b = Iobuf.of_string bytes in
      let rec drive () =
        let x = Net.extract_frame a and y = split_extract b in
        x = y
        && Iobuf.length a = Iobuf.length b
        && match x with `Frame _ -> drive () | _ -> true
      in
      drive ())

(* ------------------------------------------------------------------ *)
(* images written before the rewrite                                   *)
(* ------------------------------------------------------------------ *)

(* A storage snapshot, a WAL (a plain record, then a group of three)
   and a checkpoint, as the table-driven CRC and the [Printf] framer
   wrote them for the inputs [golden_inputs] rebuilds: the bookstore
   corpus, its rows, an edge-valued row, and a small search state. *)

let golden_snapshot =
  String.concat ""
    [
      "LEGODB-SNAP 1 1fbca301 603\n3\n-\n5\nStore\n3\n5\nStore";
      "\nl\nn\n5\nstore\n+\n0x1p+0\n0\nr\n0\n*\nf\n4\nBook\n4\nBook\nl\n";
      "n\n4\nbook\n+\n0x1p+1\n0\nq\n5\na\n4\nisbn\ns\nstr\n+\n3\n+\n111";
      "\n+\n222\n+\n2\nl\nn\n5\ntitle\n+\n0x1p+1\n0\ns\nstr\n+\n23\n-\n-";
      "\n+\n2\nl\nn\n5\nprice\n+\n0x1p+1\n0\ns\nint\n+\n2\n+\n90\n+\n120";
      "\n+\n2\nr\n1\n*\nf\n6\nAuthor\nr\n0\n1\nl\nn\n5\nblurb\n+\n0x1p+0";
      "\n0\ns\nstr\n+\n12\n-\n-\n+\n1\n6\nAuthor\nl\nn\n6\nauthor\n+\n0x";
      "1p+2\n0\nl\nn\n4\nname\n+\n0x1p+2\n0\ns\nstr\n+\n7\n-\n-\n+\n4\n3";
      "\n5\nStore\n1\n1\ni\n1\n4\nBook\n6\n2\ni\n1\ns\n3\n111\ns\n31\nTyp";
      "es and Programming Languages\ni\n90\ns\n12\nthe red b";
      "ook\ni\n1\ni\n2\ns\n3\n222\ns\n16\nDatabase Systems\ni\n120\n";
      "n\ni\n1\n6\nAuthor\n3\n4\ni\n1\ns\n6\nPierce\ni\n1\ni\n2\ns\n13\nG";
      "arcia-Molina\ni\n2\ni\n3\ns\n6\nUllman\ni\n2\ni\n4\ns\n5\nWido";
      "m\ni\n2\n";
    ]

let golden_wal =
  String.concat ""
    [
      "LEGODB-WAL 1\nR fe3d4ebf 20\n4\n1\n5\nStore\n1\n1\ni\n1\n\n";
      "G 780444a2 335\n5\n3\n1\n4\nBook\n6\n2\ni\n1\ns\n3\n111\ns\n31";
      "\nTypes and Programming Languages\ni\n90\ns\n12\nthe r";
      "ed book\ni\n1\ni\n2\ns\n3\n222\ns\n16\nDatabase Systems\ni\n";
      "120\nn\ni\n1\n1\n4\nBook\n6\n1\ni\n-4611686018427387904\ns\n";
      "5\na\nb c\nn\ni\n4611686018427387903\ni\n-7\ni\n-46116860";
      "18427387904\n1\n6\nAuthor\n3\n4\ni\n1\ns\n6\nPierce\ni\n1\ni\n";
      "2\ns\n13\nGarcia-Molina\ni\n2\ni\n3\ns\n6\nUllman\ni\n2\ni\n4\n";
      "s\n5\nWidom\ni\n2\n\n";
    ]

let golden_checkpoint =
  String.concat ""
    [
      "LEGODB-CKPT 2 e46deb15 554\n9\ngreedy_si\n8\ninline\n";
      "outline\nunion_dist\nunion_factor\nrep_split\nrep_me";
      "rge\nwildcard\nunion_opts\n12\n1\n9\n1\n0\n0x1.34ap+10\n-";
      "\n3\n0\n0\n0\n0\n0x0p+0\n0x0p+0\n0x0p+0\n0\n0\ngreedy\n5\nSto";
      "re\n3\n5\nStore\nl\nn\n5\nstore\n+\n0x1p+0\n0\nr\n0\n*\nf\n4\nBo";
      "ok\n4\nBook\nl\nn\n4\nbook\n+\n0x1p+1\n0\nq\n5\na\n4\nisbn\ns\ns";
      "tr\n+\n3\n+\n111\n+\n222\n+\n2\nl\nn\n5\ntitle\n+\n0x1p+1\n0\ns\n";
      "str\n+\n23\n-\n-\n+\n2\nl\nn\n5\nprice\n+\n0x1p+1\n0\ns\nint\n+\n";
      "2\n+\n90\n+\n120\n+\n2\nr\n1\n*\nf\n6\nAuthor\nr\n0\n1\nl\nn\n5\nbl";
      "urb\n+\n0x1p+0\n0\ns\nstr\n+\n12\n-\n-\n+\n1\n6\nAuthor\nl\nn\n6";
      "\nauthor\n+\n0x1p+2\n0\nl\nn\n4\nname\n+\n0x1p+2\n0\ns\nstr\n+";
      "\n7\n-\n-\n+\n4\n0x1.34ap+10\n0x1p-2\n2\n3\nk\n\000\n0x1p-3\n1\nz";
      "\nnan\n";
    ]

let tmp_dir () =
  let d = Filename.temp_file "legodb_wire" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let golden_inputs () =
  let ps =
    Init.all_inlined
      (Annotate.schema (Collector.collect books_doc) books_schema)
  in
  let m = mapping_of ps in
  let db = Storage.freeze (Shred.shred m books_doc) in
  let t = Array.of_list (Storage.catalog db).Rschema.tables in
  let rows_of (t : Rschema.table) =
    (t.tname, List.init (Storage.row_count db t.tname) (Storage.get db t.tname))
  in
  let edge =
    ( t.(1).tname,
      [
        Array.init (List.length t.(1).columns) (fun i ->
            match i mod 5 with
            | 0 -> Rtype.V_int min_int
            | 1 -> Rtype.V_string "a\nb c"
            | 2 -> Rtype.V_null
            | 3 -> Rtype.V_int max_int
            | _ -> Rtype.V_int (-7));
      ] )
  in
  let appends =
    [ [ rows_of t.(0) ]; [ rows_of t.(1) ]; [ edge ]; [ rows_of t.(2) ] ]
  in
  let state =
    {
      Checkpoint.strategy = "greedy_si";
      kinds = Space.all_kinds;
      max_iterations = 12;
      iteration = 1;
      evaluations = 9;
      trace =
        [
          {
            Checkpoint.iteration = 0;
            cost = 1234.5;
            step = None;
            tables = 3;
            engine = Cost_engine.empty_snapshot;
            failures = [];
          };
        ];
      failures = [];
      point =
        Checkpoint.Greedy
          { g_schema = ps; g_cost = 1234.5; g_threshold = 0.25 };
      cache = [ ("k\n\x00", 0.125); ("z", nan) ];
    }
  in
  (m, db, appends, state)

let golden_images () =
  let m, db, appends, state = golden_inputs () in
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* today's writers give the same bytes for the same inputs *)
  Wal.write_snapshot ~path:(Wal.snapshot_file dir) ~schema:m.Mapping.schema
    ~ordered:m.Mapping.ordered ~last_seq:3 db;
  check_string "snapshot bytes" golden_snapshot
    (Wire.read_file (Wal.snapshot_file dir));
  let wal = Wal.create ~next_seq:4 (Wal.wal_file dir) in
  (match appends with
  | first :: group ->
      ignore (Wal.append wal first);
      List.iter (fun a -> ignore (Wal.stage wal a)) group;
      Wal.flush wal
  | [] -> assert false);
  Wal.close wal;
  check_string "WAL bytes" golden_wal (Wire.read_file (Wal.wal_file dir));
  check_string "checkpoint bytes" golden_checkpoint (Checkpoint.encode state);
  (* and the old images load *)
  Wire.write_atomic ~path:(Wal.snapshot_file dir) golden_snapshot;
  let snap = Wal.load_snapshot (Wal.snapshot_file dir) in
  check_int "snapshot sequence" 3 snap.Wal.s_last_seq;
  let fresh = Storage.create m.Mapping.catalog in
  snap.Wal.s_fill fresh;
  List.iter
    (fun (t : Rschema.table) ->
      check_bool (t.tname ^ " rows") true
        (List.of_seq (Storage.scan fresh t.tname)
        = List.of_seq (Storage.scan db t.tname)))
    (Storage.catalog db).Rschema.tables;
  let rep = Wal.replay_string golden_wal in
  check_bool "no torn tail" true (rep.Wal.torn = None);
  check_bool "the four records" true
    (List.length rep.Wal.records = List.length appends
    && List.for_all2
         (fun (r : Wal.record) (i, rows) ->
           Wal.record_equal r { Wal.seq = 4 + i; rows })
         rep.Wal.records
         (List.mapi (fun i a -> (i, a)) appends));
  check_string "checkpoint re-encodes" golden_checkpoint
    (Checkpoint.encode (Checkpoint.decode golden_checkpoint))

let suite =
  [
    case "crc32: check value and every length residue" crc_known;
    prop_crc;
    prop_header;
    case "header length tokens of every width" length_widths;
    case "checksum tokens: only the lowercase 8-digit spelling" checksum_tokens;
    case "w_int at the edges" w_int_digits;
    prop_w_int;
    prop_len;
    prop_extract;
    case "images written by the byte-at-a-time code load and re-encode"
      golden_images;
  ]
