(* Crash-safe serving.  Three families of contracts:

   - the WAL codec: records round-trip bit-exactly, and any single bit
     flip of a log image is either [Wal.Corrupt] or a reported torn
     tail — never a silently different (or silently complete) replay;

   - failure classification: a tail that simply stops early (the only
     artifact a crash can leave, since each record is one write) is
     truncated and reported, while bit flips, wrong magic, wrong
     version, and sequence gaps refuse recovery with [Wal.Corrupt];

   - crash–recover differential: killing the server after any k acked
     appends, at any snapshot cadence, for jobs 1 and 2 — including a
     crash between the snapshot rename and the log truncation, and a
     torn half-written record — recovers a server whose answers are
     bit-identical to one that never crashed, with exact loss
     accounting (acked appends survive, the unacked tail is counted). *)

open Legodb
open Test_util

let prop name ?(count = 30) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let tmp_dir () =
  let d = Filename.temp_file "legodb_wal" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let setup () =
  let doc = Lazy.force small_imdb_doc in
  let stats = Collector.collect doc in
  let ps = Init.all_inlined (Annotate.schema stats Imdb.Schema.schema) in
  let m = mapping_of ps in
  (doc, m)

let q_titles =
  Xq_parse.parse ~name:"titles"
    "FOR $v IN document(\"x\")/imdb/show WHERE $v/year = 1990 RETURN \
     $v/title, $v/year"

let q_actors =
  Xq_parse.parse ~name:"actors"
    "FOR $v IN document(\"x\")/imdb/actor RETURN $v/name"

let q_join =
  Xq_parse.parse ~name:"join"
    "FOR $i IN document(\"x\")/imdb $a in $i/actor, $m1 in $a/played RETURN \
     $a/name, $m1/title"

let queries = [ q_titles; q_actors; q_join ]
let answers s = List.map (fun q -> (Serve.query s q).Serve.rows) queries

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

exception Crash

type fault_log = { mutable ops : (string * int) list (* newest first *) }

(* a counting fs: every write/fsync/rename is logged; from [crash_at]
   (1-based, counted across all three ops) onward every op raises
   [Crash] *before* doing anything — the process is "dead".  With
   [short_write_at], that write persists only half its bytes first —
   a torn record. *)
let faulty_fs ?(crash_at = max_int) ?(short_write_at = 0) () =
  let log = { ops = [] } in
  let n = ref 0 in
  let step name len =
    incr n;
    log.ops <- (name, len) :: log.ops;
    if !n >= crash_at then raise Crash
  in
  let fs =
    {
      Wire.write =
        (fun fd s ->
          if !n + 1 = short_write_at then begin
            step "write" (String.length s);
            ignore
              (Unix.write_substring fd s 0 (String.length s / 2) : int);
            raise Crash
          end
          else begin
            step "write" (String.length s);
            Wire.real_fs.Wire.write fd s
          end);
      fsync =
        (fun fd ->
          step "fsync" 0;
          Wire.real_fs.Wire.fsync fd);
      rename =
        (fun a b ->
          step "rename" 0;
          Wire.real_fs.Wire.rename a b);
    }
  in
  (log, fs)

(* ------------------------------------------------------------------ *)
(* codec generators                                                    *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return Rtype.V_null;
        map (fun n -> Rtype.V_int n) int;
        map
          (fun s -> Rtype.V_string s)
          (string_size ~gen:char (int_range 0 12));
      ])

(* tables of rows that share an arity, as shredding produces *)
let gen_record =
  QCheck2.Gen.(
    map
      (fun tables ->
        {
          Wal.seq = 1;
          rows =
            List.mapi
              (fun i rows ->
                (Printf.sprintf "T%d" i, List.map Array.of_list rows))
              tables;
        })
      (list_size (int_range 0 3)
         (bind (int_range 1 4) (fun arity ->
              list_size (int_range 0 5) (list_repeat arity gen_value)))))

(* a deterministic 2-record image for the damage tests *)
let wal_image ~seq0 =
  let r1 =
    {
      Wal.seq = seq0;
      rows = [ ("T", [ [| Rtype.V_int 1; Rtype.V_string "a\nb" |] ]) ];
    }
  in
  let r2 =
    {
      Wal.seq = seq0 + 1;
      rows = [ ("T", [ [| Rtype.V_null; Rtype.V_string "z" |] ]) ];
    }
  in
  ( "LEGODB-WAL 1\n" ^ Wal.encode_record r1 ^ Wal.encode_record r2,
    [ r1; r2 ] )

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let corrupts ?expect f =
  match f () with
  | _ -> false
  | exception Wal.Corrupt m -> (
      (not (String.contains m '\n'))
      && match expect with None -> true | Some sub -> contains m sub)
  | exception _ -> false

(* ------------------------------------------------------------------ *)
(* differential harness                                                *)
(* ------------------------------------------------------------------ *)

(* run [appends] acked appends at snapshot cadence [publish_every]
   against both an in-memory oracle and a durable server; "crash" the
   durable one (drop the handle; optionally [tear] extra garbage onto
   the log first), recover, and require: answers bit-identical to the
   oracle before and after a publish barrier, and exact loss
   accounting in the recovery report. *)
let crash_recover_case ~jobs ~publish_every ~appends ?tear () =
  let doc, m = setup () in
  let dir = tmp_dir () in
  let oracle = Serve.create ~jobs m (Shred.shred m doc) in
  let server =
    Serve.create ~jobs ~data_dir:dir m (Shred.shred m doc)
  in
  let published = ref 0 in
  for i = 1 to appends do
    Serve.append oracle doc;
    Serve.append server doc;
    if publish_every > 0 && i mod publish_every = 0 then begin
      Serve.publish oracle;
      Serve.publish server;
      incr published
    end
  done;
  (* SIGKILL equivalent: the handle is abandoned, only the files
     survive.  [tear] simulates dying midway through the next append's
     write. *)
  (match tear with
  | None -> ()
  | Some garbage ->
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Wal.wal_file dir)
      in
      output_string oc garbage;
      close_out oc);
  let recovered, r = Serve.recover ~jobs ~dir () in
  let ctx = Printf.sprintf "jobs=%d every=%d k=%d" jobs publish_every appends in
  (* exact loss accounting: every acked append survived, nothing else *)
  check_int (ctx ^ ": recovered_seq") appends r.Serve.r_recovered_seq;
  check_int (ctx ^ ": snapshot_seq") (!published * publish_every)
    r.Serve.r_snapshot_seq;
  check_int (ctx ^ ": replayed")
    (appends - (!published * publish_every))
    r.Serve.r_replayed;
  check_int (ctx ^ ": pending matches oracle")
    (Serve.stats oracle).Serve.pending_appends
    (Serve.stats recovered).Serve.pending_appends;
  check_bool (ctx ^ ": torn iff garbage") (tear <> None)
    (r.Serve.r_torn <> None);
  (match tear with
  | Some g -> check_int (ctx ^ ": dropped bytes") (String.length g)
      r.Serve.r_dropped_bytes
  | None -> ());
  (* bit-identical answers: published state first, then the barrier
     surfaces the replayed pending appends on both sides *)
  check_bool (ctx ^ ": answers equal") true (answers oracle = answers recovered);
  Serve.publish oracle;
  Serve.publish recovered;
  check_bool (ctx ^ ": answers equal after publish") true
    (answers oracle = answers recovered);
  check_int (ctx ^ ": row totals")
    (Storage.total_rows (Serve.snapshot oracle))
    (Storage.total_rows (Serve.snapshot recovered));
  (* the recovered server is live: it takes appends durably *)
  Serve.append recovered doc;
  rm_rf dir

let suite =
  [
    case "crash–recover differential matrix" (fun () ->
        List.iter
          (fun jobs ->
            List.iter
              (fun publish_every ->
                for appends = 0 to 3 do
                  crash_recover_case ~jobs ~publish_every ~appends ()
                done)
              [ 0; 2 ])
          [ 1; 2 ]);
    case "torn half-written record is truncated, acked appends survive"
      (fun () ->
        (* a record torn at every interesting depth: mid-header-line,
           exactly at the payload boundary, mid-payload *)
        List.iter
          (fun garbage ->
            crash_recover_case ~jobs:1 ~publish_every:2 ~appends:3
              ~tear:garbage ())
          [ "R 12"; "R 00000000 500\n"; "R 00000000 500\nhalf of it" ]);
    case "crash between snapshot rename and log truncation" (fun () ->
        (* publish writes the snapshot, then truncates the log; dying
           between the two leaves already-snapshotted records behind.
           Simulate by saving the log before the publish and putting it
           back after — exactly the disk a crash there leaves. *)
        let doc, m = setup () in
        let dir = tmp_dir () in
        let oracle = Serve.create ~jobs:1 m (Shred.shred m doc) in
        let server = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        for _ = 1 to 3 do
          Serve.append oracle doc;
          Serve.append server doc
        done;
        let saved = Wire.read_file (Wal.wal_file dir) in
        Serve.publish oracle;
        Serve.publish server;
        let oc = open_out_bin (Wal.wal_file dir) in
        output_string oc saved;
        close_out oc;
        let recovered, r = Serve.recover ~jobs:1 ~dir () in
        (* all three records predate the snapshot: skipped, not
           double-applied *)
        check_int "skipped" 3 r.Serve.r_skipped;
        check_int "replayed" 0 r.Serve.r_replayed;
        check_int "recovered_seq" 3 r.Serve.r_recovered_seq;
        check_bool "answers equal" true (answers oracle = answers recovered);
        check_int "row totals"
          (Storage.total_rows (Serve.snapshot oracle))
          (Storage.total_rows (Serve.snapshot recovered));
        rm_rf dir);
    case "recovery survives a crash before the log existed" (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let server = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        let before = answers server in
        Sys.remove (Wal.wal_file dir);
        let recovered, r = Serve.recover ~jobs:1 ~dir () in
        check_int "nothing replayed" 0 r.Serve.r_replayed;
        check_bool "answers equal" true (before = answers recovered);
        rm_rf dir);
    case "WAL damage classes get distinct one-line errors" (fun () ->
        let img, originals = wal_image ~seq0:1 in
        (* clean replay first: the image is valid *)
        let rep = Wal.replay_string img in
        check_int "two records" 2 (List.length rep.Wal.records);
        check_bool "round trip" true
          (List.for_all2 Wal.record_equal originals rep.Wal.records);
        check_bool "wrong magic" true
          (corrupts ~expect:"magic" (fun () ->
               Wal.replay_string ("NOTADB-WAL 1\n" ^ "rest")));
        check_bool "wrong version" true
          (corrupts ~expect:"version" (fun () ->
               Wal.replay_string "LEGODB-WAL 9\nrest"));
        check_bool "bit flip in payload" true
          (corrupts ~expect:"checksum" (fun () ->
               Wal.replay_string (flip_bit img (String.length img - 3) 0)));
        check_bool "malformed record header" true
          (corrupts ~expect:"header" (fun () ->
               Wal.replay_string "LEGODB-WAL 1\nX 0 0\n"));
        (* a sequence gap is corruption, not a tail to shrug off *)
        let gapped, _ = wal_image ~seq0:1 in
        let r3 =
          Wal.encode_record { Wal.seq = 5; rows = [ ("T", []) ] }
        in
        check_bool "sequence gap" true
          (corrupts ~expect:"contiguous" (fun () ->
               Wal.replay_string (gapped ^ r3)));
        (* a torn *header* (crash during create) replays as empty *)
        let rep = Wal.replay_string "LEGODB-W" in
        check_bool "torn header" true (rep.Wal.torn <> None);
        check_int "no records" 0 (List.length rep.Wal.records));
    case "snapshot damage classes get distinct one-line errors" (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let _ = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        let path = Wal.snapshot_file dir in
        let img = Wire.read_file path in
        let try_load img =
          let oc = open_out_bin path in
          output_string oc img;
          close_out oc;
          corrupts (fun () -> Serve.recover ~jobs:1 ~dir ())
        in
        check_bool "bit flip" true (try_load (flip_bit img 600 3));
        check_bool "truncation" true (try_load (String.sub img 0 500));
        check_bool "wrong magic" true
          (try_load ("NOTADB" ^ String.sub img 6 (String.length img - 6)));
        rm_rf dir);
    case "write_atomic is write, fsync, rename, fsync-dir — in order"
      (fun () ->
        let log, fs = faulty_fs () in
        let path = Filename.temp_file "legodb_wa" ".bin" in
        Wire.write_atomic ~fs ~path "payload";
        check_bool "op order" true
          (List.rev_map fst log.ops = [ "write"; "fsync"; "rename"; "fsync" ]);
        check_string "contents" "payload" (Wire.read_file path);
        check_bool "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
        Sys.remove path);
    case "unacked torn append is lost cleanly, server goes fail-stop"
      (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        (* creation does 2 log ops (header write+fsync) after the
           snapshot's 4: append k's write is op 4+2+2k-1.  Tear the
           second append's write halfway. *)
        let _, fs = faulty_fs ~short_write_at:9 () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir ~fs m (Shred.shred m doc)
        in
        Serve.append server doc;
        (match Serve.append server doc with
        | () -> Alcotest.fail "the torn append must raise"
        | exception Crash -> ());
        (* fail-stop: nothing may be acknowledged after a log hole *)
        (match Serve.append server doc with
        | () -> Alcotest.fail "fail-stop must refuse further appends"
        | exception Failure m ->
            check_bool "names fail-stop" true (contains m "fail-stop"));
        (* recovery: append 1 survives (it was acked), the torn second
           record is truncated and counted *)
        let recovered, r = Serve.recover ~jobs:1 ~dir () in
        check_int "acked append survives" 1 r.Serve.r_replayed;
        check_bool "torn tail reported" true (r.Serve.r_torn <> None);
        check_bool "bytes counted" true (r.Serve.r_dropped_bytes > 0);
        check_int "one pending" 1
          (Serve.stats recovered).Serve.pending_appends;
        rm_rf dir);
    case "create refuses a directory that already holds a store" (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let _ = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        (match Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument m ->
            check_bool "points at recover" true (contains m "recover"));
        rm_rf dir);
    (* -------------------------------------------------------------- *)
    (* group commit                                                    *)
    (* -------------------------------------------------------------- *)
    case "stage buffers for free, flush is one write + one fsync" (fun () ->
        let log, fs = faulty_fs () in
        let path = Filename.temp_file "legodb_gc" ".wal" in
        let w = Wal.create ~fs ~next_seq:1 path in
        let ops0 = List.length log.ops in
        Wal.flush w;
        check_int "empty flush is free" ops0 (List.length log.ops);
        let rows1 = [ ("T", [ [| Rtype.V_int 1 |] ]) ] in
        let rows2 = [ ("T", [ [| Rtype.V_int 2 |] ]) ] in
        let s1 = Wal.stage w rows1 in
        let s2 = Wal.stage w rows2 in
        check_int "sequence numbers contiguous" (s1 + 1) s2;
        check_int "both staged" 2 (Wal.staged w);
        check_int "staging touches no disk" ops0 (List.length log.ops);
        Wal.flush w;
        check_int "one write + one fsync" (ops0 + 2) (List.length log.ops);
        (match log.ops with
        | ("fsync", _) :: ("write", _) :: _ -> ()
        | _ -> Alcotest.fail "flush must be write then fsync");
        check_int "group drained" 0 (Wal.staged w);
        let st = Wal.stats w in
        check_int "appends" 2 st.Wal.appends;
        check_int "fsyncs" 1 st.Wal.fsyncs;
        check_int "groups" 1 st.Wal.groups;
        check_int "max group" 2 st.Wal.max_group;
        (* singleton appends stay in the fsync-per-append byte format,
           and the grouped log replays with them seamlessly *)
        let _ = Wal.append w rows1 in
        Wal.close w;
        let rep = Wal.replay_file path in
        check_bool "no tear" true (rep.Wal.torn = None);
        check_int "three records" 3 (List.length rep.Wal.records);
        Sys.remove path);
    case "group codec: singleton byte-identical, bad groups rejected"
      (fun () ->
        let r1 = { Wal.seq = 1; rows = [ ("T", [ [| Rtype.V_int 7 |] ]) ] } in
        let r2 = { Wal.seq = 2; rows = [] } in
        check_string "singleton is an R record" (Wal.encode_record r1)
          (Wal.encode_group [ r1 ]);
        (match Wal.encode_group [] with
        | _ -> Alcotest.fail "empty group must be rejected"
        | exception Invalid_argument _ -> ());
        (match Wal.encode_group [ r1; { r2 with Wal.seq = 5 } ] with
        | _ -> Alcotest.fail "a gap inside a group must be rejected"
        | exception Invalid_argument _ -> ());
        let img = "LEGODB-WAL 1\n" ^ Wal.encode_group [ r1; r2 ] in
        let rep = Wal.replay_string img in
        check_bool "no tear" true (rep.Wal.torn = None);
        check_int "two members" 2 (List.length rep.Wal.records);
        check_bool "members equal" true
          (List.for_all2 Wal.record_equal [ r1; r2 ] rep.Wal.records));
    case "group damage classes get distinct one-line errors" (fun () ->
        let r1 =
          { Wal.seq = 1; rows = [ ("T", [ [| Rtype.V_string "x" |] ]) ] }
        in
        let g =
          [ { Wal.seq = 2; rows = [ ("T", []) ] }; { Wal.seq = 3; rows = [] } ]
        in
        let img =
          "LEGODB-WAL 1\n" ^ Wal.encode_record r1 ^ Wal.encode_group g
        in
        check_bool "bit flip in the group" true
          (corrupts ~expect:"checksum" (fun () ->
               Wal.replay_string (flip_bit img (String.length img - 3) 0)));
        (* a unit declaring fewer than two members is malformed, not a
           clever singleton *)
        let forged count =
          let b = Buffer.create 16 in
          Wire.w_int b 2;
          Wire.w_int b count;
          let p = Buffer.contents b in
          "LEGODB-WAL 1\n" ^ Wal.encode_record r1
          ^ Printf.sprintf "G %08lx %d\n%s\n" (Wire.crc32 p) (String.length p)
              p
        in
        check_bool "undersized group" true
          (corrupts ~expect:"group" (fun () -> Wal.replay_string (forged 1)));
        (* a group that does not extend the log contiguously is
           corruption, exactly like a gapped R record *)
        let gap = [ { Wal.seq = 7; rows = [] }; { Wal.seq = 8; rows = [] } ] in
        check_bool "gap before the group" true
          (corrupts ~expect:"contiguous" (fun () ->
               Wal.replay_string
                 ("LEGODB-WAL 1\n" ^ Wal.encode_record r1
                ^ Wal.encode_group gap)));
        (* a torn group truncates as a unit: the acked prefix survives,
           no member of the unit leaks through *)
        let rep = Wal.replay_string (String.sub img 0 (String.length img - 4)) in
        check_bool "torn" true (rep.Wal.torn <> None);
        check_int "only the acked record" 1 (List.length rep.Wal.records);
        check_bool "it is record 1" true
          (Wal.record_equal r1 (List.hd rep.Wal.records)));
    case "append_group: one fsync per group, replay matches per-append"
      (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let log, fs = faulty_fs () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir ~fs m (Shred.shred m doc)
        in
        let ops0 = List.length log.ops in
        check_bool "empty group is a no-op" true
          (Serve.append_group server [] = []);
        check_int "and costs nothing" ops0 (List.length log.ops);
        (match Serve.append_group server [ doc; doc; doc ] with
        | [ Ok (); Ok (); Ok () ] -> ()
        | _ -> Alcotest.fail "all three must be acked");
        check_int "one write + one fsync for the whole group" (ops0 + 2)
          (List.length log.ops);
        Serve.append server doc;
        let s = Serve.stats server in
        check_int "appends" 4 s.Serve.wal_appends;
        check_int "fsyncs" 2 s.Serve.wal_fsyncs;
        check_int "groups" 2 s.Serve.wal_groups;
        check_int "max group" 3 s.Serve.wal_max_group;
        (* a recovered grouped log answers bit-identically to a
           fsync-per-append oracle that saw the same documents *)
        let oracle = Serve.create ~jobs:1 m (Shred.shred m doc) in
        for _ = 1 to 4 do
          Serve.append oracle doc
        done;
        let recovered, r = Serve.recover ~jobs:1 ~dir () in
        check_int "all four replayed" 4 r.Serve.r_replayed;
        Serve.publish oracle;
        Serve.publish recovered;
        check_bool "bit-identical to fsync-per-append" true
          (answers oracle = answers recovered);
        rm_rf dir);
    case "a rejected document poisons only its slot in the group" (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc)
        in
        (match Serve.append_group server [ doc; books_doc; doc ] with
        | [ Ok (); Error e; Ok () ] ->
            check_bool "names shredding" true (contains e "shredding")
        | _ -> Alcotest.fail "expected ok, error, ok");
        check_int "two pending" 2 (Serve.stats server).Serve.pending_appends;
        (* the whole group — the rejected document logged its partial
           rows, as single appends do — replays without error *)
        let _, r = Serve.recover ~jobs:1 ~dir () in
        check_int "three records" 3 r.Serve.r_replayed;
        rm_rf dir);
    case "group crash matrix: before write, torn write, at fsync, committed"
      (fun () ->
        (* op numbering after creation's 6 (snapshot write_atomic 4 +
           log header write/fsync): the acked single append is ops 7–8,
           the group's write is op 9 and its fsync op 10 *)
        let scenario ~name ~crash_at ~short_write_at ~expect_seq ~expect_torn
            () =
          let doc, m = setup () in
          let dir = tmp_dir () in
          let _, fs = faulty_fs ~crash_at ~short_write_at () in
          let server =
            Serve.create ~jobs:1 ~data_dir:dir ~fs m (Shred.shred m doc)
          in
          Serve.append server doc;
          let crashed =
            match Serve.append_group server [ doc; doc; doc ] with
            | results ->
                List.iter
                  (function
                    | Ok () -> ()
                    | Error e -> Alcotest.failf "%s: rejected: %s" name e)
                  results;
                false
            | exception Crash -> true
          in
          check_bool
            (name ^ ": crashed iff a fault was injected")
            (crash_at <> max_int || short_write_at <> 0)
            crashed;
          (* none of a crashed group was acknowledged, and the server
             goes fail-stop — no ack after a possible log hole *)
          if crashed then (
            match Serve.append server doc with
            | () -> Alcotest.fail (name ^ ": fail-stop must refuse appends")
            | exception Failure m ->
                check_bool (name ^ ": names fail-stop") true
                  (contains m "fail-stop"));
          let recovered, r = Serve.recover ~jobs:1 ~dir () in
          check_int (name ^ ": recovered_seq") expect_seq
            r.Serve.r_recovered_seq;
          check_int (name ^ ": replayed") expect_seq r.Serve.r_replayed;
          check_bool (name ^ ": torn iff the write tore") expect_torn
            (r.Serve.r_torn <> None);
          check_int (name ^ ": pending") expect_seq
            (Serve.stats recovered).Serve.pending_appends;
          (* the recovered server is live: it takes appends durably *)
          Serve.append recovered doc;
          rm_rf dir
        in
        (* the group never reached the disk: only the acked single
           append survives, and the log is clean (no torn tail) *)
        scenario ~name:"before write" ~crash_at:9 ~short_write_at:0
          ~expect_seq:1 ~expect_torn:false ();
        (* the group tore mid-write: truncated as a unit — no member
           of the unacknowledged group ever replays *)
        scenario ~name:"torn write" ~crash_at:max_int ~short_write_at:9
          ~expect_seq:1 ~expect_torn:true ();
        (* the write completed, the fsync crashed: the group was never
           acked, but it is intact on disk — replaying it is allowed
           (the invariant is acked ⇒ durable, not its converse) *)
        scenario ~name:"at fsync" ~crash_at:10 ~short_write_at:0
          ~expect_seq:4 ~expect_torn:false ();
        (* no fault: the whole group is acked and survives *)
        scenario ~name:"committed" ~crash_at:max_int ~short_write_at:0
          ~expect_seq:4 ~expect_torn:false ());
    case "non-canonical header tokens are rejected by all three parsers"
      (fun () ->
        (* a 5-byte WAL record payload (a seq, zero tables) whose
           checksum has a leading zero and a hex letter, so the 7-digit
           and the uppercase spellings below name the very same CRC
           value — the aliasing a numeric comparison would let through *)
        let payload, crc =
          List.init 90 (fun i -> Printf.sprintf "%d\n0\n" (i + 10))
          |> List.map (fun p -> (p, Printf.sprintf "%08lx" (Wire.crc32 p)))
          |> List.find (fun (_, c) ->
                 c.[0] = '0' && String.exists (fun ch -> ch >= 'a') c)
        in
        (* the full payload is always present, so the only thing any
           parser can object to is the header token under test *)
        let verdicts ~crc ~len =
          [
            ( "Wire.unframe",
              match
                Wire.unframe ~magic:"LEGODB-TEST" ~version:1 ~kind:"test"
                  (Printf.sprintf "LEGODB-TEST 1 %s %s\n%s" crc len payload)
              with
              | _ -> "parsed"
              | exception Wire.Corrupt _ -> "rejected" );
            ( "Net.extract_frame",
              match
                Net.extract_frame
                  (Iobuf.of_string
                     (Printf.sprintf "LEGODB-NET 1 %s %s\n%s" crc len payload))
              with
              | `Frame _ -> "parsed"
              | `Partial -> "partial"
              | `Broken _ -> "rejected" );
            ( "Wal.replay_string",
              match
                Wal.replay_string
                  (Printf.sprintf "LEGODB-WAL 1\nR %s %s\n%s\n" crc len payload)
              with
              | { Wal.torn = None; records = [ _ ]; _ } -> "parsed"
              | _ -> "torn"
              | exception Wal.Corrupt _ -> "rejected" );
          ]
        in
        List.iter
          (fun (who, v) -> check_string (who ^ ", canonical header") "parsed" v)
          (verdicts ~crc ~len:"5");
        List.iter
          (fun (what, crc, len) ->
            List.iter
              (fun (who, v) ->
                check_string (Printf.sprintf "%s, %s" who what) "rejected" v)
              (verdicts ~crc ~len))
          [
            ("length +5", crc, "+5");
            ("length 05", crc, "05");
            ("length 0x5", crc, "0x5");
            ("length 5_", crc, "5_");
            ("uppercase CRC", String.uppercase_ascii crc, "5");
            ("7-digit CRC", String.sub crc 1 7, "5");
            ("0x-prefixed CRC", "0x" ^ crc, "5");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  prop "WAL record codec round-trips arbitrary rows bit-exactly" ~count:50
    gen_record (fun r ->
      let rep = Wal.replay_string ("LEGODB-WAL 1\n" ^ Wal.encode_record r) in
      rep.Wal.torn = None
      && List.length rep.Wal.records = 1
      && Wal.record_equal r (List.hd rep.Wal.records))

let prop_bit_flip =
  prop "any single bit flip never silently replays the original" ~count:120
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))
    (fun (pos, bit) ->
      let img, originals = wal_image ~seq0:1 in
      let flipped = flip_bit img (pos mod String.length img) bit in
      match Wal.replay_string flipped with
      | exception Wal.Corrupt m -> not (String.contains m '\n')
      | rep ->
          (* tolerated only as a *reported* torn tail with records
             missing — flipping a bit must never masquerade as the
             intact log *)
          rep.Wal.torn <> None
          && List.length rep.Wal.records < List.length originals
          && List.for_all2 Wal.record_equal rep.Wal.records
               (List.filteri
                  (fun i _ -> i < List.length rep.Wal.records)
                  originals))

let prop_group_roundtrip =
  prop "group commit units round-trip arbitrary members bit-exactly"
    ~count:50
    QCheck2.Gen.(list_size (int_range 2 5) gen_record)
    (fun rs ->
      let group = List.mapi (fun i r -> { r with Wal.seq = 1 + i }) rs in
      let rep =
        Wal.replay_string ("LEGODB-WAL 1\n" ^ Wal.encode_group group)
      in
      rep.Wal.torn = None
      && List.length rep.Wal.records = List.length group
      && List.for_all2 Wal.record_equal group rep.Wal.records)

let prop_group_bit_flip =
  prop "any single bit flip of a grouped log never silently replays it"
    ~count:120
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))
    (fun (pos, bit) ->
      let r1 = { Wal.seq = 1; rows = [ ("T", [ [| Rtype.V_int 1 |] ]) ] } in
      let group =
        [
          { Wal.seq = 2; rows = [ ("T", [ [| Rtype.V_string "a\nb" |] ]) ] };
          { Wal.seq = 3; rows = [] };
        ]
      in
      let originals = r1 :: group in
      let img =
        "LEGODB-WAL 1\n" ^ Wal.encode_record r1 ^ Wal.encode_group group
      in
      let flipped = flip_bit img (pos mod String.length img) bit in
      match Wal.replay_string flipped with
      | exception Wal.Corrupt m -> not (String.contains m '\n')
      | rep ->
          (* tolerated only as a *reported* torn tail that drops whole
             commit units — a flip must never split a group or
             masquerade as the intact log *)
          rep.Wal.torn <> None
          && List.length rep.Wal.records < List.length originals
          && List.for_all2 Wal.record_equal rep.Wal.records
               (List.filteri
                  (fun i _ -> i < List.length rep.Wal.records)
                  originals))

let props =
  [ prop_roundtrip; prop_bit_flip; prop_group_roundtrip; prop_group_bit_flip ]
