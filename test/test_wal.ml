(* Crash-safe serving.  Three families of contracts:

   - the WAL codec: commit units round-trip bit-exactly, and any single
     bit flip of a log image is either [Wal.Corrupt] or a reported torn
     tail — never a silently different (or silently complete) replay;

   - failure classification: a tail that simply stops early (the only
     artifact a crash can leave, since each commit unit is one write) is
     truncated and reported, while bit flips, wrong magic, wrong
     version, sequence gaps and a store format 1 directory refuse
     recovery with [Wal.Corrupt];

   - crash–recover differential: killing the server after any k acked
     appends, at any publish cadence, for jobs 1 and 2 — including a
     crash at each write a publish makes, between the manifest's rename
     and the log truncation among them, and a torn half-written commit
     unit — recovers a server whose answers are bit-identical to one
     that never crashed, with exact loss accounting (acked appends
     survive, the unacked tail is counted). *)

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

let header = "LEGODB-WAL 2\n"

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
  ( header ^ Wal.encode_group [ r1 ] ^ Wal.encode_group [ r2 ],
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
          [ "G 12"; "G 00000000 500\n"; "G 00000000 500\nhalf of it" ]);
    case "crash between snapshot rename and log truncation" (fun () ->
        (* publish writes the manifest, then truncates the log; dying
           between the two leaves already-published records behind.
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
        (* all three records predate the manifest: skipped, not
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
        check_bool "round trip" true (originals = rep.Wal.records);
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
               Wal.replay_string (header ^ "X 0 0\n")));
        (* a sequence gap is corruption, not a tail to shrug off *)
        let gapped, _ = wal_image ~seq0:1 in
        let r3 =
          Wal.encode_group [ { Wal.seq = 5; rows = [ ("T", []) ] } ]
        in
        check_bool "sequence gap" true
          (corrupts ~expect:"contiguous" (fun () ->
               Wal.replay_string (gapped ^ r3)));
        (* a torn *header* (crash during create) replays as empty *)
        let rep = Wal.replay_string "LEGODB-W" in
        check_bool "torn header" true (rep.Wal.torn <> None);
        check_int "no records" 0 (List.length rep.Wal.records));
    case "snapshot damage classes get distinct one-line errors" (fun () ->
        (* the published snapshot's rows: the segment create wrote *)
        let doc, m = setup () in
        let dir = tmp_dir () in
        let _ = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        let path = Filename.concat dir "segment-0-0.legodb" in
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
        (* creation takes 10 ops (the log header's write and fsync,
           segment-0-0's two chunk writes and fsync, the manifest's
           write, fsync, rename and directory fsync, the log
           truncation's fsync): append k's write is op 10+2k-1.  Tear
           the second append's write halfway. *)
        let _, fs = faulty_fs ~short_write_at:13 () in
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
        (* a lone append is a group of one, and the log replays it
           with the larger group seamlessly *)
        ignore (Wal.stage w rows1);
        Wal.flush w;
        check_int "the stats taken are a copy" 2 st.Wal.appends;
        check_int "the log's count moved on" 3 (Wal.stats w).Wal.appends;
        Wal.close w;
        let rep = Wal.replay_file path in
        check_bool "no tear" true (rep.Wal.torn = None);
        check_int "three records" 3 (List.length rep.Wal.records);
        Sys.remove path);
    case "group codec: singleton byte-identical, bad groups rejected"
      (fun () ->
        let r1 = { Wal.seq = 1; rows = [ ("T", [ [| Rtype.V_int 7 |] ]) ] } in
        let r2 = { Wal.seq = 2; rows = [] } in
        check_string "a singleton is a group of one"
          "G e661126f 18\n1\n1\n1\n1\nT\n1\n1\ni\n7\n\n"
          (Wal.encode_group [ r1 ]);
        (match Wal.encode_group [] with
        | _ -> Alcotest.fail "empty group must be rejected"
        | exception Invalid_argument _ -> ());
        (match Wal.encode_group [ r1; { r2 with Wal.seq = 5 } ] with
        | _ -> Alcotest.fail "a gap inside a group must be rejected"
        | exception Invalid_argument _ -> ());
        let img = header ^ Wal.encode_group [ r1; r2 ] in
        let rep = Wal.replay_string img in
        check_bool "no tear" true (rep.Wal.torn = None);
        check_int "two members" 2 (List.length rep.Wal.records);
        check_bool "members equal" true ([ r1; r2 ] = rep.Wal.records));
    case "group damage classes get distinct one-line errors" (fun () ->
        let r1 =
          { Wal.seq = 1; rows = [ ("T", [ [| Rtype.V_string "x" |] ]) ] }
        in
        let g =
          [ { Wal.seq = 2; rows = [ ("T", []) ] }; { Wal.seq = 3; rows = [] } ]
        in
        let img = header ^ Wal.encode_group [ r1 ] ^ Wal.encode_group g in
        check_bool "bit flip in the group" true
          (corrupts ~expect:"checksum" (fun () ->
               Wal.replay_string (flip_bit img (String.length img - 3) 0)));
        (* a unit declaring no member is malformed, not an empty
           commit *)
        let forged count =
          let b = Buffer.create 16 in
          Wire.w_int b 2;
          Wire.w_int b count;
          let p = Buffer.contents b in
          header ^ Wal.encode_group [ r1 ]
          ^ Printf.sprintf "G %08lx %d\n%s\n" (Wire.crc32 p) (String.length p)
              p
        in
        check_bool "undersized group" true
          (corrupts ~expect:"group" (fun () -> Wal.replay_string (forged 0)));
        (* a group that does not extend the log contiguously is
           corruption, exactly like a gapped lone append *)
        let gap = [ { Wal.seq = 7; rows = [] }; { Wal.seq = 8; rows = [] } ] in
        check_bool "gap before the group" true
          (corrupts ~expect:"contiguous" (fun () ->
               Wal.replay_string
                 (header ^ Wal.encode_group [ r1 ] ^ Wal.encode_group gap)));
        (* a torn group truncates as a unit: the acked prefix survives,
           no member of the unit leaks through *)
        let rep = Wal.replay_string (String.sub img 0 (String.length img - 4)) in
        check_bool "torn" true (rep.Wal.torn <> None);
        check_int "only the acked record" 1 (List.length rep.Wal.records);
        check_bool "it is record 1" true (r1 = List.hd rep.Wal.records));
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
        (* the rejected document left no rows in the store and no
           record in the log: the two accepted ones replay *)
        let _, r = Serve.recover ~jobs:1 ~dir () in
        check_int "two records" 2 r.Serve.r_replayed;
        rm_rf dir);
    case "group crash matrix: before write, torn write, at fsync, committed"
      (fun () ->
        (* op numbering after creation's 10 (the log header's write and
           fsync, segment-0-0's two chunk writes and fsync, the
           manifest's write, fsync, rename and directory fsync, the log
           truncation's fsync): the acked single append is ops 11–12,
           the group's write is op 13 and its fsync op 14 *)
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
        scenario ~name:"before write" ~crash_at:13 ~short_write_at:0
          ~expect_seq:1 ~expect_torn:false ();
        (* the group tore mid-write: truncated as a unit — no member
           of the unacknowledged group ever replays *)
        scenario ~name:"torn write" ~crash_at:max_int ~short_write_at:13
          ~expect_seq:1 ~expect_torn:true ();
        (* the write completed, the fsync crashed: the group was never
           acked, but it is intact on disk — replaying it is allowed
           (the invariant is acked ⇒ durable, not its converse) *)
        scenario ~name:"at fsync" ~crash_at:14 ~short_write_at:0
          ~expect_seq:4 ~expect_torn:false ();
        (* no fault: the whole group is acked and survives *)
        scenario ~name:"committed" ~crash_at:max_int ~short_write_at:0
          ~expect_seq:4 ~expect_torn:false ());
    case "non-canonical header tokens are rejected by all three parsers"
      (fun () ->
        (* a 7-byte WAL group payload (a seq, one member, zero tables)
           whose checksum has a leading zero and a hex letter, so the
           7-digit and the uppercase spellings below name the very same
           CRC value — the aliasing a numeric comparison would let
           through *)
        let payload, crc =
          List.init 90 (fun i -> Printf.sprintf "%d\n1\n0\n" (i + 10))
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
                  (Printf.sprintf "%sG %s %s\n%s\n" header crc len payload)
              with
              | { Wal.torn = None; records = [ _ ]; _ } -> "parsed"
              | _ -> "torn"
              | exception Wal.Corrupt _ -> "rejected" );
          ]
        in
        List.iter
          (fun (who, v) -> check_string (who ^ ", canonical header") "parsed" v)
          (verdicts ~crc ~len:"7");
        List.iter
          (fun (what, crc, len) ->
            List.iter
              (fun (who, v) ->
                check_string (Printf.sprintf "%s, %s" who what) "rejected" v)
              (verdicts ~crc ~len))
          [
            ("length +7", crc, "+7");
            ("length 07", crc, "07");
            ("length 0x7", crc, "0x7");
            ("length 7_", crc, "7_");
            ("uppercase CRC", String.uppercase_ascii crc, "7");
            ("7-digit CRC", String.sub crc 1 7, "7");
            ("0x-prefixed CRC", "0x" ^ crc, "7");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* segments: what a publish writes, and where it can crash            *)
(* ------------------------------------------------------------------ *)

(* a document far smaller than the standing store, so a publish seals
   it into a segment of its own instead of merging into the image *)
let tiny_doc =
  lazy
    (Imdb.Gen.generate
       { Imdb.Gen.default with seed = 5; shows = 2; directors = 1; actors = 2 })

(* the directory holds exactly the manifest, the log, and one segment
   file per sealed segment of [server]'s published snapshot: the files
   the manifest names *)
let store_files dir server =
  let named =
    List.map (fun (f, _, _) -> f) (Wal.load_manifest dir).Wal.m_segments
  in
  List.sort compare (Array.to_list (Sys.readdir dir))
  = List.sort compare ("manifest.legodb" :: "wal.legodb" :: named)
  && List.length named = List.length (Storage.segments (Serve.snapshot server))

let segment_sizes server =
  List.map Storage.segment_rows (Storage.segments (Serve.snapshot server))

(* [before doc] on a durable server and on one that never crashes (of
   [acked] appends, the first [base] published), then a publish of the
   durable one that crashes at op [crash_at] (or tears its write
   [short_write_at]); recovery must show the publish either not at all
   ([published = false]: the appends since the last publish replay as
   pending) or whole, with answers, row totals and segment sizes
   bit-identical to the server that never crashed, and exactly the
   store's files in the directory *)
let publish_crash_case ~before ~acked ~base ~name ~crash_at ~short_write_at
    ~published ~skipped () =
  let doc, m = setup () in
  let tiny = Lazy.force tiny_doc in
  let dir = tmp_dir () in
  let oracle = Serve.create ~jobs:1 m (Shred.shred m doc) in
  let _, fs = faulty_fs ~crash_at ~short_write_at () in
  let server = Serve.create ~jobs:1 ~data_dir:dir ~fs m (Shred.shred m doc) in
  List.iter (before doc) [ oracle; server ];
  let crashed =
    match Serve.publish server with () -> false | exception Crash -> true
  in
  check_bool
    (name ^ ": crashed iff a fault was injected")
    (crash_at <> max_int || short_write_at <> 0)
    crashed;
  (* a failed publish leaves files that no longer match the store: the
     server refuses every later write *)
  if crashed then
    List.iter
      (fun (what, write) ->
        match write () with
        | () -> Alcotest.failf "%s: fail-stop must refuse %s" name what
        | exception Failure m ->
            check_bool (name ^ ": names fail-stop") true
              (contains m "fail-stop"))
      [
        ("a publish", fun () -> Serve.publish server);
        ("an append", fun () -> Serve.append server tiny);
      ];
  let recovered, r = Serve.recover ~jobs:1 ~dir () in
  check_int (name ^ ": recovered_seq") acked r.Serve.r_recovered_seq;
  check_int (name ^ ": snapshot_seq") (if published then acked else base)
    r.Serve.r_snapshot_seq;
  check_int (name ^ ": replayed") (if published then 0 else acked - base)
    r.Serve.r_replayed;
  check_int (name ^ ": skipped") skipped r.Serve.r_skipped;
  check_bool (name ^ ": exactly the store's files") true
    (store_files dir recovered);
  if published then Serve.publish oracle;
  check_bool (name ^ ": answers equal") true (answers oracle = answers recovered);
  check_bool (name ^ ": segment sizes equal") true
    (segment_sizes oracle = segment_sizes recovered);
  if not published then Serve.publish oracle;
  Serve.publish recovered;
  check_bool (name ^ ": answers equal after publish") true
    (answers oracle = answers recovered);
  check_int (name ^ ": row totals")
    (Storage.total_rows (Serve.snapshot oracle))
    (Storage.total_rows (Serve.snapshot recovered));
  check_bool (name ^ ": segment sizes equal after publish") true
    (segment_sizes oracle = segment_sizes recovered);
  (* the recovered server is live: it takes appends and publishes *)
  Serve.append recovered tiny;
  Serve.publish recovered;
  check_bool (name ^ ": exactly the store's files after a publish") true
    (store_files dir recovered);
  rm_rf dir

(* a directory store format 1 wrote, and one whose manifest is version
   1: recovery raises [Wal.Corrupt], create refuses it, and neither
   changes a byte of it *)
let refuses_format_1 ~what ~expect files =
  let doc, m = setup () in
  let dir = tmp_dir () in
  List.iter
    (fun (name, bytes) ->
      Wire.write_atomic ~path:(Filename.concat dir name) bytes)
    files;
  let contents () =
    List.sort compare
      (List.map
         (fun f -> (f, Wire.read_file (Filename.concat dir f)))
         (Array.to_list (Sys.readdir dir)))
  in
  let before = contents () in
  check_bool (what ^ ": recovery refuses it") true
    (corrupts ~expect (fun () -> Serve.recover ~jobs:1 ~dir ()));
  (match Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) with
  | _ -> Alcotest.failf "%s: create must refuse it" what
  | exception (Wal.Corrupt _ | Invalid_argument _) -> ());
  check_bool (what ^ ": every file byte-identical") true (before = contents ());
  rm_rf dir

let segment_cases =
  [
    case "publish writes one segment and a manifest, then truncates the log"
      (fun () ->
        let doc, m = setup () in
        let dir = tmp_dir () in
        let log, fs = faulty_fs () in
        let server =
          Serve.create ~jobs:1 ~data_dir:dir ~fs m (Shred.shred m doc)
        in
        let seg0 = Filename.concat dir "segment-0-0.legodb" in
        let image = Wire.read_file seg0 in
        let tiny = Lazy.force tiny_doc in
        Serve.append server tiny;
        Serve.append server tiny;
        let before = (Serve.stats server).Serve.written_bytes in
        let ops0 = List.length log.ops in
        Serve.publish server;
        check_bool "segment write and fsync, manifest write, fsync, rename, \
                    directory fsync, log truncation" true
          (List.filteri (fun i _ -> i >= ops0) (List.rev_map fst log.ops)
          = [ "write"; "fsync"; "write"; "fsync"; "rename"; "fsync"; "fsync" ]);
        check_string "segment-0-0 is untouched" image (Wire.read_file seg0);
        let written = (Serve.stats server).Serve.written_bytes - before in
        let files =
          List.map
            (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_size)
            [ "segment-1-2.legodb"; "manifest.legodb" ]
        in
        check_int "written bytes are the segment's and the manifest's"
          (List.fold_left ( + ) 0 files) written;
        (match Wal.load_manifest dir with
        | {
         Wal.m_last_seq = 2;
         m_segments =
           [ ("segment-0-0.legodb", 0, 0); ("segment-1-2.legodb", 1, 2) ];
         _;
        } ->
            ()
        | _ -> Alcotest.fail "the manifest must name segments 0-0 and 1-2");
        (* a publish with nothing new writes nothing *)
        let ops1 = List.length log.ops in
        Serve.publish server;
        check_int "an empty publish is free" ops1 (List.length log.ops);
        rm_rf dir);
    case "publish crash matrix: segment, manifest, rename, directory, log"
      (fun () ->
        (* op numbering: creation's 10 (the log header's write and
           fsync, segment-0-0's two chunk writes and fsync, the
           manifest's write, fsync, rename and directory fsync, the log
           truncation's fsync), the two appends' write+fsync (11–14),
           then the publish: segment write 15, segment fsync 16,
           manifest write 17, manifest fsync 18, rename 19, directory
           fsync 20, log truncation's fsync 21 *)
        let tiny = Lazy.force tiny_doc in
        let before _ s =
          Serve.append s tiny;
          Serve.append s tiny
        in
        List.iter
          (fun (name, crash_at, short_write_at, published, skipped) ->
            publish_crash_case ~before ~acked:2 ~base:0 ~name ~crash_at
              ~short_write_at ~published ~skipped ())
          [
            ("segment write", 15, 0, false, 0);
            ("torn segment", max_int, 15, false, 0);
            ("segment fsync", 16, 0, false, 0);
            ("manifest write", 17, 0, false, 0);
            ("manifest fsync", 18, 0, false, 0);
            ("rename", 19, 0, false, 0);
            (* the rename happened: the manifest covers both records,
               which the log still holds *)
            ("directory fsync", 20, 0, true, 2);
            (* the truncation happened, its fsync did not *)
            ("log truncation", 21, 0, true, 0);
            ("committed", max_int, 0, true, 0);
          ]);
    case "merge crash matrix: a publish whose merge reaches segment-0-0"
      (fun () ->
        (* a published segment, then an append as large as the whole
           store: the publish's merge reaches segment-0-0, and it
           writes segment-0-2 in its place.  Op numbering: creation's
           10, the tiny append 11–12, its publish 13–19, the large
           append 20–21, then segment-0-2's four chunk writes 22–25 and
           fsync 26, manifest write 27, fsync 28, rename 29, directory
           fsync 30, log truncation's fsync 31 *)
        let tiny = Lazy.force tiny_doc in
        let before doc s =
          Serve.append s tiny;
          Serve.publish s;
          Serve.append s doc
        in
        List.iter
          (fun (name, crash_at, short_write_at, published, skipped) ->
            publish_crash_case ~before ~acked:2 ~base:1 ~name ~crash_at
              ~short_write_at ~published ~skipped ())
          [
            ("segment write", 22, 0, false, 0);
            ("torn segment", max_int, 22, false, 0);
            ("second segment chunk", 23, 0, false, 0);
            ("third segment chunk", 24, 0, false, 0);
            ("last segment chunk", 25, 0, false, 0);
            ("segment fsync", 26, 0, false, 0);
            ("manifest write", 27, 0, false, 0);
            ("manifest fsync", 28, 0, false, 0);
            ("rename", 29, 0, false, 0);
            (* the rename happened: segment-0-0 and segment-1-1 are
               still on disk until recovery removes them, and the log
               still holds the large append *)
            ("directory fsync", 30, 0, true, 1);
            ("log truncation", 31, 0, true, 0);
            ("committed", max_int, 0, true, 0);
          ]);
    case "a directory with a full snapshot and a log, no manifest, is refused"
      (fun () ->
        (* the layout every publish wrote before segments, store format 1:
           the whole store as the image beside the log *)
        let doc, m = setup () in
        let oracle = Serve.create ~jobs:1 m (Shred.shred m doc) in
        let dir = tmp_dir () in
        Wal.write_snapshot ~path:(Wal.snapshot_file dir)
          ~schema:m.Mapping.schema ~ordered:m.Mapping.ordered ~last_seq:0
          (Serve.snapshot oracle);
        let image = Wire.read_file (Wal.snapshot_file dir) in
        rm_rf dir;
        refuses_format_1 ~what:"snapshot.legodb" ~expect:"format 1"
          [ ("snapshot.legodb", image); ("wal.legodb", "LEGODB-WAL 1\n") ]);
    case "a damaged or missing segment refuses recovery" (fun () ->
        let doc, m = setup () in
        let tiny = Lazy.force tiny_doc in
        let dir = tmp_dir () in
        let server = Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc) in
        Serve.append server tiny;
        Serve.publish server;
        let seg = Filename.concat dir "segment-1-1.legodb" in
        let img = Wire.read_file seg in
        let put img = Wire.write_atomic ~path:seg img in
        check_bool "bit flip" true
          (put (flip_bit img (String.length img - 5) 2);
           corrupts ~expect:"checksum" (fun () -> Serve.recover ~jobs:1 ~dir ()));
        check_bool "truncation" true
          (put (String.sub img 0 (String.length img / 2));
           corrupts ~expect:"truncated" (fun () -> Serve.recover ~jobs:1 ~dir ()));
        Sys.remove seg;
        check_bool "missing" true
          (corrupts ~expect:"missing segment" (fun () ->
               Serve.recover ~jobs:1 ~dir ()));
        put img;
        let manifest = Wire.read_file (Wal.manifest_file dir) in
        Wire.write_atomic ~path:(Wal.manifest_file dir)
          (flip_bit manifest (String.length manifest - 3) 1);
        check_bool "manifest bit flip" true
          (corrupts ~expect:"checksum" (fun () -> Serve.recover ~jobs:1 ~dir ()));
        rm_rf dir);
    case "a version-1 manifest is refused" (fun () ->
        (* the manifest and segment a store format 1 publish wrote *)
        refuses_format_1 ~what:"version-1 manifest" ~expect:"version 1"
          [
            ( "manifest.legodb",
              "LEGODB-MANIFEST 1 d899de3a 30\n1\n1\n18\n\
               segment-1-1.legodb\n1\n1\n" );
            ("segment-1-1.legodb", "LEGODB-SEG 1 00000000 0\n");
            ("wal.legodb", "LEGODB-WAL 1\n");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  prop "WAL record codec round-trips arbitrary rows bit-exactly" ~count:50
    gen_record (fun r ->
      let rep = Wal.replay_string (header ^ Wal.encode_group [ r ]) in
      rep.Wal.torn = None
      && List.length rep.Wal.records = 1
      && r = List.hd rep.Wal.records)

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
          && rep.Wal.records
             = List.filteri
                 (fun i _ -> i < List.length rep.Wal.records)
                 originals)

let prop_group_roundtrip =
  prop "group commit units round-trip arbitrary members bit-exactly"
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 5) gen_record)
    (fun rs ->
      let group = List.mapi (fun i r -> { r with Wal.seq = 1 + i }) rs in
      let rep = Wal.replay_string (header ^ Wal.encode_group group) in
      rep.Wal.torn = None
      && List.length rep.Wal.records = List.length group
      && group = rep.Wal.records)

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
      let img = header ^ Wal.encode_group [ r1 ] ^ Wal.encode_group group in
      let flipped = flip_bit img (pos mod String.length img) bit in
      match Wal.replay_string flipped with
      | exception Wal.Corrupt m -> not (String.contains m '\n')
      | rep ->
          (* tolerated only as a *reported* torn tail that drops whole
             commit units — a flip must never split a group or
             masquerade as the intact log *)
          rep.Wal.torn <> None
          && List.length rep.Wal.records < List.length originals
          && rep.Wal.records
             = List.filteri
                 (fun i _ -> i < List.length rep.Wal.records)
                 originals)

(* Random appends (small documents, or the whole standing document
   again, which makes the next publish's merge reach segment-0-0: a
   compaction), publishes and crash-recoveries against a server that
   never crashed: the same answers and segment sizes at every step and
   after a final publish, every acked append recovered, and after every
   step exactly the manifest, the log and one segment file per sealed
   segment of the published snapshot in the directory. *)
type durable_op = Small of int | Whole | Publish | Crash

let small_docs = Hashtbl.create 8

let small_doc seed =
  match Hashtbl.find_opt small_docs seed with
  | Some d -> d
  | None ->
      let d =
        Imdb.Gen.generate
          { Imdb.Gen.default with seed; shows = 2; directors = 1; actors = 2 }
      in
      Hashtbl.add small_docs seed d;
      d

let prop_durable =
  prop "publishes, compactions and recoveries answer as a server that never \
        crashed"
    ~count:12
    QCheck2.Gen.(
      list_size (int_range 1 10)
        (frequency
           [
             (4, map (fun k -> Small k) (int_range 1 4));
             (1, return Whole);
             (3, return Publish);
             (2, return Crash);
           ]))
    (fun ops ->
      let doc, m = setup () in
      let dir = tmp_dir () in
      let oracle = Serve.create ~jobs:1 m (Shred.shred m doc) in
      let server = ref (Serve.create ~jobs:1 ~data_dir:dir m (Shred.shred m doc)) in
      let acked = ref 0 in
      let ok =
        List.for_all
          (fun op ->
            (match op with
            | Small k ->
                incr acked;
                Serve.append oracle (small_doc k);
                Serve.append !server (small_doc k)
            | Whole ->
                incr acked;
                Serve.append oracle doc;
                Serve.append !server doc
            | Publish ->
                Serve.publish oracle;
                Serve.publish !server
            | Crash ->
                let s, r = Serve.recover ~jobs:1 ~dir () in
                server := s;
                if r.Serve.r_recovered_seq <> !acked then
                  Alcotest.failf "recovered through %d of %d acked appends"
                    r.Serve.r_recovered_seq !acked);
            answers oracle = answers !server
            && segment_sizes oracle = segment_sizes !server
            && store_files dir !server)
          ops
      in
      Serve.publish oracle;
      Serve.publish !server;
      let ok =
        ok
        && answers oracle = answers !server
        && Storage.total_rows (Serve.snapshot oracle)
           = Storage.total_rows (Serve.snapshot !server)
      in
      rm_rf dir;
      ok)

let props =
  [
    prop_roundtrip;
    prop_bit_flip;
    prop_group_roundtrip;
    prop_group_bit_flip;
    prop_durable;
  ]
